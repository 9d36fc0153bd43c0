package sya_test

import (
	"os/exec"
	"testing"

	sya "repro"
)

const testProgram = `
Sensor (id bigint, location point, reading double).
SensorEvidence (id bigint, location point, hot bool).

@spatial(exp)
IsHot? (id bigint, location point).

D1: IsHot(S, L) = NULL :- Sensor(S, L, _).
D2: IsHot(S, L) = H :- SensorEvidence(S, L, H).

R1: @weight(0.8) IsHot(S, L) :- Sensor(S, L, R) [R > 0.6].
R2: @weight(0.5) !IsHot(S, L) :- Sensor(S, L, _).
`

func buildSystem(t *testing.T, engine sya.Engine) (*sya.System, *sya.Scores) {
	t.Helper()
	s := sya.New(sya.Config{
		Engine:    engine,
		Metric:    sya.MetricEuclidean,
		Bandwidth: 10,
		Epochs:    2000,
		Seed:      1,
	})
	if err := s.LoadProgram(testProgram); err != nil {
		t.Fatal(err)
	}
	rows := []sya.Row{
		{sya.Int(1), sya.Point(0, 0), sya.Float(0.7)},
		{sya.Int(2), sya.Point(5, 0), sya.Float(0.5)},
		{sya.Int(3), sya.Point(30, 0), sya.Float(0.5)},
	}
	if err := s.LoadRows("Sensor", rows); err != nil {
		t.Fatal(err)
	}
	if err := s.LoadRows("SensorEvidence", []sya.Row{
		{sya.Int(1), sya.Point(0, 0), sya.Bool(true)},
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Ground(); err != nil {
		t.Fatal(err)
	}
	scores, err := s.Infer()
	if err != nil {
		t.Fatal(err)
	}
	return s, scores
}

func TestPublicAPIEndToEnd(t *testing.T) {
	_, scores := buildSystem(t, sya.EngineSya)
	p1, ok := scores.TrueProb("IsHot", sya.Vals(sya.Int(1), sya.Point(0, 0)))
	if !ok || p1 != 1 {
		t.Fatalf("evidence score = %v %v", p1, ok)
	}
	p2, ok2 := scores.TrueProb("IsHot", sya.Vals(sya.Int(2), sya.Point(5, 0)))
	p3, ok3 := scores.TrueProb("IsHot", sya.Vals(sya.Int(3), sya.Point(30, 0)))
	if !ok2 || !ok3 {
		t.Fatal("missing scores")
	}
	// Spatial decay: the nearby sensor scores above the distant one.
	if !(p2 > p3) {
		t.Errorf("spatial decay violated: near=%v far=%v", p2, p3)
	}
	if _, ok := scores.TrueProb("IsHot", sya.Vals(sya.Int(99), sya.Point(0, 0))); ok {
		t.Error("unknown atom lookup should fail")
	}
}

func TestPublicAPIBaselineEngine(t *testing.T) {
	s, scores := buildSystem(t, sya.EngineDeepDive)
	if s.Grounding().Stats.SpatialPairs != 0 {
		t.Error("baseline should not generate spatial pairs")
	}
	if _, ok := scores.TrueProb("IsHot", sya.Vals(sya.Int(2), sya.Point(5, 0))); !ok {
		t.Error("baseline missing score")
	}
}

func TestPublicAPIValueHelpers(t *testing.T) {
	vals := sya.Vals(sya.Int(1), sya.Float(2.5), sya.Bool(true), sya.Str("x"), sya.Point(1, 2), sya.Null)
	if len(vals) != 6 {
		t.Fatalf("Vals = %d", len(vals))
	}
	if vals[5].Kind != sya.Null.Kind {
		t.Error("Null mismatch")
	}
}

// TestBenchmarkModuleBuilds vets benchmark/, a Go module of its own that
// `go build ./...` and `go test ./...` never compile: a repo identifier it
// uses, deleted or renamed, fails here instead of at the first benchmark
// run.
func TestBenchmarkModuleBuilds(t *testing.T) {
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("no go toolchain on PATH")
	}
	cmd := exec.Command(goBin, "vet", "./...")
	cmd.Dir = "benchmark"
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go vet ./... in benchmark/: %v\n%s", err, out)
	}
}
