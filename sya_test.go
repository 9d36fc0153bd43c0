package sya_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
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

// testSeams are the exported funcs and methods that exist for tests, each
// with the reason it stays exported although no non-test file calls it.
var testSeams = map[string]string{
	"SetTestHooks":     "gibbs' fault-injection hooks for the worker-panic and cancellation tests",
	"FrameOffsets":     "wal's frame boundaries, where the torn-log tests cut",
	"CheckInvariants":  "pyramid's structural oracle for Build",
	"ExactMarginals":   "factorgraph's exact-enumeration oracle the statistical harness checks samplers against",
	"InstrumentSweeps": "Spatial's sweep instrumentation for the locality tests",
	"SweptCells":       "Spatial's sweep instrumentation for the locality tests",
	"SweptTailVars":    "Spatial's sweep instrumentation for the locality tests",
	"ScheduledCells":   "Spatial's sweep instrumentation: the schedule size the locality tests compare against",
	"PendingDirty":     "Spatial's sweep instrumentation: the dirty set the incremental tests drain",
	"Pyramid":          "Spatial's sweep instrumentation: the index the golden and tail tests probe",
	"CellStats":        "Spatial's sweep instrumentation: the per-level schedule summary",
}

// interfaceMethods are methods the standard library calls through an
// interface, so no file in the module names them.
var interfaceMethods = map[string]string{
	"Error":         "error",
	"Less":          "sort.Interface, for container/heap",
	"Swap":          "sort.Interface, for container/heap",
	"MarshalText":   "encoding.TextMarshaler, for flag.TextVar",
	"UnmarshalText": "encoding.TextUnmarshaler, for flag.TextVar",
}

// TestNoTestOnlyExports fails on any exported func or method that no
// non-test file in the module references by name (benchmark/ and examples/
// count as callers; internal/gibbs/testutil, a test helper package, counts
// as neither caller nor callee). Code only tests reach is surface to delete;
// a seam tests genuinely need goes in testSeams with its reason.
func TestNoTestOnlyExports(t *testing.T) {
	fset := token.NewFileSet()
	declared := map[string][]string{} // name -> declaring files
	referenced := map[string]bool{}
	refs := func(n ast.Node) {
		ast.Inspect(n, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				referenced[id.Name] = true
			}
			return true
		})
	}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if path != "." && (strings.HasPrefix(name, ".") || name == "testdata") ||
				path == filepath.Join("internal", "gibbs", "testutil") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		callerOnly := strings.HasPrefix(path, "benchmark"+string(filepath.Separator)) ||
			strings.HasPrefix(path, "examples"+string(filepath.Separator))
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok {
				refs(decl)
				continue
			}
			// The declared name is not a reference to itself.
			if fn.Recv != nil {
				refs(fn.Recv)
			}
			refs(fn.Type)
			if fn.Body != nil {
				refs(fn.Body)
			}
			if callerOnly || !fn.Name.IsExported() || fn.Recv != nil && interfaceMethods[fn.Name.Name] != "" {
				continue
			}
			declared[fn.Name.Name] = append(declared[fn.Name.Name], path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var unused []string
	for name, files := range declared {
		if !referenced[name] && testSeams[name] == "" {
			unused = append(unused, name+" ("+strings.Join(files, ", ")+")")
		}
	}
	sort.Strings(unused)
	if len(unused) > 0 {
		t.Errorf("exported funcs and methods no non-test file references; delete them or list them in testSeams with a reason:\n\t%s",
			strings.Join(unused, "\n\t"))
	}
	for name := range testSeams {
		if len(declared[name]) == 0 || referenced[name] {
			t.Errorf("testSeams lists %s, which is no longer a declared, otherwise unreferenced export; drop the entry", name)
		}
	}
}
