package core

import (
	"context"
	"strings"
	"testing"

	"repro/internal/datagen"
	"repro/internal/geom"
	"repro/internal/storage"
)

func evidenceRow(c datagen.County, hasEbola bool) storage.Row {
	return storage.Row{storage.Int(c.ID), storage.Geom(c.Loc), storage.Bool(hasEbola)}
}

func TestUpsertEvidenceDeltaPath(t *testing.T) {
	s := newEbolaSystem(t, Config{Engine: EngineSya, Seed: 11})
	defer s.Close()
	if _, err := s.Ground(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Infer(); err != nil {
		t.Fatal(err)
	}
	counties := datagen.EbolaCounties()
	bong := counties[2]
	before, ok := s.scores().TrueProb("HasEbola", countyVals(bong))
	if !ok {
		t.Fatal("no batch score for Bong")
	}
	if before > 0.99 {
		t.Fatalf("Bong batch score %f already saturated; test is vacuous", before)
	}

	stats, err := s.UpsertEvidence(context.Background(), "CountyEvidence", []storage.Row{evidenceRow(bong, true)})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Structural {
		t.Fatalf("unexpected structural fallback: %s", stats.Reason)
	}
	if stats.Rows != 1 || stats.Pins != 1 || stats.SkippedPins != 0 {
		t.Fatalf("stats = %+v, want 1 row / 1 pin / 0 skipped", stats)
	}
	scores, err := s.InferIncremental(2000)
	if err != nil {
		t.Fatal(err)
	}
	got, ok := scores.TrueProb("HasEbola", countyVals(bong))
	if !ok {
		t.Fatal("no score for Bong after upsert")
	}
	if got != 1 {
		t.Errorf("pinned Bong score = %f, want exactly 1 (point mass)", got)
	}
}

func TestUpsertEvidenceConflictSkipsPin(t *testing.T) {
	s := newEbolaSystem(t, Config{Engine: EngineSya, Seed: 11})
	defer s.Close()
	if _, err := s.Ground(); err != nil {
		t.Fatal(err)
	}
	bong := datagen.EbolaCounties()[2]
	ctx := context.Background()
	first, err := s.UpsertEvidence(ctx, "CountyEvidence", []storage.Row{evidenceRow(bong, true)})
	if err != nil {
		t.Fatal(err)
	}
	if first.Pins != 1 {
		t.Fatalf("first upsert stats = %+v, want one pin", first)
	}
	// A conflicting second upsert re-derives Bong's atom, but the first pin
	// wins — exactly the batch grounder's dedup of conflicting evidence.
	second, err := s.UpsertEvidence(ctx, "CountyEvidence", []storage.Row{evidenceRow(bong, false)})
	if err != nil {
		t.Fatal(err)
	}
	if second.Structural || second.Pins != 0 || second.SkippedPins != 1 {
		t.Fatalf("second upsert stats = %+v, want 0 pins / 1 skipped", second)
	}
	scores, err := s.InferIncremental(500)
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := scores.TrueProb("HasEbola", countyVals(bong)); got != 1 {
		t.Errorf("Bong score = %f, want 1 (first pin kept)", got)
	}
}

// TestPinsSurviveSamplerRebuild: a pin outlives the sampler it was applied
// to. Upserting before the first Infer builds a sampler for the pin; the
// Infer then learns the @weight(?) rule, which rebuilds the sampler, and so
// does Close followed by Infer. Each time the pinned atom must read as the
// exact point mass.
func TestPinsSurviveSamplerRebuild(t *testing.T) {
	s := NewSystem(Config{Metric: geom.HaversineMiles, Bandwidth: 60, PyramidLevels: 4, Epochs: 400, Seed: 11})
	defer s.Close()
	if err := s.LoadProgram(strings.Replace(datagen.EbolaProgram, "R1: @weight(0.5)", "R1: @weight(?)", 1)); err != nil {
		t.Fatal(err)
	}
	county, evidence := datagen.EbolaRows(datagen.EbolaCounties())
	if err := s.LoadRows("County", county); err != nil {
		t.Fatal(err)
	}
	if err := s.LoadRows("CountyEvidence", evidence); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Ground(); err != nil {
		t.Fatal(err)
	}
	bong := datagen.EbolaCounties()[2]
	stats, err := s.UpsertEvidence(context.Background(), "CountyEvidence", []storage.Row{evidenceRow(bong, true)})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Structural || stats.Pins != 1 {
		t.Fatalf("upsert stats = %+v, want one pin on the delta path", stats)
	}
	for _, step := range []string{"infer after learning", "infer after Close"} {
		scores, err := s.Infer()
		if err != nil {
			t.Fatal(err)
		}
		if m, _ := scores.Marginal("HasEbola", countyVals(bong)); len(m) != 2 || m[0] != 0 || m[1] != 1 {
			t.Errorf("%s: pinned Bong marginal = %v, want exactly [0 1]", step, m)
		}
		s.Close()
	}
}

// TestUpdateEvidenceFirstPinWins: UpdateEvidence keeps the first pin of an
// atom, like UpsertEvidence. The same value again does nothing; a different
// value is an error naming the atom.
func TestUpdateEvidenceFirstPinWins(t *testing.T) {
	s := newEbolaSystem(t, Config{Engine: EngineSya, Seed: 3, Epochs: 200})
	defer s.Close()
	if _, err := s.Ground(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Infer(); err != nil {
		t.Fatal(err)
	}
	bong := countyVals(datagen.EbolaCounties()[2])
	for i := 0; i < 2; i++ {
		if err := s.UpdateEvidence("HasEbola", bong, 1); err != nil {
			t.Fatalf("pin %d: %v", i, err)
		}
	}
	err := s.UpdateEvidence("HasEbola", bong, 0)
	if err == nil || !strings.Contains(err.Error(), "hasebola|3|") {
		t.Fatalf("re-pin to another value: error %v, want one naming the atom", err)
	}
	scores, err := s.InferIncremental(200)
	if err != nil {
		t.Fatal(err)
	}
	if p, _ := scores.TrueProb("HasEbola", bong); p != 1 {
		t.Errorf("Bong = %v, want 1 (first pin kept)", p)
	}
}

func TestUpsertEvidenceStructuralFallback(t *testing.T) {
	s := newEbolaSystem(t, Config{Engine: EngineSya, Seed: 11})
	defer s.Close()
	if _, err := s.Ground(); err != nil {
		t.Fatal(err)
	}
	// A brand-new county changes the variable-atom universe: the delta
	// grounder must refuse the patch and the system must re-ground.
	row := storage.Row{storage.Int(9), storage.Geom(geom.Pt(-9.8, 6.8)), storage.Bool(true)}
	stats, err := s.UpsertEvidence(context.Background(), "County", []storage.Row{row})
	if err != nil {
		t.Fatal(err)
	}
	if !stats.Structural {
		t.Fatalf("stats = %+v, want structural", stats)
	}
	if s.Grounding().Stats.Vars != 5 {
		t.Errorf("re-ground vars = %d, want 5", s.Grounding().Stats.Vars)
	}
	if s.pinned != nil {
		t.Error("pin set must reset after a structural re-ground")
	}
	// The rebuilt system still infers end to end.
	if _, err := s.Infer(); err != nil {
		t.Fatal(err)
	}
}

func TestUpsertEvidenceDeepDiveIsStructural(t *testing.T) {
	s := newEbolaSystem(t, Config{Engine: EngineDeepDive, Seed: 11})
	defer s.Close()
	if _, err := s.Ground(); err != nil {
		t.Fatal(err)
	}
	bong := datagen.EbolaCounties()[2]
	stats, err := s.UpsertEvidence(context.Background(), "CountyEvidence", []storage.Row{evidenceRow(bong, true)})
	if err != nil {
		t.Fatal(err)
	}
	if !stats.Structural {
		t.Fatalf("stats = %+v, want structural (deepdive has no delta path)", stats)
	}
	if _, err := s.Infer(); err != nil {
		t.Fatal(err)
	}
}

func TestUpsertEvidenceRequiresGround(t *testing.T) {
	s := newEbolaSystem(t, Config{Engine: EngineSya})
	defer s.Close()
	if _, err := s.UpsertEvidence(context.Background(), "CountyEvidence", nil); err == nil {
		t.Fatal("upsert before Ground must fail")
	}
}
