package core

import (
	"testing"

	"repro/internal/datagen"
	"repro/internal/geom"
	"repro/internal/gibbs"
	"repro/internal/learn"
	"repro/internal/stats"
	"repro/internal/storage"
)

// newEbolaSystem builds a system for the Fig. 1 scenario.
func newEbolaSystem(t *testing.T, cfg Config) *System {
	t.Helper()
	if cfg.Metric == geom.Euclidean {
		cfg.Metric = geom.HaversineMiles
	}
	if cfg.Bandwidth == 0 {
		cfg.Bandwidth = 60
	}
	if cfg.PyramidLevels == 0 {
		cfg.PyramidLevels = 4
	}
	if cfg.Epochs == 0 {
		cfg.Epochs = 6000
	}
	s := NewSystem(cfg)
	if err := s.LoadProgram(datagen.EbolaProgram); err != nil {
		t.Fatal(err)
	}
	county, evidence := datagen.EbolaRows(datagen.EbolaCounties())
	if err := s.LoadRows("County", county); err != nil {
		t.Fatal(err)
	}
	if err := s.LoadRows("CountyEvidence", evidence); err != nil {
		t.Fatal(err)
	}
	return s
}

func countyVals(c datagen.County) []storage.Value {
	return []storage.Value{storage.Int(c.ID), storage.Geom(c.Loc)}
}

func TestSystemEndToEndSya(t *testing.T) {
	s := newEbolaSystem(t, Config{Engine: EngineSya, Seed: 7})
	res, err := s.Ground()
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Vars != 4 || res.Stats.SpatialPairs == 0 {
		t.Fatalf("stats = %+v", res.Stats)
	}
	scores, err := s.Infer()
	if err != nil {
		t.Fatal(err)
	}
	counties := datagen.EbolaCounties()
	var got []float64
	for _, c := range counties[1:] {
		p, ok := scores.TrueProb("HasEbola", countyVals(c))
		if !ok {
			t.Fatalf("no score for %s", c.Name)
		}
		got = append(got, p)
	}
	// Paper Fig. 1 ordering: Margibi > Bong > Gbarpolu.
	if !(got[0] > got[1] && got[1] > got[2]) {
		t.Errorf("ordering violated: %v", got)
	}
	if s.GroundingTime() <= 0 || s.InferenceTime() <= 0 {
		t.Error("times not recorded")
	}
}

func TestSystemEndToEndDeepDive(t *testing.T) {
	s := newEbolaSystem(t, Config{Engine: EngineDeepDive, Seed: 7})
	res, err := s.Ground()
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.SpatialPairs != 0 {
		t.Fatalf("baseline has spatial pairs: %d", res.Stats.SpatialPairs)
	}
	scores, err := s.Infer()
	if err != nil {
		t.Fatal(err)
	}
	counties := datagen.EbolaCounties()
	// Boolean predicate: Margibi and Bong get similar scores (both within
	// 150 mi) while Gbarpolu's only support is the generic prior — the
	// DeepDive deficiency of Fig. 1.
	margibi, _ := scores.TrueProb("HasEbola", countyVals(counties[1]))
	bong, _ := scores.TrueProb("HasEbola", countyVals(counties[2]))
	gbarpolu, _ := scores.TrueProb("HasEbola", countyVals(counties[3]))
	if !(margibi > gbarpolu && bong > gbarpolu) {
		t.Errorf("scores: margibi=%v bong=%v gbarpolu=%v", margibi, bong, gbarpolu)
	}
}

func TestSyaBeatsDeepDiveOnEbolaF1(t *testing.T) {
	evaluate := func(engine Engine) float64 {
		s := newEbolaSystem(t, Config{Engine: engine, Seed: 11})
		if _, err := s.Ground(); err != nil {
			t.Fatal(err)
		}
		scores, err := s.Infer()
		if err != nil {
			t.Fatal(err)
		}
		var exs []stats.Example
		for _, c := range datagen.EbolaCounties()[1:] {
			p, ok := scores.TrueProb("HasEbola", countyVals(c))
			if !ok {
				t.Fatal("missing score")
			}
			exs = append(exs, stats.Example{Score: p, Truth: c.Truth, HasTruth: true})
		}
		return stats.Evaluate(exs, stats.DefaultOptions()).F1
	}
	sya := evaluate(EngineSya)
	dd := evaluate(EngineDeepDive)
	if sya < dd {
		t.Errorf("Sya F1 %v < DeepDive F1 %v", sya, dd)
	}
	if sya < 0.6 {
		t.Errorf("Sya F1 %v unexpectedly low", sya)
	}
}

// TestEngineUnmarshalText: every accepted spelling reads case-insensitively
// into its engine, an unknown one is an error, and each engine's own name
// reads back to it.
func TestEngineUnmarshalText(t *testing.T) {
	for name, want := range map[string]Engine{
		"": EngineSya, "sya": EngineSya, "SYA": EngineSya,
		"deepdive": EngineDeepDive, "DeepDive": EngineDeepDive,
	} {
		var got Engine
		if err := got.UnmarshalText([]byte(name)); err != nil || got != want {
			t.Errorf("UnmarshalText(%q) = %v, %v; want %v", name, got, err, want)
		}
	}
	var e Engine
	if err := e.UnmarshalText([]byte("bogus")); err == nil {
		t.Error("bad engine should fail")
	}
	for _, e := range []Engine{EngineSya, EngineDeepDive} {
		text, err := e.MarshalText()
		if err != nil {
			t.Fatal(err)
		}
		var back Engine
		if err := back.UnmarshalText(text); err != nil || back != e {
			t.Errorf("%v: name %q reads back as %v, %v", e, text, back, err)
		}
	}
}

func TestInferBeforeGroundFails(t *testing.T) {
	s := NewSystem(Config{})
	if _, err := s.Infer(); err == nil {
		t.Error("Infer before Ground should fail")
	}
	if _, err := s.Ground(); err == nil {
		t.Error("Ground before LoadProgram should fail")
	}
}

func TestIncrementalInferenceAPI(t *testing.T) {
	s := newEbolaSystem(t, Config{Engine: EngineSya, Seed: 3, Epochs: 2000})
	if _, err := s.Ground(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Infer(); err != nil {
		t.Fatal(err)
	}
	counties := datagen.EbolaCounties()
	// Declare Bong infected and resample incrementally.
	if err := s.UpdateEvidence("HasEbola", countyVals(counties[2]), 1); err != nil {
		t.Fatal(err)
	}
	scores, err := s.InferIncremental(2000)
	if err != nil {
		t.Fatal(err)
	}
	if p, _ := scores.TrueProb("HasEbola", countyVals(counties[2])); p != 1 {
		t.Errorf("pinned Bong = %v", p)
	}
	// Unknown atom errors.
	if err := s.UpdateEvidence("HasEbola", []storage.Value{storage.Int(99), storage.Geom(geom.Pt(0, 0))}, 1); err == nil {
		t.Error("unknown atom should fail")
	}
}

func TestIncrementalNeedsSyaEngine(t *testing.T) {
	s := newEbolaSystem(t, Config{Engine: EngineDeepDive, Seed: 3, Epochs: 100})
	if _, err := s.Ground(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Infer(); err != nil {
		t.Fatal(err)
	}
	if err := s.UpdateEvidence("HasEbola", countyVals(datagen.EbolaCounties()[2]), 1); err == nil {
		t.Error("baseline incremental update should fail")
	}
	if _, err := s.InferIncremental(10); err == nil {
		t.Error("baseline incremental inference should fail")
	}
}

func TestStepRuleExpansionThroughSystem(t *testing.T) {
	s := newEbolaSystem(t, Config{Engine: EngineDeepDive, Seed: 5, Epochs: 500})
	if err := s.ExpandStepRules("R1", 4, 150, 0.8); err != nil {
		t.Fatal(err)
	}
	// R0 (prior) + 4 bands replacing R1.
	if got := len(s.Program().Rules); got != 5 {
		t.Fatalf("rules after expansion = %d", got)
	}
	if _, err := s.Ground(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Infer(); err != nil {
		t.Fatal(err)
	}
	// Expansion before a program is loaded fails.
	s2 := NewSystem(Config{})
	if err := s2.ExpandStepRules("R1", 4, 150, 0.8); err == nil {
		t.Error("expansion without program should fail")
	}
}

func TestScoresEachAndMarginal(t *testing.T) {
	s := newEbolaSystem(t, Config{Engine: EngineSya, Seed: 13, Epochs: 500})
	if _, err := s.Ground(); err != nil {
		t.Fatal(err)
	}
	scores, err := s.Infer()
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	scores.Each("HasEbola", func(key string, _ int32, m []float64) bool {
		if len(m) != 2 {
			t.Errorf("marginal width = %d", len(m))
		}
		n++
		return true
	})
	if n != 4 {
		t.Errorf("Each visited %d atoms", n)
	}
	if _, ok := scores.Marginal("HasEbola", countyVals(datagen.EbolaCounties()[0])); !ok {
		t.Error("Marginal lookup failed")
	}
	if _, ok := scores.Marginal("HasEbola", []storage.Value{storage.Int(42)}); ok {
		t.Error("bogus Marginal lookup succeeded")
	}
}

func TestGWDBSmallEndToEnd(t *testing.T) {
	// A small GWDB build through the full 11-rule program in both engines.
	data := datagen.Wells(datagen.WellsConfig{N: 150, Seed: 21, Extent: 300})
	build := func(engine Engine) (*System, *Scores) {
		s := NewSystem(Config{
			Engine: engine, Seed: 9, Epochs: 600, Bandwidth: 30,
			SupportRadius: 60, PyramidLevels: 5,
		})
		if err := s.LoadProgram(datagen.GWDBProgram); err != nil {
			t.Fatal(err)
		}
		wells, evidence := data.Rows()
		if err := s.LoadRows("Well", wells); err != nil {
			t.Fatal(err)
		}
		if err := s.LoadRows("WellEvidence", evidence); err != nil {
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
	evalF1 := func(scores *Scores) float64 {
		var exs []stats.Example
		for _, w := range data.Wells {
			if w.IsEvidence {
				continue
			}
			p, ok := scores.TrueProb("IsSafe", []storage.Value{storage.Int(w.ID), storage.Geom(w.Loc)})
			if !ok {
				t.Fatal("missing well score")
			}
			exs = append(exs, stats.Example{Score: p, Truth: stats.Point(w.TruthProb), HasTruth: true})
		}
		return stats.Evaluate(exs, stats.Options{Tolerance: 0.25, DecisionMargin: 0}).F1
	}
	_, syaScores := build(EngineSya)
	_, ddScores := build(EngineDeepDive)
	syaF1, ddF1 := evalF1(syaScores), evalF1(ddScores)
	t.Logf("GWDB small: Sya F1=%.3f DeepDive F1=%.3f", syaF1, ddF1)
	if syaF1 < ddF1-0.05 {
		t.Errorf("Sya F1 %v clearly below DeepDive %v", syaF1, ddF1)
	}
}

func TestLearnWeightsThroughSystem(t *testing.T) {
	s := newEbolaSystem(t, Config{Engine: EngineSya, Seed: 3, Epochs: 1500})
	if _, err := s.LearnWeights(learn.Options{Iterations: 20}); err == nil {
		t.Error("LearnWeights before Ground should fail")
	}
	if _, err := s.Ground(); err != nil {
		t.Fatal(err)
	}
	weights, err := s.LearnWeights(learn.Options{Iterations: 60, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(weights) != 2 { // R0 prior + R1 imply
		t.Fatalf("weights = %v", weights)
	}
	if _, ok := weights["R1"]; !ok {
		t.Errorf("missing R1: %v", weights)
	}
	// Inference still runs under the learned weights.
	if _, err := s.Infer(); err != nil {
		t.Fatal(err)
	}
}

func TestMAPThroughSystem(t *testing.T) {
	s := newEbolaSystem(t, Config{Engine: EngineSya, Seed: 3, Epochs: 500})
	if _, err := s.MAP(gibbs.MAPOptions{}); err == nil {
		t.Error("MAP before Ground should fail")
	}
	if _, err := s.Ground(); err != nil {
		t.Fatal(err)
	}
	w, err := s.MAP(gibbs.MAPOptions{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	counties := datagen.EbolaCounties()
	// Evidence county stays infected in the MAP world.
	v, ok := w.Value("HasEbola", countyVals(counties[0]))
	if !ok || v != 1 {
		t.Errorf("MAP evidence = %d %v", v, ok)
	}
	if _, ok := w.Value("HasEbola", []storage.Value{storage.Int(99)}); ok {
		t.Error("unknown atom lookup should fail")
	}
	// Far Gbarpolu is healthy in the most probable world. (Margibi's
	// marginal is above 0.5, but the joint mode at these weights is the
	// all-healthy world apart from the evidence — the usual MAP-vs-marginal
	// distinction.)
	gbarpolu, _ := w.Value("HasEbola", countyVals(counties[3]))
	if gbarpolu != 0 {
		t.Errorf("MAP world: gbarpolu=%d", gbarpolu)
	}
	if w.Energy == 0 {
		t.Error("energy not reported")
	}
}

func TestAutoLearnOnLearnedWeightRules(t *testing.T) {
	// A program with @weight(?) rules learns automatically at Infer time.
	src := `
Site (id bigint, location point, risky bool).
SiteEvidence (id bigint, location point, infected bool).
Infected? (id bigint, location point).
D1: Infected(S, L) = NULL :- Site(S, L, _).
D2: Infected(S, L) = I :- SiteEvidence(S, L, I).
R1: @weight(?) Infected(S, L) :- Site(S, L, R) [R = true].
`
	s := NewSystem(Config{Epochs: 400, Seed: 2})
	if err := s.LoadProgram(src); err != nil {
		t.Fatal(err)
	}
	var sites, ev []storage.Row
	for i := int64(1); i <= 60; i++ {
		risky := i%2 == 0
		sites = append(sites, storage.Row{storage.Int(i), storage.Geom(geom.Pt(float64(i), 0)), storage.Bool(risky)})
		if i%3 != 0 {
			ev = append(ev, storage.Row{storage.Int(i), storage.Geom(geom.Pt(float64(i), 0)), storage.Bool(risky)})
		}
	}
	if err := s.LoadRows("Site", sites); err != nil {
		t.Fatal(err)
	}
	if err := s.LoadRows("SiteEvidence", ev); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Ground(); err != nil {
		t.Fatal(err)
	}
	scores, err := s.Infer() // triggers auto-learning
	if err != nil {
		t.Fatal(err)
	}
	// Learned R1 weight should make risky unlabelled sites lean infected.
	p6, _ := scores.TrueProb("Infected", []storage.Value{storage.Int(6), storage.Geom(geom.Pt(6, 0))})
	p9, _ := scores.TrueProb("Infected", []storage.Value{storage.Int(9), storage.Geom(geom.Pt(9, 0))})
	if !(p6 > p9) {
		t.Errorf("risky site %v should exceed non-risky %v after auto-learning", p6, p9)
	}
}

func TestConfigAccessorsAndEngineString(t *testing.T) {
	if EngineSya.String() != "sya" || EngineDeepDive.String() != "deepdive" {
		t.Error("engine names")
	}
	s := NewSystem(Config{Epochs: 123, BurnIn: -1})
	cfg := s.Config()
	if cfg.Epochs != 123 || cfg.PyramidLevels != 8 || cfg.Instances != 2 {
		t.Errorf("defaults: %+v", cfg)
	}
	if s.burnIn(2) != 0 {
		t.Error("negative BurnIn should disable burn-in")
	}
	s2 := NewSystem(Config{Epochs: 1000, BurnIn: 77})
	if s2.burnIn(4) != 77 {
		t.Error("explicit BurnIn should pass through")
	}
	s3 := NewSystem(Config{Epochs: 1000})
	if s3.burnIn(2) != 50 {
		t.Errorf("default BurnIn = %d, want Epochs/(10*chains)", s3.burnIn(2))
	}
}

func TestSamplerAccessor(t *testing.T) {
	s := newEbolaSystem(t, Config{Engine: EngineSya, Seed: 1, Epochs: 100})
	if s.Sampler() != nil {
		t.Error("sampler should be nil before Infer")
	}
	if _, err := s.Ground(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Infer(); err != nil {
		t.Fatal(err)
	}
	if s.Sampler() == nil || s.Sampler().Name() != "spatial" {
		t.Error("sampler accessor wrong")
	}
}

func TestLoadProgramInvalid(t *testing.T) {
	s := NewSystem(Config{})
	if err := s.LoadProgram("not a program ("); err == nil {
		t.Error("invalid program should fail")
	}
	if err := s.LoadRows("Nope", nil); err == nil {
		t.Error("rows into unknown relation should fail")
	}
}
