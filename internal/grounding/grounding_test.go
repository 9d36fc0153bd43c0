package grounding

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/ddlog"
	"repro/internal/factorgraph"
	"repro/internal/geom"
	"repro/internal/gibbs"
	"repro/internal/storage"
	"repro/internal/translate"
	"repro/internal/weighting"
)

// ebolaSrc is the paper's Fig. 3 program plus an evidence derivation.
const ebolaSrc = `
const liberia_geom = 'POLYGON((-12 4, -7 4, -7 9, -12 9))'.
S1: County (id bigint, location point, hasLowSanitation bool).
E1: CountyEvidence (id bigint, location point, hasEbola bool).
@spatial(exp)
S2: HasEbola? (id bigint, location point).
D1: HasEbola(C, L) = NULL :- County(C, L, _).
D2: HasEbola(C, L) = E :- CountyEvidence(C, L, E).
R1: @weight(0.35)
HasEbola(C1, L1) => HasEbola(C2, L2) :-
    County(C1, L1, _), County(C2, L2, S2)
    [distance(L1, L2) < 150, within(liberia_geom, L1), S2 = true].
`

// county coordinates chosen so that distances match the paper's narrative:
// Montserrado–Margibi ≈ 29 mi, –Bong ≈ 106 mi, –Gbarpolu ≈ 158 mi.
var counties = []struct {
	id   int64
	name string
	loc  geom.Point
	san  bool
}{
	{1, "Montserrado", geom.Pt(-10.80, 6.32), true},
	{2, "Margibi", geom.Pt(-10.45, 6.55), true},
	{3, "Bong", geom.Pt(-9.45, 7.05), true},
	{4, "Gbarpolu", geom.Pt(-8.90, 7.60), false},
}

func ebolaDB(t *testing.T, prog *ddlog.Program) *storage.DB {
	t.Helper()
	db := storage.NewDB()
	rel, _ := prog.Relation("County")
	county, err := db.Create(translate.SchemaFor(rel))
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range counties {
		if err := county.Append(storage.Row{storage.Int(c.id), storage.Geom(c.loc), storage.Bool(c.san)}); err != nil {
			t.Fatal(err)
		}
	}
	erel, _ := prog.Relation("CountyEvidence")
	ev, err := db.Create(translate.SchemaFor(erel))
	if err != nil {
		t.Fatal(err)
	}
	// Montserrado declared highly infected (the paper's evidence row).
	if err := ev.Append(storage.Row{storage.Int(1), storage.Geom(counties[0].loc), storage.Bool(true)}); err != nil {
		t.Fatal(err)
	}
	return db
}

func groundEbola(t *testing.T, opts Options) (*Result, *ddlog.Program) {
	t.Helper()
	prog, err := ddlog.ParseAndValidate(ebolaSrc)
	if err != nil {
		t.Fatal(err)
	}
	db := ebolaDB(t, prog)
	if opts.Metric == geom.Euclidean {
		opts.Metric = geom.HaversineMiles
	}
	res, err := New(prog, db, opts).Ground()
	if err != nil {
		t.Fatal(err)
	}
	return res, prog
}

func TestGroundEbolaKB(t *testing.T) {
	reg := weighting.NewRegistry(60, 1) // 60-mile bandwidth
	res, _ := groundEbola(t, Options{Weighting: reg})
	st := res.Stats
	if st.Vars != 4 {
		t.Fatalf("vars = %d, want 4", st.Vars)
	}
	if st.EvidenceVars != 1 || st.QueryVars != 3 {
		t.Errorf("evidence/query = %d/%d", st.EvidenceVars, st.QueryVars)
	}
	// Pairs satisfying R1's body (including C1 = C2 at distance 0):
	// C1 ∈ all 4 (all within Liberia), C2 ∈ sanitation-true {1,2,3} with
	// distance < 150: C1=1→{1,2,3}, C1=2→{1,2,3}, C1=3→{1,2,3},
	// C1=4→{2,3} (d(4,1) ≈ 158 > 150). Total 11.
	if st.LogicalFactors != 11 {
		t.Errorf("logical factors = %d, want 11", st.LogicalFactors)
	}
	// Spatial factors: all 6 unordered pairs are within the exp support
	// radius (60·ln(1000) ≈ 414 mi).
	if st.SpatialPairs != 6 {
		t.Errorf("spatial pairs = %d, want 6", st.SpatialPairs)
	}
	// The duplicate derivation of Montserrado (D1 then D2) upgrades its
	// evidence rather than duplicating the atom.
	if st.DuplicateDerivations != 1 {
		t.Errorf("duplicate derivations = %d, want 1", st.DuplicateDerivations)
	}
	if res.Graph == nil || res.Graph.NumVars() != 4 {
		t.Fatal("graph missing")
	}
	// Montserrado is evidence=1.
	vid := res.VarID["hasebola|1|POINT (-10.8 6.32)"]
	if got := res.Graph.Var(vid).Evidence; got != 1 {
		t.Errorf("Montserrado evidence = %d", got)
	}
}

func TestEbolaFactualScoresOrdering(t *testing.T) {
	// The paper's Fig. 1: Sya reports Margibi > Bong > Gbarpolu
	// (0.76, 0.53, 0.22 in the paper). With our synthetic weights the
	// absolute values differ but the ordering must reproduce.
	reg := weighting.NewRegistry(60, 1)
	res, _ := groundEbola(t, Options{Weighting: reg})
	s, err := gibbs.NewSpatial(res.Graph, gibbs.SpatialOptions{Levels: 4, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	s.RunTotalEpochs(8000)
	m := s.Marginals()
	score := func(id int) float64 {
		for key, vid := range res.VarID {
			if strings.HasPrefix(key, "hasebola|"+string(rune('0'+id))+"|") {
				return m[vid][1]
			}
		}
		t.Fatalf("no atom for county %d", id)
		return 0
	}
	margibi, bong, gbarpolu := score(2), score(3), score(4)
	if !(margibi > bong && bong > gbarpolu) {
		t.Errorf("ordering violated: Margibi=%.3f Bong=%.3f Gbarpolu=%.3f", margibi, bong, gbarpolu)
	}
	// All should be pulled above 0.5-neutral for near counties; Gbarpolu
	// must remain clearly lower but not collapse to ~0 (the paper's point
	// about DeepDive's boolean cut-off).
	if gbarpolu < 0.05 {
		t.Errorf("Gbarpolu score %.3f collapsed like a boolean predicate would", gbarpolu)
	}
}

// TestVariableRelationMaterialized checks that grounding writes every ground
// atom back into its variable relation's table with its __vid.
func TestVariableRelationMaterialized(t *testing.T) {
	prog, _ := ddlog.ParseAndValidate(ebolaSrc)
	db := ebolaDB(t, prog)
	if _, err := New(prog, db, Options{Metric: geom.HaversineMiles}).Ground(); err != nil {
		t.Fatal(err)
	}
	he, err := db.Table("HasEbola")
	if err != nil {
		t.Fatal(err)
	}
	if he.Len() != 4 || he.Schema().ColIndex("__vid") < 0 {
		t.Errorf("HasEbola rows = %d", he.Len())
	}
}

func TestUDFApplication(t *testing.T) {
	src := `
Docs (id bigint, body text).
Mention (doc bigint, place text, location point).
M? (doc bigint, place text, location point).
function extract over (id bigint, body text) returns rows like Mention implementation "fake_ner".
Mention += extract(I, B) :- Docs(I, B).
D: M(D, P, L) = NULL :- Mention(D, P, L).
`
	prog, err := ddlog.ParseAndValidate(src)
	if err != nil {
		t.Fatal(err)
	}
	db := storage.NewDB()
	rel, _ := prog.Relation("Docs")
	docs, _ := db.Create(translate.SchemaFor(rel))
	_ = docs.Append(storage.Row{storage.Int(1), storage.Str("visited Monrovia and Kakata")})
	_ = docs.Append(storage.Row{storage.Int(2), storage.Str("nothing here")})
	fake := func(args []storage.Value) ([]storage.Row, error) {
		id := args[0]
		var out []storage.Row
		if strings.Contains(args[1].S, "Monrovia") {
			out = append(out, storage.Row{id, storage.Str("Monrovia"), storage.Geom(geom.Pt(-10.8, 6.3))})
		}
		if strings.Contains(args[1].S, "Kakata") {
			out = append(out, storage.Row{id, storage.Str("Kakata"), storage.Geom(geom.Pt(-10.35, 6.53))})
		}
		return out, nil
	}
	gr := New(prog, db, Options{UDFs: map[string]UDF{"fake_ner": fake}})
	res, err := gr.Ground()
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Vars != 2 {
		t.Errorf("vars = %d, want 2 mentions", res.Stats.Vars)
	}
	if _, err := db.Table("Mention"); err != nil {
		t.Error("Mention table missing")
	}
}

func TestMissingUDFImplementation(t *testing.T) {
	src := `
Docs (id bigint).
Out (id bigint).
function f over (id bigint) returns (id bigint) implementation "nope".
Out += f(I) :- Docs(I).
`
	prog, err := ddlog.ParseAndValidate(src)
	if err != nil {
		t.Fatal(err)
	}
	db := storage.NewDB()
	if _, err := New(prog, db, Options{}).Ground(); err == nil {
		t.Error("missing UDF should fail")
	}
}

func TestSkippedHeadLookups(t *testing.T) {
	// The rule's head references atoms only derived for a subset of rows.
	src := `
A (id bigint, grp bigint).
V? (id bigint).
D: V(I) = NULL :- A(I, 1).
R: @weight(1) V(I1) => V(I2) :- A(I1, _), A(I2, _).
`
	prog, err := ddlog.ParseAndValidate(src)
	if err != nil {
		t.Fatal(err)
	}
	db := storage.NewDB()
	rel, _ := prog.Relation("A")
	a, _ := db.Create(translate.SchemaFor(rel))
	_ = a.Append(storage.Row{storage.Int(1), storage.Int(1)})
	_ = a.Append(storage.Row{storage.Int(2), storage.Int(2)}) // not derived
	res, err := New(prog, db, Options{}).Ground()
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Vars != 1 {
		t.Fatalf("vars = %d", res.Stats.Vars)
	}
	// Groundings: (1,1) ok; (1,2), (2,1), (2,2) each hit a missing atom.
	if res.Stats.SkippedHeadLookups != 3 {
		t.Errorf("skipped = %d, want 3", res.Stats.SkippedHeadLookups)
	}
	if res.Stats.LogicalFactors != 1 {
		t.Errorf("factors = %d, want 1", res.Stats.LogicalFactors)
	}
}

func TestCategoricalPruningMaskEffect(t *testing.T) {
	// Clustered categorical evidence: values 0 and 1 co-occur spatially;
	// value 2 appears isolated far away. With T high, (0,2)/(1,2) pairs
	// must be pruned while (0,0), (0,1), (1,1) survive.
	src := `
Obs (id bigint, location point, lvl bigint).
@spatial(exp)
Level? (id bigint, location point) categorical(3).
D1: Level(I, L) = V :- Obs(I, L, V).
`
	prog, err := ddlog.ParseAndValidate(src)
	if err != nil {
		t.Fatal(err)
	}
	db := storage.NewDB()
	rel, _ := prog.Relation("Obs")
	obs, _ := db.Create(translate.SchemaFor(rel))
	rng := rand.New(rand.NewSource(3))
	id := int64(0)
	// Cluster A: values 0/1 interleaved around (0, 0).
	for i := 0; i < 30; i++ {
		loc := geom.Pt(rng.Float64()*5, rng.Float64()*5)
		_ = obs.Append(storage.Row{storage.Int(id), storage.Geom(loc), storage.Int(int64(i % 2))})
		id++
	}
	// Cluster B: value 2 far away at (1000, 1000).
	for i := 0; i < 10; i++ {
		loc := geom.Pt(1000+rng.Float64()*5, 1000+rng.Float64()*5)
		_ = obs.Append(storage.Row{storage.Int(id), storage.Geom(loc), storage.Int(2)})
		id++
	}
	reg := weighting.NewRegistry(5, 1)
	res, err := New(prog, db, Options{Weighting: reg, PruneThreshold: 0.5, SupportRadius: 10}).Ground()
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.PrunedValuePairs == 0 {
		t.Error("expected some pruned value pairs")
	}
	if res.Stats.AllowedValuePairs == 0 {
		t.Error("expected some allowed value pairs")
	}
	// Cross-cluster pairs (0,2)/(2,0)/(1,2)/(2,1) never co-occur → pruned;
	// that is 4 of 9 pairs at least.
	if res.Stats.PrunedValuePairs < 4 {
		t.Errorf("pruned = %d, want >= 4", res.Stats.PrunedValuePairs)
	}
}

func TestPruningThresholdMonotone(t *testing.T) {
	// Higher T must never allow more pairs (the Fig. 11 trade-off).
	build := func(T float64) int {
		src := `
Obs (id bigint, location point, lvl bigint).
@spatial(exp)
Level? (id bigint, location point) categorical(4).
D1: Level(I, L) = V :- Obs(I, L, V).
`
		prog, err := ddlog.ParseAndValidate(src)
		if err != nil {
			t.Fatal(err)
		}
		db := storage.NewDB()
		rel, _ := prog.Relation("Obs")
		obs, _ := db.Create(translate.SchemaFor(rel))
		rng := rand.New(rand.NewSource(9))
		for i := int64(0); i < 80; i++ {
			loc := geom.Pt(rng.Float64()*20, rng.Float64()*20)
			_ = obs.Append(storage.Row{storage.Int(i), storage.Geom(loc), storage.Int(int64(rng.Intn(4)))})
		}
		res, err := New(prog, db, Options{
			Weighting: weighting.NewRegistry(4, 1), PruneThreshold: T, SupportRadius: 6,
		}).Ground()
		if err != nil {
			t.Fatal(err)
		}
		return res.Stats.AllowedValuePairs
	}
	prev := build(0.1)
	for _, T := range []float64{0.3, 0.5, 0.7, 0.9} {
		cur := build(T)
		if cur > prev {
			t.Errorf("T=%v allowed %d > previous %d", T, cur, prev)
		}
		prev = cur
	}
}

func TestMaxNeighborsCap(t *testing.T) {
	src := `
Obs (id bigint, location point).
@spatial(exp)
V? (id bigint, location point).
D: V(I, L) = NULL :- Obs(I, L).
`
	prog, err := ddlog.ParseAndValidate(src)
	if err != nil {
		t.Fatal(err)
	}
	build := func(cap int) int {
		db := storage.NewDB()
		rel, _ := prog.Relation("Obs")
		obs, _ := db.Create(translate.SchemaFor(rel))
		rng := rand.New(rand.NewSource(4))
		for i := int64(0); i < 60; i++ {
			_ = obs.Append(storage.Row{storage.Int(i), storage.Geom(geom.Pt(rng.Float64(), rng.Float64()))})
		}
		res, err := New(prog, db, Options{
			Weighting: weighting.NewRegistry(10, 1), MaxNeighbors: cap,
		}).Ground()
		if err != nil {
			t.Fatal(err)
		}
		return res.Stats.SpatialPairs
	}
	unlimited := build(0)
	capped := build(3)
	if unlimited != 60*59/2 {
		t.Errorf("unlimited pairs = %d, want %d (dense cluster)", unlimited, 60*59/2)
	}
	if capped >= unlimited || capped == 0 {
		t.Errorf("capped pairs = %d vs unlimited %d", capped, unlimited)
	}
}

func TestEvidenceBeatsNullOnDuplicates(t *testing.T) {
	res, _ := groundEbola(t, Options{})
	g := res.Graph
	evCount := 0
	g.Vars(func(_ factorgraph.VarID, v factorgraph.Variable) bool {
		if v.Evidence != factorgraph.NoEvidence {
			evCount++
		}
		return true
	})
	if evCount != 1 {
		t.Errorf("evidence vars = %d, want 1", evCount)
	}
}

func TestStatsRuleBookkeeping(t *testing.T) {
	res, _ := groundEbola(t, Options{})
	if res.Stats.RuleFactors["R1"] != 11 {
		t.Errorf("R1 factors = %d", res.Stats.RuleFactors["R1"])
	}
	if res.Stats.DerivationRows["D1"] != 4 || res.Stats.DerivationRows["D2"] != 1 {
		t.Errorf("derivation rows = %v", res.Stats.DerivationRows)
	}
	if !strings.Contains(res.Stats.RuleSQL["R1"], "ST_DISTANCE") {
		t.Errorf("rule SQL missing: %v", res.Stats.RuleSQL["R1"])
	}
	if res.Stats.TotalTime <= 0 {
		t.Error("total time not measured")
	}
}

// TestAppendAtomKeyMatchesString pins the public atom-key bytes (serve
// responses, /v1/explain, WAL-replayed pins): AppendAtomKey, AtomKey and the
// join of Value.String renderings agree on every value kind, and the literal
// keys below are what the string-building AtomKey produced before
// AppendAtomKey existed.
func TestAppendAtomKeyMatchesString(t *testing.T) {
	negZero := math.Copysign(0, -1)
	cases := []struct {
		rel  string
		vals []storage.Value
		want string
	}{
		{"IsSafe", []storage.Value{storage.Int(7), storage.Geom(geom.Pt(1.5, -2))}, "issafe|7|POINT (1.5 -2)"},
		{"R", nil, "r"},
		{"r", []storage.Value{storage.Null, storage.Bool(true), storage.Bool(false)}, "r|NULL|true|false"},
		{"r", []storage.Value{storage.Int(-9007199254740993), storage.Float(0.1), storage.Float(1e21), storage.Float(1e-7)},
			"r|-9007199254740993|0.1|1e+21|1e-07"},
		{"r", []storage.Value{storage.Float(negZero), storage.Float(math.NaN()), storage.Float(math.Inf(1)), storage.Float(math.Inf(-1))},
			"r|-0|NaN|+Inf|-Inf"},
		{"r", []storage.Value{storage.Str("a|b"), storage.Str("")}, "r|a|b|"},
		{"r", []storage.Value{storage.Geom(geom.Pt(negZero, 123456789.125))}, "r|POINT (-0 1.23456789125e+08)"},
		{"r", []storage.Value{storage.Geom(geom.NewRect(geom.Pt(0, 0), geom.Pt(2, 1)))},
			"r|POLYGON ((0 0, 2 0, 2 1, 0 1, 0 0))"},
		{"r", []storage.Value{storage.Geom(geom.Polygon{Ring: []geom.Point{geom.Pt(0, 0), geom.Pt(4, 0), geom.Pt(0, 3.5)}})},
			"r|POLYGON ((0 0, 4 0, 0 3.5, 0 0))"},
		{"r", []storage.Value{storage.Geom(geom.LineString{Points: []geom.Point{geom.Pt(0, 0), geom.Pt(1, 1), geom.Pt(2, 0.25)}})},
			"r|LINESTRING (0 0, 1 1, 2 0.25)"},
		{"ÄB", []storage.Value{storage.Int(1)}, "äb|1"},
	}
	for _, tc := range cases {
		if got := AtomKey(tc.rel, tc.vals); got != tc.want {
			t.Errorf("AtomKey(%q, %v) = %q, want %q", tc.rel, tc.vals, got, tc.want)
		}
		parts := []string{strings.ToLower(tc.rel)}
		for _, v := range tc.vals {
			parts = append(parts, v.String())
		}
		if joined := strings.Join(parts, "|"); joined != tc.want {
			t.Errorf("joined Value.String of (%q, %v) = %q, want %q", tc.rel, tc.vals, joined, tc.want)
		}
		// Appending extends dst in place and leaves what was there alone.
		if got := string(AppendAtomKey([]byte("x="), tc.rel, tc.vals)); got != "x="+tc.want {
			t.Errorf("AppendAtomKey(\"x=\", %q, %v) = %q, want %q", tc.rel, tc.vals, got, "x="+tc.want)
		}
	}
}
