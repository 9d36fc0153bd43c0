package factorgraph

import (
	"math"
	"math/rand"
	"testing"
	"unsafe"

	"repro/internal/geom"
)

// buildChain creates n binary spatial variables in a row with imply factors
// v_i => v_{i+1} and spatial pairs between neighbours.
func buildChain(t *testing.T, n int, implyW, spatialW float64) *Graph {
	t.Helper()
	b := NewBuilder()
	for i := 0; i < n; i++ {
		ev := NoEvidence
		if i == 0 {
			ev = 1
		}
		if _, err := b.AddVariable(Variable{
			Name: "v", Domain: 2, Evidence: ev,
			Loc: geom.Pt(float64(i), 0), HasLoc: true,
		}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i+1 < n; i++ {
		if implyW != 0 {
			if err := b.AddFactor(FactorImply, implyW, []VarID{VarID(i), VarID(i + 1)}, nil); err != nil {
				t.Fatal(err)
			}
		}
		if spatialW != 0 {
			if err := b.AddSpatialPairs([]SpatialPair{{A: VarID(i), B: VarID(i + 1), W: spatialW}}); err != nil {
				t.Fatal(err)
			}
		}
	}
	g, err := b.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestBuilderValidation(t *testing.T) {
	b := NewBuilder()
	if _, err := b.AddVariable(Variable{Domain: 1}); err == nil {
		t.Error("domain 1 should fail")
	}
	if _, err := b.AddVariable(Variable{Domain: 2, Evidence: 5}); err == nil {
		t.Error("out-of-domain evidence should fail")
	}
	v0, _ := b.AddVariable(Variable{Domain: 2, Evidence: NoEvidence, HasLoc: true})
	v1, _ := b.AddVariable(Variable{Domain: 2, Evidence: NoEvidence, HasLoc: true})
	v2, _ := b.AddVariable(Variable{Domain: 2, Evidence: NoEvidence, Relation: 1, HasLoc: true})
	if err := b.AddFactor(FactorImply, 1, []VarID{v0}, nil); err == nil {
		t.Error("unary imply should fail")
	}
	if err := b.AddFactor(FactorIsTrue, 1, []VarID{v0, v1}, nil); err == nil {
		t.Error("binary istrue should fail")
	}
	if err := b.AddFactor(FactorAnd, 1, nil, nil); err == nil {
		t.Error("empty factor should fail")
	}
	if err := b.AddFactor(FactorAnd, 1, []VarID{99}, nil); err == nil {
		t.Error("unknown var should fail")
	}
	if err := b.AddFactor(FactorAnd, 1, []VarID{v0, v1}, []bool{true}); err == nil {
		t.Error("neg length mismatch should fail")
	}
	if err := b.AddSpatialPairs([]SpatialPair{{A: v0, B: v0, W: 1}}); err == nil {
		t.Error("self pair should fail")
	}
	if err := b.AddSpatialPairs([]SpatialPair{{A: v0, B: v2, W: 1}}); err == nil {
		t.Error("cross-relation pair should fail")
	}
	if err := b.AddSpatialPairs([]SpatialPair{{A: v0, B: v1, W: -1}}); err == nil {
		t.Error("negative weight should fail")
	}
	if err := b.AddSpatialPairs([]SpatialPair{{A: v0, B: 99, W: 1}}); err == nil {
		t.Error("unknown var pair should fail")
	}
	if err := b.AddSpatialPairs([]SpatialPair{{A: v0, B: v1, W: 1}}); err != nil {
		t.Fatal(err)
	}
	// A batch with one bad pair appends none of its pairs.
	if err := b.AddSpatialPairs([]SpatialPair{{A: v1, B: v0, W: 1}, {A: v1, B: v1, W: 1}}); err == nil {
		t.Error("batch with a self pair should fail")
	}
	if err := b.SetAllowedPairs(0, 2, []bool{true}); err == nil {
		t.Error("wrong mask size should fail")
	}
	g, err := b.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	if n := g.NumSpatialFactors(); n != 1 {
		t.Errorf("spatial factors = %d, want the one valid pair", n)
	}
}

func TestFactorSemantics(t *testing.T) {
	b := NewBuilder()
	var ids []VarID
	for i := 0; i < 3; i++ {
		id, _ := b.AddVariable(Variable{Domain: 2, Evidence: NoEvidence})
		ids = append(ids, id)
	}
	check := func(kind FactorKind, vars []VarID, neg []bool, assign []int32, want bool) {
		t.Helper()
		bb := NewBuilder()
		for range ids {
			_, _ = bb.AddVariable(Variable{Domain: 2, Evidence: NoEvidence})
		}
		if err := bb.AddFactor(kind, 1, vars, neg); err != nil {
			t.Fatal(err)
		}
		g, err := bb.Finalize()
		if err != nil {
			t.Fatal(err)
		}
		if got := g.satisfied(0, assign, -1, 0); got != want {
			t.Errorf("%v vars=%v neg=%v assign=%v: satisfied=%v want %v", kind, vars, neg, assign, got, want)
		}
	}
	two := []VarID{0, 1}
	three := []VarID{0, 1, 2}
	// Imply: A => B.
	check(FactorImply, two, nil, []int32{1, 1, 0}, true)
	check(FactorImply, two, nil, []int32{1, 0, 0}, false)
	check(FactorImply, two, nil, []int32{0, 0, 0}, true)
	check(FactorImply, two, nil, []int32{0, 1, 0}, true)
	// Imply with two antecedents: A ∧ B => C.
	check(FactorImply, three, nil, []int32{1, 1, 0}, false)
	check(FactorImply, three, nil, []int32{1, 0, 0}, true)
	check(FactorImply, three, nil, []int32{1, 1, 1}, true)
	// Negated consequent: A => ¬B.
	check(FactorImply, two, []bool{false, true}, []int32{1, 1, 0}, false)
	check(FactorImply, two, []bool{false, true}, []int32{1, 0, 0}, true)
	// And / Or / Equal / IsTrue.
	check(FactorAnd, two, nil, []int32{1, 1, 0}, true)
	check(FactorAnd, two, nil, []int32{1, 0, 0}, false)
	check(FactorOr, two, nil, []int32{0, 1, 0}, true)
	check(FactorOr, two, nil, []int32{0, 0, 0}, false)
	check(FactorEqual, two, nil, []int32{1, 1, 0}, true)
	check(FactorEqual, two, nil, []int32{0, 1, 0}, false)
	check(FactorIsTrue, []VarID{1}, nil, []int32{0, 1, 0}, true)
	check(FactorIsTrue, []VarID{1}, []bool{true}, []int32{0, 1, 0}, false)
}

func TestSpatialEnergyBinary(t *testing.T) {
	g := buildChain(t, 2, 0, 0.8)
	assign := []int32{1, 1}
	if e := g.Energy(assign); math.Abs(e-0.8) > 1e-12 {
		t.Errorf("agree energy = %v, want 0.8", e)
	}
	assign = []int32{1, 0}
	if e := g.Energy(assign); math.Abs(e+0.8) > 1e-12 {
		t.Errorf("disagree energy = %v, want -0.8", e)
	}
}

func TestCategoricalPruningMask(t *testing.T) {
	b := NewBuilder()
	h := int32(3)
	v0, _ := b.AddVariable(Variable{Domain: h, Evidence: NoEvidence, HasLoc: true})
	v1, _ := b.AddVariable(Variable{Domain: h, Evidence: NoEvidence, HasLoc: true, Loc: geom.Pt(1, 0)})
	if err := b.AddSpatialPairs([]SpatialPair{{A: v0, B: v1, W: 0.5}}); err != nil {
		t.Fatal(err)
	}
	// Allow only (0,0) and (1,2).
	mask := make([]bool, h*h)
	mask[0*3+0] = true
	mask[1*3+2] = true
	if err := b.SetAllowedPairs(0, h, mask); err != nil {
		t.Fatal(err)
	}
	g, err := b.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	if e := g.Energy([]int32{0, 0}); e != 0.5 {
		t.Errorf("(0,0) energy = %v, want +0.5", e)
	}
	if e := g.Energy([]int32{1, 2}); e != -0.5 {
		t.Errorf("(1,2) energy = %v, want -0.5 (allowed, disagree)", e)
	}
	if e := g.Energy([]int32{2, 2}); e != 0 {
		t.Errorf("(2,2) energy = %v, want 0 (pruned)", e)
	}
	if e := g.Energy([]int32{2, 1}); e != 0 {
		t.Errorf("(2,1) energy = %v, want 0 (pruned)", e)
	}
	if got := g.CountGroundSpatialFactors(); got != 2 {
		t.Errorf("ground spatial factors = %d, want 2", got)
	}
}

func TestCountGroundSpatialFactorsUnpruned(t *testing.T) {
	g := buildChain(t, 3, 0, 1) // 2 pairs, h=2 → 8 ground factors
	if got := g.CountGroundSpatialFactors(); got != 8 {
		t.Errorf("ground factors = %d, want 8", got)
	}
}

func TestConditionalScoresMatchEnergyDelta(t *testing.T) {
	// For random graphs, the conditional score difference for a variable
	// must equal the full-energy difference (the locality property the
	// samplers rely on).
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 20; trial++ {
		b := NewBuilder()
		n := 6
		for i := 0; i < n; i++ {
			_, _ = b.AddVariable(Variable{
				Domain: 2, Evidence: NoEvidence,
				Loc: geom.Pt(rng.Float64()*10, rng.Float64()*10), HasLoc: true,
			})
		}
		kinds := []FactorKind{FactorImply, FactorAnd, FactorOr, FactorEqual}
		for f := 0; f < 8; f++ {
			a, c := VarID(rng.Intn(n)), VarID(rng.Intn(n))
			if a == c {
				continue
			}
			neg := []bool{rng.Intn(2) == 0, rng.Intn(2) == 0}
			if err := b.AddFactor(kinds[rng.Intn(len(kinds))], rng.NormFloat64(), []VarID{a, c}, neg); err != nil {
				t.Fatal(err)
			}
		}
		seen := map[[2]VarID]bool{}
		for s := 0; s < 5; s++ {
			a, c := VarID(rng.Intn(n)), VarID(rng.Intn(n))
			if a == c {
				continue
			}
			w := rng.Float64()
			if key := [2]VarID{min(a, c), max(a, c)}; !seen[key] {
				seen[key] = true
				if err := b.AddSpatialPairs([]SpatialPair{{A: a, B: c, W: w}}); err != nil {
					t.Fatal(err)
				}
			}
		}
		g, err := b.Finalize()
		if err != nil {
			t.Fatal(err)
		}
		assign := make([]int32, n)
		for i := range assign {
			assign[i] = int32(rng.Intn(2))
		}
		buf := make([]float64, 2)
		for v := VarID(0); v < VarID(n); v++ {
			scores := g.ConditionalScores(v, assign, buf)
			saved := assign[v]
			assign[v] = 0
			e0 := g.Energy(assign)
			assign[v] = 1
			e1 := g.Energy(assign)
			assign[v] = saved
			if math.Abs((scores[1]-scores[0])-(e1-e0)) > 1e-9 {
				t.Fatalf("trial %d var %d: score delta %v != energy delta %v",
					trial, v, scores[1]-scores[0], e1-e0)
			}
		}
	}
}

func TestInitialAssignment(t *testing.T) {
	g := buildChain(t, 4, 0.5, 0.5)
	a := g.InitialAssignment()
	if a[0] != 1 {
		t.Error("evidence not set")
	}
	for _, v := range a[1:] {
		if v != 0 {
			t.Error("query vars should start at 0")
		}
	}
}

func TestExactMarginalsSingleFactor(t *testing.T) {
	// One imply factor A => B with A observed true:
	// P(B=1) = e^w / (e^w + 1) since B=0 leaves the factor unsatisfied.
	b := NewBuilder()
	a, _ := b.AddVariable(Variable{Domain: 2, Evidence: 1})
	c, _ := b.AddVariable(Variable{Domain: 2, Evidence: NoEvidence})
	w := 1.3
	if err := b.AddFactor(FactorImply, w, []VarID{a, c}, nil); err != nil {
		t.Fatal(err)
	}
	g, err := b.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	m, err := ExactMarginals(g, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	want := math.Exp(w) / (math.Exp(w) + 1)
	if got := m[c][1]; math.Abs(got-want) > 1e-12 {
		t.Errorf("P(B) = %v, want %v", got, want)
	}
	// Evidence variable has a point mass.
	if m[a][1] != 1 || m[a][0] != 0 {
		t.Errorf("evidence marginal = %v", m[a])
	}
}

func TestExactMarginalsSpatialPair(t *testing.T) {
	// Spatial pair with one observed atom: P(agree) = e^w/(e^w+e^-w).
	b := NewBuilder()
	a, _ := b.AddVariable(Variable{Domain: 2, Evidence: 1, HasLoc: true})
	c, _ := b.AddVariable(Variable{Domain: 2, Evidence: NoEvidence, HasLoc: true, Loc: geom.Pt(1, 0)})
	w := 0.9
	if err := b.AddSpatialPairs([]SpatialPair{{A: a, B: c, W: w}}); err != nil {
		t.Fatal(err)
	}
	g, err := b.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	m, err := ExactMarginals(g, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	want := math.Exp(w) / (math.Exp(w) + math.Exp(-w))
	if got := m[c][1]; math.Abs(got-want) > 1e-12 {
		t.Errorf("P(agree) = %v, want %v", got, want)
	}
}

func TestExactMarginalsCap(t *testing.T) {
	g := buildChain(t, 30, 0.5, 0) // 29 query vars → 2^29 states
	if _, err := ExactMarginals(g, 1<<20); err == nil {
		t.Error("state cap should trigger")
	}
}

func TestGraphAccessors(t *testing.T) {
	g := buildChain(t, 3, 0.5, 0.7)
	if g.NumVars() != 3 || g.NumFactors() != 2 || g.NumSpatialFactors() != 2 {
		t.Fatalf("counts: %d %d %d", g.NumVars(), g.NumFactors(), g.NumSpatialFactors())
	}
	if g.FactorKindOf(0) != FactorImply || g.FactorWeightOf(0) != 0.5 {
		t.Error("factor metadata mismatch")
	}
	a, c, w := g.SpatialPair(0)
	if a != 0 || c != 1 || w != 0.7 {
		t.Errorf("spatial pair = %d %d %v", a, c, w)
	}
	// Middle variable touches both factors and both pairs.
	if len(g.VarLogicalFactors(1)) != 2 || len(g.VarSpatialPairs(1)) != 2 {
		t.Errorf("adjacency sizes: %d %d", len(g.VarLogicalFactors(1)), len(g.VarSpatialPairs(1)))
	}
	count := 0
	g.Vars(func(id VarID, v Variable) bool { count++; return true })
	if count != 3 {
		t.Errorf("Vars visited %d", count)
	}
	count = 0
	g.Vars(func(id VarID, v Variable) bool { count++; return false })
	if count != 1 {
		t.Errorf("early stop visited %d", count)
	}
}

func TestFactorKindString(t *testing.T) {
	for k, want := range map[FactorKind]string{
		FactorImply: "imply", FactorAnd: "and", FactorOr: "or",
		FactorEqual: "equal", FactorIsTrue: "istrue",
	} {
		if k.String() != want {
			t.Errorf("%d.String() = %q", k, k.String())
		}
	}
}

func TestDuplicateVarInFactorAdjacency(t *testing.T) {
	b := NewBuilder()
	v, _ := b.AddVariable(Variable{Domain: 2, Evidence: NoEvidence})
	u, _ := b.AddVariable(Variable{Domain: 2, Evidence: NoEvidence})
	if err := b.AddFactor(FactorImply, 1, []VarID{v, v}, nil); err != nil {
		t.Fatal(err)
	}
	if err := b.AddFactor(FactorImply, 1, []VarID{v, u}, nil); err != nil {
		t.Fatal(err)
	}
	g, err := b.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	if got := len(g.VarLogicalFactors(v)); got != 2 {
		t.Errorf("v adjacency = %d, want 2 (self-factor listed once)", got)
	}
}

// TestPairOpSize pins the two program records: a categorical table op at 12
// bytes and a log-odds entry, one neighbour's two cells, at 24.
func TestPairOpSize(t *testing.T) {
	if got := unsafe.Sizeof(pairOp{}); got != 12 {
		t.Fatalf("pairOp is %d bytes, want 12", got)
	}
	if got := unsafe.Sizeof(entry{}); got != 24 {
		t.Fatalf("entry is %d bytes, want 24", got)
	}
}
