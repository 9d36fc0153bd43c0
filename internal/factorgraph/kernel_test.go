package factorgraph_test

import (
	"fmt"
	"hash/fnv"
	"math"
	"slices"
	"testing"

	"repro/internal/factorgraph"
	"repro/internal/geom"
	"repro/internal/gibbs/testutil"
)

// equivCase is one graph of the equivalence corpus, run as subtest
// spec<index>_d<domain>. prepare, when set, runs before the kernels compile
// (live marks must precede compilation) and may change weights.
type equivCase struct {
	what    string // logged; subtest names stay positional
	spec    testutil.Spec
	build   func(t testing.TB) *factorgraph.Graph // overrides spec
	prepare func(t testing.TB, g *factorgraph.Graph)
}

// equivCases is the golden-equivalence corpus: the four canonical harness
// shapes plus denser/odder variants — larger categorical domains (up to
// h = 10, with and without a pruning mask), heavy, total and zero evidence,
// many factors (duplicate kinds, negations, self-referential IsTrue), pruning
// masks on categorical and on binary relations, live-marked evidence, arity-3
// factors with frozen slots, infinite weights — so the fold, the log-odds
// entry, the table op and the fallback record are all hit.
func equivCases() []equivCase {
	return []equivCase{
		{what: "binary", spec: testutil.Spec{Domain: 2, Seed: 101}},
		{what: "binary_spatial", spec: testutil.Spec{Domain: 2, Spatial: true, Seed: 102}},
		{what: "categorical", spec: testutil.Spec{Domain: 3, Seed: 103}},
		{what: "categorical_masked", spec: testutil.Spec{Domain: 3, Spatial: true, PruneMask: true, Seed: 104}},
		{what: "d4_dense_masked", spec: testutil.Spec{Domain: 4, Vars: 7, Spatial: true, PruneMask: true, LogicalFactors: 25, SpatialPairs: 20, Seed: 105}},
		{what: "half_evidence", spec: testutil.Spec{Domain: 2, Vars: 12, LogicalFactors: 40, EvidencePer1000: 500, Seed: 106}},
		{what: "d5_sparse_evidence", spec: testutil.Spec{Domain: 5, Vars: 6, Spatial: true, LogicalFactors: 18, SpatialPairs: 12, EvidencePer1000: 1, Seed: 107}},
		{what: "binary_spatial_dense", spec: testutil.Spec{Domain: 2, Vars: 10, Spatial: true, LogicalFactors: 30, SpatialPairs: 25, EvidencePer1000: 350, Seed: 108}},
		{what: "no_evidence", spec: testutil.Spec{Domain: 2, Vars: 10, Spatial: true, LogicalFactors: 30, SpatialPairs: 20, EvidencePer1000: -1, Seed: 109}},
		// Everything but the last variable is evidence: its program is empty
		// and its score is the bias alone.
		{what: "all_neighbours_evidence", spec: testutil.Spec{Domain: 2, Vars: 9, Spatial: true, LogicalFactors: 30, SpatialPairs: 20, EvidencePer1000: 1000, Seed: 110}},
		{what: "binary_masked", spec: testutil.Spec{Domain: 2, Vars: 10, Spatial: true, PruneMask: true, LogicalFactors: 20, SpatialPairs: 25, EvidencePer1000: 300, Seed: 111}},
		{
			what: "live_evidence",
			spec: testutil.Spec{Domain: 2, Vars: 12, Spatial: true, LogicalFactors: 40, SpatialPairs: 25, EvidencePer1000: 500, Seed: 112},
			prepare: func(t testing.TB, g *factorgraph.Graph) {
				// Every other evidence variable is a halo copy.
				var live []factorgraph.VarID
				n := 0
				g.Vars(func(id factorgraph.VarID, v factorgraph.Variable) bool {
					if v.Evidence != factorgraph.NoEvidence {
						if n%2 == 0 {
							live = append(live, id)
						}
						n++
					}
					return true
				})
				if len(live) == 0 {
					t.Fatal("spec has no evidence to mark live")
				}
				g.MarkLive(live)
			},
		},
		{what: "odd_shapes", build: oddShapesGraph},
		{
			what: "infinite_weights",
			spec: testutil.Spec{Domain: 2, Vars: 10, LogicalFactors: 30, EvidencePer1000: 400, Seed: 113},
			prepare: func(t testing.TB, g *factorgraph.Graph) {
				// +Inf on one factor that folds somewhere and on one that
				// stays dynamic somewhere (the same sign, so sums stay
				// Inf, not NaN).
				folded, dynamic := false, false
				for f := int32(0); f < int32(g.NumFactors()) && !(folded && dynamic); f++ {
					vars, _ := g.FactorVars(f)
					if len(vars) != 2 || vars[0] == vars[1] {
						continue
					}
					e0 := g.Var(vars[0]).Evidence != factorgraph.NoEvidence
					e1 := g.Var(vars[1]).Evidence != factorgraph.NoEvidence
					switch {
					case e0 != e1 && !folded:
						folded = true
						g.SetFactorWeight(f, math.Inf(1))
					case !e0 && !e1 && !dynamic:
						dynamic = true
						g.SetFactorWeight(f, math.Inf(1))
					}
				}
				if !folded || !dynamic {
					t.Fatal("spec has no folded and dynamic two-slot factor")
				}
			},
		},
		{what: "d10_spatial", spec: testutil.Spec{Domain: 10, Vars: 8, Spatial: true, LogicalFactors: 20, SpatialPairs: 16, EvidencePer1000: 250, Seed: 114}},
		{what: "d10_masked", spec: testutil.Spec{Domain: 10, Vars: 8, Spatial: true, PruneMask: true, LogicalFactors: 20, SpatialPairs: 16, EvidencePer1000: 250, Seed: 115}},
		{what: "d3_spatial", spec: testutil.Spec{Domain: 3, Vars: 8, Spatial: true, LogicalFactors: 14, SpatialPairs: 12, EvidencePer1000: 300, Seed: 116}},
	}
}

// oddShapesGraph is a hand-built binary graph of the shapes the random
// generator does not draw: arity-3 factors with two, one and no frozen slots,
// a variable in both slots of a factor, a unary equal, an equal against
// categorical evidence and against a categorical query variable, and a
// binary and a categorical relation under asymmetric pruning masks.
func oddShapesGraph(t testing.TB) *factorgraph.Graph {
	t.Helper()
	b := factorgraph.NewBuilder()
	add := func(name string, domain, evidence int32, rel int32) factorgraph.VarID {
		id, err := b.AddVariable(factorgraph.Variable{
			Name: name, Domain: domain, Evidence: evidence, Relation: rel,
			HasLoc: true, Loc: geom.Pt(float64(b.NumVars()), 1),
		})
		if err != nil {
			t.Fatal(err)
		}
		return id
	}
	const q = factorgraph.NoEvidence
	q0, q1, q2, q3 := add("q0", 2, q, 0), add("q1", 2, q, 0), add("q2", 2, q, 0), add("q3", 2, q, 0)
	e0, e1 := add("e0", 2, 1, 0), add("e1", 2, 0, 0)
	c0, c1 := add("c0", 3, 2, 1), add("c1", 3, q, 1)
	factor := func(kind factorgraph.FactorKind, w float64, vars []factorgraph.VarID, neg []bool) {
		if err := b.AddFactor(kind, w, vars, neg); err != nil {
			t.Fatal(err)
		}
	}
	factor(factorgraph.FactorImply, 0.7, []factorgraph.VarID{e0, e1, q0}, []bool{false, true, false})
	factor(factorgraph.FactorImply, -0.6, []factorgraph.VarID{e0, q1, q0}, []bool{false, true, false})
	factor(factorgraph.FactorOr, 0.45, []factorgraph.VarID{q0, q1, q2}, []bool{true, false, false})
	factor(factorgraph.FactorAnd, 0.35, []factorgraph.VarID{q1, e0, q1}, []bool{false, false, true})
	factor(factorgraph.FactorAnd, -0.4, []factorgraph.VarID{q1, q1}, []bool{false, true})
	factor(factorgraph.FactorImply, 0.8, []factorgraph.VarID{q2, q2}, nil)
	factor(factorgraph.FactorEqual, 0.2, []factorgraph.VarID{q3}, nil)
	factor(factorgraph.FactorEqual, 0.9, []factorgraph.VarID{q2, q3, e1}, nil)
	factor(factorgraph.FactorEqual, 0.3, []factorgraph.VarID{q3, c0}, nil)
	factor(factorgraph.FactorEqual, -0.5, []factorgraph.VarID{c1, q3}, nil)
	factor(factorgraph.FactorOr, 0.25, []factorgraph.VarID{q0, c1}, []bool{true, false})
	factor(factorgraph.FactorAnd, 0.15, []factorgraph.VarID{c0, q1}, nil)
	// (1, 0) and (1, 1) as (A's value, B's value) are pruned: which endpoint
	// a variable is matters.
	if err := b.SetAllowedPairs(0, 2, []bool{true, true, false, false}); err != nil {
		t.Fatal(err)
	}
	if err := b.SetAllowedPairs(1, 3, []bool{true, false, true, true, true, false, false, true, true}); err != nil {
		t.Fatal(err)
	}
	for _, p := range [][2]factorgraph.VarID{{q0, q1}, {q2, q0}, {q1, e0}, {e1, q2}, {q3, q2}, {e0, q3}} {
		if err := b.AddSpatialPairs([]factorgraph.SpatialPair{{A: p[0], B: p[1], W: 0.1 + 0.1*float64(p[0])}}); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.AddSpatialPairs([]factorgraph.SpatialPair{{A: c0, B: c1, W: 0.3}}); err != nil {
		t.Fatal(err)
	}
	g, err := b.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func (c equivCase) graph(t testing.TB) *factorgraph.Graph {
	t.Helper()
	var g *factorgraph.Graph
	if c.build != nil {
		g = c.build(t)
	} else {
		var err error
		if g, err = testutil.RandomGraph(c.spec); err != nil {
			t.Fatalf("RandomGraph: %v", err)
		}
	}
	if c.prepare != nil {
		c.prepare(t, g)
	}
	return g
}

// randomAssignment fills every variable, evidence included: the programs that
// fold nothing must agree with the interpreted walk on any state (weight
// learning's model chain frees evidence).
func randomAssignment(g *factorgraph.Graph, rng *testutil.Rand) factorgraph.Assignment {
	a := make(factorgraph.Assignment, g.NumVars())
	for i := range a {
		a[i] = int32(rng.Intn(int(g.DomainOf(factorgraph.VarID(i)))))
	}
	return a
}

// reachableAssignment is a state a sampler can be in: frozen variables hold
// their evidence value, query and live variables anything.
func reachableAssignment(g *factorgraph.Graph, rng *testutil.Rand) factorgraph.Assignment {
	a := randomAssignment(g, rng)
	for i := range a {
		if v := factorgraph.VarID(i); g.Frozen(v) {
			a[i] = g.Var(v).Evidence
		}
	}
	return a
}

// regroupedReference is the specification of a binary log-odds program,
// written against the exported interpreted evaluators only. An incidence's
// term is what it adds to candidate 0 minus what it adds to candidate 1. The
// incidence is constant when no slot other than v can change — going by
// Variable.Evidence and the live marks alone under fold, and only when there
// is no other slot at all without it — a fallback when a logical factor has
// two or more slots that can change or a categorical one, and otherwise
// belongs to its one neighbour. The bias sums the constant terms in score
// order (VarLogicalFactors, then VarSpatialPairs) from +0; a neighbour's cell
// at o sums its terms, with the neighbour at o, in score order; the log-odds
// is the bias plus, in order of first appearance, each neighbour's cell at its
// value and each fallback's term. It also returns the incidence count and
// Σ|w|, the terms of the regrouping error bound.
func regroupedReference(g *factorgraph.Graph, v factorgraph.VarID, assign factorgraph.Assignment, fold bool) (d float64, n int, sumAbs float64) {
	canChange := func(u factorgraph.VarID) bool {
		return u != v && (!fold || g.Var(u).Evidence == factorgraph.NoEvidence || g.Live(u))
	}
	ref := assign.Clone()
	// term evaluates factor id, or spatial pair id, under ref.
	term := func(id int32, spatial bool) float64 {
		var a [2]float64
		for x := int32(0); x < 2; x++ {
			ref[v] = x
			if spatial {
				_, _, w := g.SpatialPair(id)
				switch g.SpatialAgreement(id, ref) {
				case 1:
					a[x] = w
				case -1:
					a[x] = -w
				}
			} else if g.FactorSatisfied(id, ref) {
				a[x] = g.FactorWeightOf(id)
			}
		}
		return a[0] - a[1]
	}
	type item struct {
		fallback bool
		id       int32             // a fallback's factor
		nbr      factorgraph.VarID // otherwise the neighbour
		cell     [2]float64
	}
	var bias float64
	var items []item
	slot := map[factorgraph.VarID]int{}
	visit := func(id int32, spatial bool, slots []factorgraph.VarID, w float64) {
		n++
		sumAbs += math.Abs(w)
		var live []factorgraph.VarID
		for _, u := range slots {
			if canChange(u) && !slices.Contains(live, u) {
				live = append(live, u)
			}
		}
		switch {
		case len(live) == 0:
			bias += term(id, spatial)
		case len(live) > 1 || g.DomainOf(live[0]) != 2:
			items = append(items, item{id: id, fallback: true})
		default:
			a := live[0]
			i, ok := slot[a]
			if !ok {
				i, slot[a] = len(items), len(items)
				items = append(items, item{nbr: a})
			}
			for o := int32(0); o < 2; o++ {
				ref[a] = o
				items[i].cell[o] += term(id, spatial)
			}
			ref[a] = assign[a]
		}
	}
	for _, f := range g.VarLogicalFactors(v) {
		vars, _ := g.FactorVars(f)
		visit(f, false, vars, g.FactorWeightOf(f))
	}
	for _, p := range g.VarSpatialPairs(v) {
		a, b, w := g.SpatialPair(p)
		visit(p, true, []factorgraph.VarID{a, b}, w)
	}
	d = bias
	for _, it := range items {
		if it.fallback {
			d += term(it.id, false)
		} else {
			d += it.cell[assign[it.nbr]&1]
		}
	}
	return d, n, sumAbs
}

// checkBinaryScores holds one binary log-odds to both statements of the
// program form: exactly the regrouped reference, and within the regrouping
// bound 16·n·2⁻⁵³·Σ|wᵢ| of the plain interpreted s0 − s1. ConditionalScores
// must return {log-odds, 0}.
func checkBinaryScores(t testing.TB, g *factorgraph.Graph, k *factorgraph.Kernels, v factorgraph.VarID, assign factorgraph.Assignment, fold bool) {
	t.Helper()
	got := k.BinaryLogOdds(v, assign)
	ref, n, sumAbs := regroupedReference(g, v, assign, fold)
	if math.Float64bits(got) != math.Float64bits(ref) {
		t.Fatalf("var %d (fold %v): compiled log-odds %v [%x] vs regrouped reference %v [%x]", v, fold,
			got, math.Float64bits(got), ref, math.Float64bits(ref))
	}
	var buf [2]float64
	if sc := k.ConditionalScores(v, assign, buf[:]); math.Float64bits(sc[0]) != math.Float64bits(got) || sc[1] != 0 {
		t.Fatalf("var %d: ConditionalScores = %v, want {%v, 0}", v, sc, got)
	}
	s0, s1 := g.BinaryConditionalScores(v, assign)
	want := s0 - s1
	bound := 16 * float64(n) * 0x1p-53 * sumAbs
	if math.IsInf(bound, 0) {
		// An infinite weight: the two must agree as Inf or NaN.
		if got != want && !(math.IsNaN(got) && math.IsNaN(want)) {
			t.Fatalf("var %d: compiled log-odds %v vs interpreted %v", v, got, want)
		}
		return
	}
	if math.Abs(got-want) > bound {
		t.Fatalf("var %d: compiled log-odds %v vs interpreted %v differ by %g, bound %g",
			v, got, want, math.Abs(got-want), bound)
	}
}

// checkPair holds the pair walk to the single one: BinaryLogOddsPair(v, a, b)
// must be (BinaryLogOdds(v, a), BinaryLogOdds(v, b)) under Float64bits. It
// scores the pair first, so after a weight update the pair's own refold is
// what the singles are compared against.
func checkPair(t testing.TB, k *factorgraph.Kernels, v factorgraph.VarID, a, b factorgraph.Assignment) {
	t.Helper()
	da, db := k.BinaryLogOddsPair(v, a, b)
	wa, wb := k.BinaryLogOdds(v, a), k.BinaryLogOdds(v, b)
	if math.Float64bits(da) != math.Float64bits(wa) || math.Float64bits(db) != math.Float64bits(wb) {
		t.Fatalf("var %d: BinaryLogOddsPair = (%v, %v), BinaryLogOdds twice = (%v, %v)", v, da, db, wa, wb)
	}
}

// checkExactScores holds one categorical variable's scores to ==, not within
// epsilon, with the interpreted walk.
func checkExactScores(t testing.TB, g *factorgraph.Graph, k *factorgraph.Kernels, v factorgraph.VarID, assign factorgraph.Assignment) {
	t.Helper()
	var wantBuf, gotBuf [16]float64
	want := g.ConditionalScores(v, assign, wantBuf[:])
	got := k.ConditionalScores(v, assign, gotBuf[:])
	if len(want) != len(got) {
		t.Fatalf("var %d: domain mismatch %d vs %d", v, len(want), len(got))
	}
	for x := range want {
		if math.Float64bits(want[x]) != math.Float64bits(got[x]) {
			t.Fatalf("var %d candidate %d: interpreted %v (bits %x) vs compiled %v (bits %x)",
				v, x, want[x], math.Float64bits(want[x]), got[x], math.Float64bits(got[x]))
		}
	}
}

// checkKernels holds both program sets of g to their contracts at every
// variable: categorical variables of either set to == with the interpreted
// walk on an arbitrary assignment; binary variables to the regrouped
// reference and the regrouping bound — the nothing-frozen set's on the
// arbitrary assignment, the folded set's on a reachable one — and, in either
// set, the pair walk over both assignments to the single walk twice.
func checkKernels(t testing.TB, g *factorgraph.Graph, k, exact *factorgraph.Kernels, assign, reachable factorgraph.Assignment) {
	t.Helper()
	for v := factorgraph.VarID(0); int(v) < g.NumVars(); v++ {
		if k.Binary(v) != (g.DomainOf(v) == 2) || exact.Binary(v) != k.Binary(v) {
			t.Fatalf("var %d: Binary = %v / %v with domain %d", v, k.Binary(v), exact.Binary(v), g.DomainOf(v))
		}
		if k.Binary(v) {
			checkPair(t, exact, v, assign, reachable)
			checkPair(t, k, v, reachable, assign)
			checkBinaryScores(t, g, exact, v, assign, false)
			checkBinaryScores(t, g, k, v, reachable, true)
		} else {
			checkExactScores(t, g, exact, v, assign)
			checkExactScores(t, g, k, v, assign)
		}
	}
}

// TestKernelsMatchInterpretedBitForBit is the golden equivalence gate of the
// compiled sampling kernels. Every categorical program, in either set, must
// agree with the interpreted evaluator exactly (==, not within epsilon) on
// arbitrary assignments. The binary log-odds programs regroup the
// interpreted s0 − s1, so they are checked twice: exactly against the
// regrouped reference, and closely against the plain interpreted walk — the
// nothing-frozen set's on arbitrary assignments, the folded set's, which fold
// frozen endpoints away, on reachable ones. Together these let the compiled
// path inherit the TV-vs-exact statistical harness and the worker-invariance
// tests without re-validation.
func TestKernelsMatchInterpretedBitForBit(t *testing.T) {
	for i, c := range equivCases() {
		c := c
		t.Run(fmt.Sprintf("spec%d_d%d", i, max(c.spec.Domain, 2)), func(t *testing.T) {
			g := c.graph(t)
			k := g.Kernels()
			if k != g.Kernels() {
				t.Fatal("Kernels() is not cached")
			}
			exact := factorgraph.CompileKernels(g, false)
			st := k.Stats()
			t.Logf("%s: %+v; nothing frozen: %+v", c.what, st, exact.Stats())
			if st.Ops == 0 || st.Vars != g.NumVars() || st.SlabBytes <= 0 {
				t.Fatalf("implausible kernel stats: %+v", st)
			}
			if est := exact.Stats(); est.FoldedOps != 0 || est.Ops != st.Ops {
				t.Fatalf("nothing-frozen set folded %d of %d ops", est.FoldedOps, est.Ops)
			}
			rng := testutil.NewRand(c.spec.Seed ^ 0xdead)
			for trial := 0; trial < 200; trial++ {
				checkKernels(t, g, k, exact, randomAssignment(g, rng), reachableAssignment(g, rng))
			}
		})
	}
}

// TestKernelsFollowWeightUpdates asserts that weight updates through
// SetFactorWeight/SetSpatialWeight reach already-compiled kernels without
// recompilation — the property weight learning relies on — in both program
// sets: table ops read their weight by index, and the baked biases and
// log-odds entries are refolded before the next binary score, in a pass that
// allocates nothing. A binary graph, a categorical one, and a subgraph whose
// halo copies are live.
func TestKernelsFollowWeightUpdates(t *testing.T) {
	for _, spec := range []testutil.Spec{
		{Domain: 2, Vars: 10, Spatial: true, LogicalFactors: 30, SpatialPairs: 25, EvidencePer1000: 400, Seed: 42},
		{Domain: 3, Vars: 8, Spatial: true, PruneMask: true, LogicalFactors: 20, SpatialPairs: 16, EvidencePer1000: 400, Seed: 43},
		{Domain: 2, Vars: 16, Spatial: true, LogicalFactors: 40, SpatialPairs: 40, EvidencePer1000: 250, Seed: 44},
	} {
		g, err := testutil.RandomGraph(spec)
		if err != nil {
			t.Fatalf("RandomGraph: %v", err)
		}
		if spec.Seed == 44 {
			// Half the variables as interior, the other half's neighbours
			// as live halo copies, as a shard builds them.
			var interior []factorgraph.VarID
			for v := factorgraph.VarID(0); int(v) < g.NumVars(); v += 2 {
				interior = append(interior, v)
			}
			sub, err := factorgraph.Sub(g, interior, func(factorgraph.VarID) int32 { return 1 })
			if err != nil {
				t.Fatal(err)
			}
			if len(sub.Halo) == 0 {
				t.Fatal("test premise broken: the subgraph has no halo")
			}
			g = sub.Graph
			g.MarkLive(sub.Halo)
		}
		k, exact := g.Kernels(), factorgraph.CompileKernels(g, false)
		if st := k.Stats(); spec.Domain == 2 && (st.FoldedOps == 0 || st.FoldedOps == st.Ops) {
			t.Fatalf("want folded and dynamic ops in this graph, have %+v", st)
		}
		rng := testutil.NewRand(7)
		assign := randomAssignment(g, rng)
		reachable := reachableAssignment(g, rng)
		for round := 0; round < 3; round++ {
			// Score first, so every round's biases and entries were baked
			// under the previous round's weights.
			checkKernels(t, g, k, exact, assign, reachable)
			for f := int32(0); f < int32(g.NumFactors()); f++ {
				g.SetFactorWeight(f, g.FactorWeightOf(f)*1.7+0.3)
			}
			for s := int32(0); s < int32(g.NumSpatialFactors()); s++ {
				_, _, w := g.SpatialPair(s)
				g.SetSpatialWeight(s, w*2.1+0.1)
			}
		}
		checkKernels(t, g, k, exact, assign, reachable)
		if allocs := testing.AllocsPerRun(20, func() {
			g.SetFactorWeight(0, -g.FactorWeightOf(0))
			k.BinaryLogOdds(0, reachable)
			exact.BinaryLogOdds(0, assign)
		}); allocs != 0 {
			t.Errorf("seed %d: a refold allocates %v times", spec.Seed, allocs)
		}
	}
}

// TestBinaryLogOddsPairRefoldAllocatesNothing: after a weight update the pair
// walk refolds the stale biases and entries itself, in either program set,
// without allocating, on a graph with live halo copies.
func TestBinaryLogOddsPairRefoldAllocatesNothing(t *testing.T) {
	var g *factorgraph.Graph
	for _, c := range equivCases() {
		if c.what == "live_evidence" {
			g = c.graph(t)
		}
	}
	k, exact := g.Kernels(), factorgraph.CompileKernels(g, false)
	rng := testutil.NewRand(3)
	a, b := reachableAssignment(g, rng), reachableAssignment(g, rng)
	vars, _ := g.FactorVars(0)
	if allocs := testing.AllocsPerRun(20, func() {
		g.SetFactorWeight(0, -g.FactorWeightOf(0))
		k.BinaryLogOddsPair(vars[0], a, b)
		exact.BinaryLogOddsPair(vars[0], a, b)
	}); allocs != 0 {
		t.Errorf("a refold through the pair walk allocates %v times", allocs)
	}
	for f := int32(0); f < int32(g.NumFactors()); f++ {
		g.SetFactorWeight(f, g.FactorWeightOf(f)*1.5+0.25)
	}
	for v := factorgraph.VarID(0); int(v) < g.NumVars(); v++ {
		if k.Binary(v) {
			checkPair(t, k, v, a, b)
			checkPair(t, exact, v, b, a)
		}
	}
}

// TestKernelsGenericFallback covers the shapes with no named op: arity-3
// factors, a variable in both slots of a factor, unary equal. At every
// variable only the arity-3 factors with two endpoints that can still change
// keep a run-time fallback record; the self-pair and the unary equal are
// constants of the variable — folded at binary variables, ops whose table
// ignores the other endpoint at categorical ones. All must still match the
// interpreted walk.
func TestKernelsGenericFallback(t *testing.T) {
	for _, domain := range []int32{3, 2} {
		domain := domain
		t.Run(fmt.Sprintf("domain%d", domain), func(t *testing.T) {
			b := factorgraph.NewBuilder()
			var ids []factorgraph.VarID
			for i := 0; i < 4; i++ {
				id, err := b.AddVariable(factorgraph.Variable{
					Name: fmt.Sprintf("q%d", i), Domain: domain, Evidence: factorgraph.NoEvidence,
				})
				if err != nil {
					t.Fatal(err)
				}
				ids = append(ids, id)
			}
			if err := b.AddFactor(factorgraph.FactorImply, 0.7,
				[]factorgraph.VarID{ids[0], ids[1], ids[2]}, []bool{false, true, false}); err != nil {
				t.Fatal(err)
			}
			if err := b.AddFactor(factorgraph.FactorAnd, -0.4,
				[]factorgraph.VarID{ids[1], ids[1]}, []bool{false, true}); err != nil {
				t.Fatal(err)
			}
			if err := b.AddFactor(factorgraph.FactorEqual, 0.9,
				[]factorgraph.VarID{ids[2], ids[3], ids[0]}, nil); err != nil {
				t.Fatal(err)
			}
			if err := b.AddFactor(factorgraph.FactorEqual, 0.2,
				[]factorgraph.VarID{ids[3]}, nil); err != nil {
				t.Fatal(err)
			}
			g, err := b.Finalize()
			if err != nil {
				t.Fatal(err)
			}
			k := g.Kernels()
			st := k.Stats()
			if domain == 2 {
				// Two arity-3 factors × three endpoints fall back; the
				// self-pair at q1 and the unary equal at q3 fold.
				if st.Ops != 8 || st.GenericOps != 6 || st.FoldedOps != 2 {
					t.Fatalf("ops/generic/folded = %d/%d/%d, want 8/6/2", st.Ops, st.GenericOps, st.FoldedOps)
				}
			} else if st.GenericOps != 6 || st.FoldedOps != 0 {
				// The same six arity-3 fallbacks; nothing folds.
				t.Fatalf("generic/folded = %d/%d at categorical variables, want 6/0", st.GenericOps, st.FoldedOps)
			}
			exact := factorgraph.CompileKernels(g, false)
			rng := testutil.NewRand(99)
			for trial := 0; trial < 100; trial++ {
				assign := randomAssignment(g, rng)
				checkKernels(t, g, k, exact, assign, assign)
			}
		})
	}
}

// TestMarkLiveAfterCompilePanics pins the one ordering rule of the live
// mark: the programs fold whatever is frozen when they compile, so a mark
// that arrives later must fail loudly rather than be ignored.
func TestMarkLiveAfterCompilePanics(t *testing.T) {
	g, err := testutil.RandomGraph(testutil.Spec{Domain: 2, EvidencePer1000: 500, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	g.Kernels()
	defer func() {
		if recover() == nil {
			t.Fatal("MarkLive after Kernels() did not panic")
		}
	}()
	g.MarkLive([]factorgraph.VarID{0})
}

// fuzzGraph decodes bytes into a small graph for FuzzKernels; every input
// decodes to one. Layout, one byte each unless stated: the variable count
// (1 + b%12); per variable, its domain (2 + (b&3)%3; one relation per domain, so
// spatial pairs join equal domains), an evidence flag (0x10) and value
// (b>>5), and a live mark on evidence (0x08); a bit per domain 2–4 for a
// pruning mask, then that mask's h² bits; the factor count (b%25) and per
// factor its kind ((b&7)%5) and arity (1 + (b>>3)%3), its slots, a negation
// byte and a weight (int8/32); the spatial pair count (b%25) and per pair
// two endpoints and a weight (b/128). Slots may repeat a variable.
func fuzzGraph(data []byte) (*factorgraph.Graph, error) {
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	b := factorgraph.NewBuilder()
	n := 1 + int(next())%12
	var live []factorgraph.VarID
	for i := 0; i < n; i++ {
		d := next()
		v := factorgraph.Variable{Domain: 2 + int32(d&3)%3, Evidence: factorgraph.NoEvidence,
			HasLoc: true, Loc: geom.Pt(float64(i), 0)}
		v.Relation = v.Domain
		if d&0x10 != 0 {
			v.Evidence = int32(d>>5) % v.Domain
			if d&0x08 != 0 {
				live = append(live, factorgraph.VarID(i))
			}
		}
		if _, err := b.AddVariable(v); err != nil {
			return nil, err
		}
	}
	masks := next()
	for h := int32(2); h <= 4; h++ {
		if masks>>(h-2)&1 == 0 {
			continue
		}
		mask := make([]bool, h*h)
		var bits byte
		for i := range mask {
			if i%8 == 0 {
				bits = next()
			}
			mask[i] = bits>>(i%8)&1 == 1
		}
		if err := b.SetAllowedPairs(h, h, mask); err != nil {
			return nil, err
		}
	}
	for f := int(next()) % 25; f > 0; f-- {
		k := next()
		kind, arity := factorgraph.FactorKind((k&7)%5), 1+int(k>>3)%3
		switch {
		case kind == factorgraph.FactorIsTrue:
			arity = 1
		case kind == factorgraph.FactorImply && arity == 1:
			arity = 2
		}
		vars, neg := make([]factorgraph.VarID, arity), make([]bool, arity)
		for i := range vars {
			vars[i] = factorgraph.VarID(int(next()) % n)
		}
		negs := next()
		for i := range neg {
			neg[i] = negs>>i&1 == 1
		}
		if err := b.AddFactor(kind, float64(int8(next()))/32, vars, neg); err != nil {
			return nil, err
		}
	}
	seen := map[[2]factorgraph.VarID]bool{}
	for s := int(next()) % 25; s > 0; s-- {
		a, c := factorgraph.VarID(int(next())%n), factorgraph.VarID(int(next())%n)
		w := float64(next()) / 128
		// Self, cross-relation and duplicate pairs are rejected: skip them.
		key := [2]factorgraph.VarID{min(a, c), max(a, c)}
		if !seen[key] && b.AddSpatialPairs([]factorgraph.SpatialPair{{A: a, B: c, W: w}}) == nil {
			seen[key] = true
		}
	}
	g, err := b.Finalize()
	if err != nil {
		return nil, err
	}
	g.MarkLive(live)
	return g, nil
}

// fuzzEncode is fuzzGraph's inverse up to its limits (12 variables, domains
// folded into 2–4, 24 factors and pairs, quantized weights), for seeding the
// corpus from equivCases.
func fuzzEncode(g *factorgraph.Graph) []byte {
	n := min(g.NumVars(), 12)
	dom := func(v factorgraph.VarID) int32 { return 2 + (g.DomainOf(v)-2)%3 }
	out := []byte{byte(n - 1)}
	for i := 0; i < n; i++ {
		v := factorgraph.VarID(i)
		d := byte(dom(v) - 2)
		if ev := g.Var(v).Evidence; ev != factorgraph.NoEvidence {
			d |= 0x10 | byte(ev%dom(v))<<5
			if g.Live(v) {
				d |= 0x08
			}
		}
		out = append(out, d)
	}
	var masks [5][]bool
	var maskBits byte
	g.Vars(func(id factorgraph.VarID, v factorgraph.Variable) bool {
		if mask, h := g.AllowedPairMask(v.Relation); mask != nil && h == dom(id) && int(id) < n {
			masks[h], maskBits = mask, maskBits|1<<(h-2)
		}
		return true
	})
	out = append(out, maskBits)
	for h := 2; h <= 4; h++ {
		for i, ok := range masks[h] {
			if i%8 == 0 {
				out = append(out, 0)
			}
			if ok {
				out[len(out)-1] |= 1 << (i % 8)
			}
		}
	}
	inRange := func(vars ...factorgraph.VarID) bool {
		for _, v := range vars {
			if int(v) >= n {
				return false
			}
		}
		return true
	}
	weight := func(w float64) byte { return byte(int8(math.Max(-128, math.Min(127, math.Round(w*32))))) }
	var factors []byte
	count := 0
	for f := int32(0); f < int32(g.NumFactors()) && count < 24; f++ {
		vars, neg := g.FactorVars(f)
		if len(vars) > 3 || !inRange(vars...) {
			continue
		}
		var negs byte
		for i, ng := range neg {
			if ng {
				negs |= 1 << i
			}
		}
		factors = append(factors, byte(g.FactorKindOf(f))|byte(len(vars)-1)<<3)
		for _, v := range vars {
			factors = append(factors, byte(v))
		}
		factors = append(factors, negs, weight(g.FactorWeightOf(f)))
		count++
	}
	out = append(append(out, byte(count)), factors...)
	var pairs []byte
	count = 0
	for s := int32(0); s < int32(g.NumSpatialFactors()) && count < 24; s++ {
		a, c, w := g.SpatialPair(s)
		if inRange(a, c) {
			pairs = append(pairs, byte(a), byte(c), byte(math.Min(255, w*128)))
			count++
		}
	}
	return append(append(out, byte(count)), pairs...)
}

// r3ShapeGraph is the neighbourhood NYCCAS's R3 grounds: around a ring of
// query cells with one evidence cell, each pair of neighbours carries an
// imply each way plus a spatial pair, so one log-odds entry sums three
// incidences, and a unary prior adds a constant.
func r3ShapeGraph(t testing.TB) *factorgraph.Graph {
	t.Helper()
	b := factorgraph.NewBuilder()
	const n = 5
	for i := 0; i < n; i++ {
		ev := factorgraph.NoEvidence
		if i == n-1 {
			ev = 1
		}
		if _, err := b.AddVariable(factorgraph.Variable{Domain: 2, Evidence: ev, HasLoc: true, Loc: geom.Pt(float64(i), 0)}); err != nil {
			t.Fatal(err)
		}
	}
	for i := factorgraph.VarID(0); i < n; i++ {
		j := (i + 1) % n
		for _, p := range [][2]factorgraph.VarID{{i, j}, {j, i}} {
			if err := b.AddFactor(factorgraph.FactorImply, 0.5, p[:], nil); err != nil {
				t.Fatal(err)
			}
		}
		if err := b.AddSpatialPairs([]factorgraph.SpatialPair{{A: i, B: j, W: 0.375}}); err != nil {
			t.Fatal(err)
		}
		if err := b.AddFactor(factorgraph.FactorIsTrue, 0.75, []factorgraph.VarID{i}, []bool{i%2 == 1}); err != nil {
			t.Fatal(err)
		}
	}
	g, err := b.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// FuzzKernels compiles decoded graphs — domains 2–4, arities 1–3, negations,
// repeated slots, pruning masks, evidence and live marks — and holds both
// program sets to their contracts (checkKernels) on arbitrary and reachable
// assignments drawn from the input: no panic, == with the interpreted walk at
// categorical variables, the regrouped reference under Float64bits and the
// regrouping bound at binary ones. Then every weight moves by an amount drawn
// from the input, and the same assignments are checked again: the refolded
// log-odds must follow.
func FuzzKernels(f *testing.F) {
	for _, c := range equivCases() {
		f.Add(fuzzEncode(c.graph(f)))
	}
	f.Add(fuzzEncode(r3ShapeGraph(f)))
	f.Fuzz(func(t *testing.T, data []byte) {
		h := fnv.New64a()
		h.Write(data)
		g, err := fuzzGraph(data)
		if err != nil {
			t.Fatalf("decoded graph does not build: %v", err)
		}
		k, exact := g.Kernels(), factorgraph.CompileKernels(g, false)
		rng := testutil.NewRand(h.Sum64())
		var trials [][2]factorgraph.Assignment
		for trial := 0; trial < 4; trial++ {
			assign, reachable := randomAssignment(g, rng), reachableAssignment(g, rng)
			checkKernels(t, g, k, exact, assign, reachable)
			trials = append(trials, [2]factorgraph.Assignment{assign, reachable})
		}
		for fi := int32(0); fi < int32(g.NumFactors()); fi++ {
			g.SetFactorWeight(fi, g.FactorWeightOf(fi)*float64(rng.Intn(7)-3)/2+float64(rng.Intn(9)-4)/8)
		}
		for s := int32(0); s < int32(g.NumSpatialFactors()); s++ {
			_, _, w := g.SpatialPair(s)
			g.SetSpatialWeight(s, w*float64(rng.Intn(7)-3)/2+float64(rng.Intn(9)-4)/8)
		}
		for _, tr := range trials {
			checkKernels(t, g, k, exact, tr[0], tr[1])
		}
	})
}
