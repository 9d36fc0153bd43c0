package gibbs

import (
	"context"
	"math"
	"strings"
	"testing"

	"repro/internal/factorgraph"
	"repro/internal/geom"
)

// smallSpatialGraph builds a compact spatial graph with known exact
// marginals: a 3×3 grid of binary spatial atoms, the center observed true,
// neighbours linked by spatial pairs and a few imply factors.
func smallSpatialGraph(t testing.TB) *factorgraph.Graph {
	t.Helper()
	b := factorgraph.NewBuilder()
	ids := map[[2]int]factorgraph.VarID{}
	for y := 0; y < 3; y++ {
		for x := 0; x < 3; x++ {
			ev := factorgraph.NoEvidence
			if x == 1 && y == 1 {
				ev = 1
			}
			id, err := b.AddVariable(factorgraph.Variable{
				Name: "v", Domain: 2, Evidence: ev,
				Loc: geom.Pt(float64(x)*10, float64(y)*10), HasLoc: true,
			})
			if err != nil {
				t.Fatal(err)
			}
			ids[[2]int{x, y}] = id
		}
	}
	// Spatial pairs between 4-neighbours, weight decaying with distance
	// (all distances equal here, so constant weight).
	for y := 0; y < 3; y++ {
		for x := 0; x < 3; x++ {
			if x+1 < 3 {
				if err := b.AddSpatialPairs([]factorgraph.SpatialPair{{A: ids[[2]int{x, y}], B: ids[[2]int{x + 1, y}], W: 0.4}}); err != nil {
					t.Fatal(err)
				}
			}
			if y+1 < 3 {
				if err := b.AddSpatialPairs([]factorgraph.SpatialPair{{A: ids[[2]int{x, y}], B: ids[[2]int{x, y + 1}], W: 0.4}}); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	// A couple of imply factors.
	if err := b.AddFactor(factorgraph.FactorImply, 0.5,
		[]factorgraph.VarID{ids[[2]int{1, 1}], ids[[2]int{0, 0}]}, nil); err != nil {
		t.Fatal(err)
	}
	if err := b.AddFactor(factorgraph.FactorImply, 0.5,
		[]factorgraph.VarID{ids[[2]int{1, 1}], ids[[2]int{2, 2}]}, nil); err != nil {
		t.Fatal(err)
	}
	g, err := b.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func maxAbsDiff(t testing.TB, got, want [][]float64) float64 {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("marginal count %d vs %d", len(got), len(want))
	}
	worst := 0.0
	for i := range got {
		for j := range got[i] {
			if d := math.Abs(got[i][j] - want[i][j]); d > worst {
				worst = d
			}
		}
	}
	return worst
}

func TestSequentialConvergesToExact(t *testing.T) {
	g := smallSpatialGraph(t)
	exact, err := factorgraph.ExactMarginals(g, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	s := NewSequential(g, 7)
	s.RunEpochs(20000)
	if d := maxAbsDiff(t, s.Marginals(), exact); d > 0.02 {
		t.Errorf("sequential max marginal error %v > 0.02", d)
	}
	if s.TotalEpochs() != 20000 || s.Name() != "sequential" {
		t.Error("metadata mismatch")
	}
}

func TestHogwildConvergesToExact(t *testing.T) {
	g := smallSpatialGraph(t)
	exact, err := factorgraph.ExactMarginals(g, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	h := NewHogwild(g, 7, 4)
	h.RunEpochs(30000)
	if d := maxAbsDiff(t, h.Marginals(), exact); d > 0.03 {
		t.Errorf("hogwild max marginal error %v > 0.03", d)
	}
}

func TestSpatialConvergesToExact(t *testing.T) {
	g := smallSpatialGraph(t)
	exact, err := factorgraph.ExactMarginals(g, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSpatial(g, SpatialOptions{Levels: 4, Instances: 2, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	s.RunTotalEpochs(20000)
	if d := maxAbsDiff(t, s.Marginals(), exact); d > 0.02 {
		t.Errorf("spatial max marginal error %v > 0.02", d)
	}
}

func TestSpatialSeedStability(t *testing.T) {
	// The sampling schedule is seed-derived, but when dependent atoms land
	// in different cells of one conclique their concurrent sampling order
	// depends on goroutine timing, so repeated runs agree only
	// statistically (see the package comment). With enough epochs the same
	// seed must land within sampling noise.
	g := smallSpatialGraph(t)
	run := func() [][]float64 {
		s, err := NewSpatial(g, SpatialOptions{Levels: 4, Instances: 3, Seed: 42})
		if err != nil {
			t.Fatal(err)
		}
		s.RunEpochs(4000)
		return s.Marginals()
	}
	a, b := run(), run()
	if d := maxAbsDiff(t, a, b); d > 0.05 {
		t.Errorf("same seed diverged by %v", d)
	}
}

func TestSpatialDeterministicWhenIndependent(t *testing.T) {
	// With far-apart atom clusters (interaction radius well under the cell
	// width) the conclique guarantee is exact and runs are bit-identical.
	b := factorgraph.NewBuilder()
	var prev factorgraph.VarID
	for i := 0; i < 8; i++ {
		id, err := b.AddVariable(factorgraph.Variable{
			Domain: 2, Evidence: factorgraph.NoEvidence,
			Loc: geom.Pt(float64(i)*1000, 0), HasLoc: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		if i > 0 && i%2 == 1 {
			// Pair only within a tight cluster (distance 1000 ≥ cell width
			// is avoided by pairing identical-cell atoms only — here we
			// just add a unary prior instead to keep cells independent).
			_ = prev
		}
		_ = b.AddFactor(factorgraph.FactorIsTrue, 0.3+0.1*float64(i), []factorgraph.VarID{id}, nil)
		prev = id
	}
	g, err := b.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	run := func() [][]float64 {
		s, err := NewSpatial(g, SpatialOptions{Levels: 4, Instances: 2, Seed: 11})
		if err != nil {
			t.Fatal(err)
		}
		s.RunEpochs(300)
		return s.Marginals()
	}
	a, c := run(), run()
	if d := maxAbsDiff(t, a, c); d != 0 {
		t.Errorf("independent-cell runs diverged by %v", d)
	}
}

func TestSequentialDeterministic(t *testing.T) {
	g := smallSpatialGraph(t)
	s1 := NewSequential(g, 99)
	s2 := NewSequential(g, 99)
	s1.RunEpochs(500)
	s2.RunEpochs(500)
	if d := maxAbsDiff(t, s1.Marginals(), s2.Marginals()); d != 0 {
		t.Errorf("same seed diverged by %v", d)
	}
}

func TestMarginalsBeforeSampling(t *testing.T) {
	g := smallSpatialGraph(t)
	s := NewSequential(g, 1)
	m := s.Marginals()
	// Query variables uniform, evidence a point mass.
	if m[0][0] != 0.5 || m[0][1] != 0.5 {
		t.Errorf("query prior = %v", m[0])
	}
	if m[4][1] != 1 { // center atom is index 4 (row-major 3×3)
		t.Errorf("evidence marginal = %v", m[4])
	}
}

func TestSpatialEvidencePointMass(t *testing.T) {
	g := smallSpatialGraph(t)
	s, err := NewSpatial(g, SpatialOptions{Levels: 3, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	s.RunEpochs(50)
	m := s.Marginals()
	if m[4][1] != 1 || m[4][0] != 0 {
		t.Errorf("evidence marginal = %v", m[4])
	}
}

func TestSpatialUpdateEvidenceAndIncremental(t *testing.T) {
	g := smallSpatialGraph(t)
	s, err := NewSpatial(g, SpatialOptions{Levels: 4, Instances: 2, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	s.RunEpochs(2000)
	before := s.Marginals()
	// Corner (0,0) is variable 0; pin it false and resample incrementally.
	if err := s.UpdateEvidence(0, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := s.RunIncrementalContext(context.Background(), 2000); err != nil {
		t.Fatal(err)
	}
	after := s.Marginals()
	if after[0][0] != 1 {
		t.Fatalf("pinned marginal = %v", after[0])
	}
	// Its direct neighbour (1,0)=var 1 should shift toward false relative
	// to before (spatial clustering pulls it down).
	if !(after[1][1] < before[1][1]+0.02) {
		t.Errorf("neighbour did not respond: before=%v after=%v", before[1][1], after[1][1])
	}
	// Errors for bad updates.
	if err := s.UpdateEvidence(-1, 0); err == nil {
		t.Error("negative id should fail")
	}
	if err := s.UpdateEvidence(0, 5); err == nil {
		t.Error("out-of-domain value should fail")
	}
}

// TestUpdateEvidenceOnGraphEvidence: a variable that is evidence in the graph
// keeps its value (first label wins). Readers answer from Variable.Evidence
// and the compiled scores fold it, so a pin to the same value is a no-op and
// a pin to another value is refused — never a chain value only some would see.
func TestUpdateEvidenceOnGraphEvidence(t *testing.T) {
	g := smallSpatialGraph(t) // the centre, variable 4, is evidence = 1
	s, err := NewSpatial(g, SpatialOptions{Levels: 4, Instances: 2, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	s.RunEpochs(200)
	before := s.Marginals()
	before1 := s.sc.logOdds(1, s.instances[0].assign)

	if err := s.UpdateEvidence(4, 1); err != nil {
		t.Fatalf("same value: %v", err)
	}
	err = s.UpdateEvidence(4, 0)
	if err == nil || !strings.Contains(err.Error(), "evidence") || !strings.Contains(err.Error(), g.Var(4).Name) {
		t.Fatalf("different value: err = %v, want an error naming the evidence atom", err)
	}
	if s.PendingDirty() != 0 || s.pinned[4] {
		t.Errorf("graph evidence was pinned: dirty=%d pinned=%v", s.PendingDirty(), s.pinned[4])
	}
	for k := 0; k < s.NumInstances(); k++ {
		if x := s.ChainValue(k, 4); x != 1 {
			t.Errorf("chain %d holds %d for the evidence variable, want 1", k, x)
		}
	}
	if m := s.MarginalVar(4); m[1] != 1 {
		t.Errorf("evidence marginal = %v", m)
	}
	if d := maxAbsDiff(t, s.Marginals(), before); d != 0 {
		t.Errorf("marginals moved by %v", d)
	}
	if after1 := s.sc.logOdds(1, s.instances[0].assign); after1 != before1 {
		t.Errorf("neighbour log-odds moved: %v -> %v", before1, after1)
	}
}

// TestPinOnQueryVariableStaysDynamic: a pin made after construction lands on
// a query variable, which the compiled programs read through the assignment.
// Its neighbours' scores must follow the pinned value at once, and their
// marginals on every sampling path: a full run, an incremental run, and an
// incremental run after a re-pin of the same variable.
func TestPinOnQueryVariableStaysDynamic(t *testing.T) {
	g := smallSpatialGraph(t)
	opts := SpatialOptions{Levels: 4, Instances: 2, Seed: 23}
	const minShift = 0.1 // pair weight 0.4: the neighbour's log-odds move by 1.6

	// Scores of variable 1, whose spatial pair with corner 0 weighs 0.4.
	s, err := NewSpatial(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	gap := func(val int32) float64 {
		if err := s.UpdateEvidence(0, val); err != nil {
			t.Fatal(err)
		}
		return -s.sc.logOdds(1, s.instances[0].assign)
	}
	if low, high := gap(0), gap(1); math.Abs(high-low-1.6) > 1e-12 {
		t.Fatalf("neighbour score gap %v pinned false, %v pinned true: want a difference of 1.6", low, high)
	}

	// Full runs.
	full := func(val int32) float64 {
		fs, err := NewSpatial(g, opts)
		if err != nil {
			t.Fatal(err)
		}
		defer fs.Close()
		if err := fs.UpdateEvidence(0, val); err != nil {
			t.Fatal(err)
		}
		fs.RunEpochs(3000)
		return fs.MarginalVar(1)[1]
	}
	if low, high := full(0), full(1); high-low < minShift {
		t.Errorf("full run: P(v1) = %v pinned false, %v pinned true", low, high)
	}

	// Incremental runs on the sampler above: the second resample re-pins the
	// same variable and sweeps the same restricted view.
	s.RunEpochs(500)
	incr := func(val int32) float64 {
		if err := s.UpdateEvidence(0, val); err != nil {
			t.Fatal(err)
		}
		if _, err := s.RunIncrementalContext(context.Background(), 3000); err != nil {
			t.Fatal(err)
		}
		return s.MarginalVar(1)[1]
	}
	if low, high := incr(0), incr(1); high-low < minShift {
		t.Errorf("incremental: P(v1) = %v pinned false, %v pinned true", low, high)
	}
}

// TestSetChainValueOnFrozenVariableFails: a frozen variable's value is
// compiled into its neighbours' biases, so writing its chain value must fail
// loudly, naming the variable.
func TestSetChainValueOnFrozenVariableFails(t *testing.T) {
	g := smallSpatialGraph(t)
	s, err := NewSpatial(g, SpatialOptions{Levels: 4, Instances: 2, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.SetChainValue(0, 4, 0); err == nil || !strings.Contains(err.Error(), "variable 4") {
		t.Fatalf("err = %v, want an error naming variable 4", err)
	}
	if x := s.ChainValue(0, 4); x != 1 {
		t.Errorf("frozen chain value overwritten with %d", x)
	}
	if err := s.SetChainValue(0, 0, 1); err != nil {
		t.Errorf("query variable: %v", err)
	}
}

func TestIncrementalMovesTowardFullRecompute(t *testing.T) {
	// Incremental inference resamples only the updated variables'
	// concliques (one-hop neighbourhood), so boundary values stay stale and
	// exact equality with a full recompute is not expected — the paper's
	// Fig. 13a claim is about latency. We verify that the dirty
	// neighbourhood moves in the same direction as a full recompute and
	// that the pinned variable is exact.
	g := smallSpatialGraph(t)
	full, err := NewSpatial(g, SpatialOptions{Levels: 4, Instances: 2, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if err := full.UpdateEvidence(0, 0); err != nil {
		t.Fatal(err)
	}
	full.RunEpochs(8000)

	base, err := NewSpatial(g, SpatialOptions{Levels: 4, Instances: 2, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	base.RunEpochs(4000)
	baseM := base.Marginals()
	if err := base.UpdateEvidence(0, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := base.RunIncrementalContext(context.Background(), 8000); err != nil {
		t.Fatal(err)
	}
	fm, im := full.Marginals(), base.Marginals()
	if im[0][0] != 1 {
		t.Fatalf("pinned marginal = %v", im[0])
	}
	// Neighbour vars 1 and 3: the full recompute pulls them down relative
	// to the unpinned baseline; incremental must move the same way.
	for _, v := range []int{1, 3} {
		if !(fm[v][1] < baseM[v][1]) {
			t.Fatalf("test premise broken: full %v not below baseline %v", fm[v][1], baseM[v][1])
		}
		if !(im[v][1] < baseM[v][1]+0.02) {
			t.Errorf("var %d: incremental %v did not move toward full %v (baseline %v)",
				v, im[v][1], fm[v][1], baseM[v][1])
		}
	}
}

func TestSpatialNonSpatialVarsAreSampled(t *testing.T) {
	// Graph with a located and a non-located query variable connected by a
	// factor: both must be sampled by the spatial sampler.
	b := factorgraph.NewBuilder()
	a, _ := b.AddVariable(factorgraph.Variable{Domain: 2, Evidence: 1, HasLoc: true})
	c, _ := b.AddVariable(factorgraph.Variable{Domain: 2, Evidence: factorgraph.NoEvidence, HasLoc: true, Loc: geom.Pt(1, 1)})
	d, _ := b.AddVariable(factorgraph.Variable{Domain: 2, Evidence: factorgraph.NoEvidence})
	if err := b.AddFactor(factorgraph.FactorImply, 1.2, []factorgraph.VarID{a, d}, nil); err != nil {
		t.Fatal(err)
	}
	if err := b.AddSpatialPairs([]factorgraph.SpatialPair{{A: a, B: c, W: 0.7}}); err != nil {
		t.Fatal(err)
	}
	g, err := b.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSpatial(g, SpatialOptions{Levels: 3, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	s.RunEpochs(5000)
	exact, err := factorgraph.ExactMarginals(g, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if diff := maxAbsDiff(t, s.Marginals(), exact); diff > 0.03 {
		t.Errorf("mixed graph error %v", diff)
	}
}

func TestSpatialNoSpatialAtomsAtAll(t *testing.T) {
	b := factorgraph.NewBuilder()
	a, _ := b.AddVariable(factorgraph.Variable{Domain: 2, Evidence: 1})
	c, _ := b.AddVariable(factorgraph.Variable{Domain: 2, Evidence: factorgraph.NoEvidence})
	_ = b.AddFactor(factorgraph.FactorImply, 0.8, []factorgraph.VarID{a, c}, nil)
	g, err := b.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSpatial(g, SpatialOptions{Levels: 3, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if s.Pyramid() != nil {
		t.Error("pyramid should be nil without located atoms")
	}
	s.RunEpochs(5000)
	want := math.Exp(0.8) / (math.Exp(0.8) + 1)
	if got := s.Marginals()[c][1]; math.Abs(got-want) > 0.03 {
		t.Errorf("P = %v, want %v", got, want)
	}
}

func TestCategoricalSampling(t *testing.T) {
	// Categorical pair with one endpoint observed: the sampler must respect
	// the pruning mask (pruned pairs contribute nothing).
	b := factorgraph.NewBuilder()
	h := int32(4)
	a, _ := b.AddVariable(factorgraph.Variable{Domain: h, Evidence: 2, HasLoc: true})
	c, _ := b.AddVariable(factorgraph.Variable{Domain: h, Evidence: factorgraph.NoEvidence, HasLoc: true, Loc: geom.Pt(1, 0)})
	if err := b.AddSpatialPairs([]factorgraph.SpatialPair{{A: a, B: c, W: 1.0}}); err != nil {
		t.Fatal(err)
	}
	g, err := b.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	s := NewSequential(g, 21)
	s.RunEpochs(30000)
	exact, err := factorgraph.ExactMarginals(g, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if d := maxAbsDiff(t, s.Marginals(), exact); d > 0.02 {
		t.Errorf("categorical error %v", d)
	}
	// Value 2 (agreement) must dominate.
	m := s.Marginals()[c]
	for x := 0; x < int(h); x++ {
		if x != 2 && m[x] >= m[2] {
			t.Errorf("marginal %v does not favour agreement", m)
		}
	}
}

func TestHogwildWorkerClamping(t *testing.T) {
	g := smallSpatialGraph(t) // 8 query vars
	h := NewHogwild(g, 1, 100)
	if h.workers > 8 {
		t.Errorf("workers = %d not clamped", h.workers)
	}
	h2 := NewHogwild(g, 1, 0)
	if h2.workers < 1 {
		t.Error("auto workers < 1")
	}
}

func TestSpatialCellStats(t *testing.T) {
	g := smallSpatialGraph(t)
	s, err := NewSpatial(g, SpatialOptions{Levels: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if stats := s.CellStats(); len(stats) == 0 {
		t.Error("no cell stats")
	}
}

func TestSampleOneDistribution(t *testing.T) {
	// Sampling a single unary factor must follow the softmax of its scores.
	b := factorgraph.NewBuilder()
	v, _ := b.AddVariable(factorgraph.Variable{Domain: 2, Evidence: factorgraph.NoEvidence})
	w := 1.0
	_ = b.AddFactor(factorgraph.FactorIsTrue, w, []factorgraph.VarID{v}, nil)
	g, err := b.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	assign := g.InitialAssignment()
	rng := taskRNG(5, 0xabc)
	buf := make([]float64, 2)
	sc := newScorer(g)
	ones := 0
	n := 200000
	for i := 0; i < n; i++ {
		if sampleOne(&sc, v, assign, rng, buf) == 1 {
			ones++
		}
	}
	want := math.Exp(w) / (math.Exp(w) + 1)
	got := float64(ones) / float64(n)
	if math.Abs(got-want) > 0.01 {
		t.Errorf("P(1) = %v, want %v", got, want)
	}
}

// TestBinaryDrawIsSoftmaxDraw: sampleOne's binary fast path is the softmax
// draw over {d, 0} at temperature 1. From equal PRNG states both consume one
// uniform and pick the same value for every finite d — ±0, subnormals, and
// |d| past exp's overflow (≈ 709.78) and underflow (≈ −745.13) points
// included — so a chain drawing binary variables through either makes the
// same moves (weight learning's chains drew through a softmax copy, and MAP's
// anneal at T = 1 still does). At d = ±Inf, where the softmax walk reads
// NaN, the fast path gives the limiting value. Besides a random state, each
// d is drawn from the five states whose uniforms straddle P(0) = 1/(1+e^−d),
// where a draw that rounds differently would pick the other value.
func TestBinaryDrawIsSoftmaxDraw(t *testing.T) {
	src := taskRNG(28, 0xd8a3)
	draw := func(d float64, state uint64) int32 {
		t.Helper()
		fast := prng{state: state}
		soft := fast
		x, y := sampleBinary(d, &fast), sampleSoftmax([]float64{d, 0}, 1, &soft)
		if x != y || fast != soft {
			t.Fatalf("d = %v (%#016x): fast path drew %d, softmax %d (states %#x, %#x)",
				d, math.Float64bits(d), x, y, fast.state, soft.state)
		}
		return x
	}
	for i := 0; i < 1000; i++ {
		m := src.next() >> 11
		if u := (&prng{state: stateBefore(m)}).Float64(); u != float64(m)/(1<<53) {
			t.Fatalf("stateBefore(%d) draws %v", m, u)
		}
	}
	same := func(d float64) int32 {
		t.Helper()
		m0 := uint64(1 / (1 + math.Exp(-d)) * (1 << 53))
		for m := max(m0, 2) - 2; m <= min(m0+2, 1<<53-1); m++ {
			draw(d, stateBefore(m))
		}
		return draw(d, src.next())
	}
	edges := []float64{
		0, math.Copysign(0, -1),
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 0x1p-1030, -0x1p-1030,
		0x1p-1022, -0x1p-1022, 1e-17, -1e-17,
		709.78, -709.78, 709.79, -709.79, 745.13, -745.13, 745.14, -745.14,
		1e6, -1e6, math.MaxFloat64, -math.MaxFloat64,
	}
	for _, d := range edges {
		for i := 0; i < 1000; i++ {
			same(d)
		}
	}
	var ones int32
	n := 0
	for n < 120000 {
		var d float64
		switch n % 3 {
		case 0: // where both values are likely
			d = 80*src.Float64() - 40
		case 1: // any finite float64, subnormals included
			if d = math.Float64frombits(src.next()); math.IsNaN(d) || math.IsInf(d, 0) {
				continue
			}
		default: // around exp's overflow and underflow points
			d = []float64{709.78, -709.78, 745.13, -745.13}[src.Intn(4)] + 0.02*src.Float64() - 0.01
		}
		ones += same(d)
		n++
	}
	if ones == 0 || int(ones) == n {
		t.Errorf("%d of %d draws were 1: the comparison never saw both values", ones, n)
	}
	for i := 0; i < 1000; i++ {
		rng := prng{state: src.next()}
		if x := sampleBinary(math.Inf(1), &rng); x != 0 {
			t.Fatalf("d = +Inf drew %d, want 0", x)
		}
		if x := sampleBinary(math.Inf(-1), &rng); x != 1 {
			t.Fatalf("d = −Inf drew %d, want 1", x)
		}
	}
}

// stateBefore returns the PRNG state whose next Float64 is m/2⁵³: it inverts
// one step of next (the splitmix64 finalizer is a bijection).
func stateBefore(m uint64) uint64 {
	inv := func(c uint64) uint64 { // c⁻¹ mod 2⁶⁴ by Newton's iteration
		x := c
		for i := 0; i < 6; i++ {
			x *= 2 - c*x
		}
		return x
	}
	z := m << 11
	z ^= z>>31 ^ z>>62
	z *= inv(0x94d049bb133111eb)
	z ^= z>>27 ^ z>>54
	z *= inv(0xbf58476d1ce4e5b9)
	z ^= z>>30 ^ z>>60
	return z - 0x9e3779b97f4a7c15
}

func TestSplitmixDecorrelation(t *testing.T) {
	seen := map[uint64]bool{}
	for i := uint64(0); i < 1000; i++ {
		v := splitmix64(i)
		if seen[v] {
			t.Fatalf("collision at %d", i)
		}
		seen[v] = true
	}
}

// Property: on random small graphs, all three samplers converge to the
// exact marginals. Catches systematic bias in any sweep schedule.
func TestSamplersMatchExactOnRandomGraphs(t *testing.T) {
	if testing.Short() {
		t.Skip("long-running convergence property")
	}
	rng := newTestRand(31)
	for trial := 0; trial < 5; trial++ {
		b := factorgraph.NewBuilder()
		n := 6 + int(rng.next()%4)
		for i := 0; i < n; i++ {
			ev := factorgraph.NoEvidence
			if rng.next()%4 == 0 {
				ev = int32(rng.next() % 2)
			}
			if _, err := b.AddVariable(factorgraph.Variable{
				Domain: 2, Evidence: ev,
				Loc:    geom.Pt(float64(rng.next()%100), float64(rng.next()%100)),
				HasLoc: true,
			}); err != nil {
				t.Fatal(err)
			}
		}
		kinds := []factorgraph.FactorKind{
			factorgraph.FactorImply, factorgraph.FactorAnd,
			factorgraph.FactorOr, factorgraph.FactorEqual,
		}
		for f := 0; f < n; f++ {
			a := factorgraph.VarID(rng.next() % uint64(n))
			c := factorgraph.VarID(rng.next() % uint64(n))
			if a == c {
				continue
			}
			w := float64(rng.next()%200)/100 - 1 // [-1, 1)
			if err := b.AddFactor(kinds[rng.next()%4], w, []factorgraph.VarID{a, c}, nil); err != nil {
				t.Fatal(err)
			}
		}
		seen := map[[2]factorgraph.VarID]bool{}
		for s := 0; s < n/2; s++ {
			a := factorgraph.VarID(rng.next() % uint64(n))
			c := factorgraph.VarID(rng.next() % uint64(n))
			if a == c {
				continue
			}
			w := float64(rng.next()%100) / 150
			if key := [2]factorgraph.VarID{min(a, c), max(a, c)}; !seen[key] {
				seen[key] = true
				if err := b.AddSpatialPairs([]factorgraph.SpatialPair{{A: a, B: c, W: w}}); err != nil {
					t.Fatal(err)
				}
			}
		}
		g, err := b.Finalize()
		if err != nil {
			t.Fatal(err)
		}
		exact, err := factorgraph.ExactMarginals(g, 1<<22)
		if err != nil {
			t.Fatal(err)
		}
		for _, mk := range []func() Sampler{
			func() Sampler { return NewSequential(g, 5) },
			func() Sampler { return NewHogwild(g, 5, 2) },
			func() Sampler {
				sp, err := NewSpatial(g, SpatialOptions{Levels: 4, Instances: 2, Seed: 5})
				if err != nil {
					t.Fatal(err)
				}
				return sp
			},
		} {
			s := mk()
			if sp, ok := s.(*Spatial); ok {
				sp.RunTotalEpochs(30000)
			} else {
				s.RunEpochs(30000)
			}
			if d := maxAbsDiff(t, s.Marginals(), exact); d > 0.04 {
				t.Errorf("trial %d: %s max marginal error %v", trial, s.Name(), d)
			}
		}
	}
}

// newTestRand returns a tiny deterministic generator for graph synthesis.
func newTestRand(seed uint64) *testRand { return &testRand{state: seed} }

type testRand struct{ state uint64 }

func (r *testRand) next() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}
