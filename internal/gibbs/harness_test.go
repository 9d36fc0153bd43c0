package gibbs_test

// The statistical correctness harness (see internal/gibbs/testutil): every
// sampler variant is validated against exact marginals on the four
// canonical graph shapes under total-variation-distance tolerances, the
// determinism contract of the package comment is pinned down, and the
// incremental path is checked against the exact conditional distribution
// of the re-pinned graph. These tests are what make rewrites of the
// sampler execution core (such as the persistent worker pool) safe.

import (
	"context"
	"fmt"
	"math"
	"testing"

	"repro/internal/factorgraph"
	"repro/internal/geom"
	"repro/internal/gibbs"
	"repro/internal/gibbs/testutil"
)

// tvTol is the harness tolerance: with the epoch budgets below, sampling
// noise keeps the worst per-variable TV distance well under it.
const tvTol = 0.04

func mustGraph(t testing.TB, spec testutil.Spec) *factorgraph.Graph {
	t.Helper()
	g, err := testutil.RandomGraph(spec)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestSamplersMatchExactOnShapes is the core of the harness: all three
// samplers against exact marginals on binary/categorical ×
// logical-only/spatial graphs.
func TestSamplersMatchExactOnShapes(t *testing.T) {
	for _, shape := range testutil.Shapes(900) {
		shape := shape
		t.Run(shape.Name, func(t *testing.T) {
			g := mustGraph(t, shape.Spec)
			exact, err := testutil.Exact(g)
			if err != nil {
				t.Fatal(err)
			}
			samplers := []struct {
				name string
				run  func() [][]float64
			}{
				{"sequential", func() [][]float64 {
					s := gibbs.NewSequential(g, 17)
					s.RunEpochs(20000)
					return s.Marginals()
				}},
				{"hogwild", func() [][]float64 {
					h := gibbs.NewHogwild(g, 17, 3)
					defer h.Close()
					h.RunEpochs(25000)
					return h.Marginals()
				}},
				{"spatial", func() [][]float64 {
					s, err := gibbs.NewSpatial(g, gibbs.SpatialOptions{
						Levels: 4, Instances: 2, Seed: 17, Workers: 2,
					})
					if err != nil {
						t.Fatal(err)
					}
					defer s.Close()
					s.RunTotalEpochs(25000)
					return s.Marginals()
				}},
			}
			for _, s := range samplers {
				if d := testutil.MaxTV(s.run(), exact); d > tvTol {
					t.Errorf("%s: max TV distance %.4f > %.2f", s.name, d, tvTol)
				}
			}
		})
	}
}

// TestSequentialDeterministicOnShapes pins the determinism contract: the
// sequential chain is a pure function of (graph, seed).
func TestSequentialDeterministicOnShapes(t *testing.T) {
	for _, shape := range testutil.Shapes(901) {
		g := mustGraph(t, shape.Spec)
		run := func() [][]float64 {
			s := gibbs.NewSequential(g, 23)
			s.RunEpochs(400)
			return s.Marginals()
		}
		if d := testutil.MaxTV(run(), run()); d != 0 {
			t.Errorf("%s: same-seed sequential runs diverged by %v", shape.Name, d)
		}
	}
}

// TestSpatialWorkerCountInvariance checks the pooled scheduler does not
// bias the chain: Workers=1 and Workers=4 agree within sampling tolerance
// (they are distinct but equally valid interleavings of the same
// seed-derived per-cell streams).
func TestSpatialWorkerCountInvariance(t *testing.T) {
	g := mustGraph(t, testutil.Spec{Domain: 2, Spatial: true, Seed: 77})
	exact, err := testutil.Exact(g)
	if err != nil {
		t.Fatal(err)
	}
	run := func(workers int) [][]float64 {
		s, err := gibbs.NewSpatial(g, gibbs.SpatialOptions{
			Levels: 4, Instances: 2, Seed: 19, Workers: workers,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		s.RunEpochs(12000)
		return s.Marginals()
	}
	m1, m4 := run(1), run(4)
	if d := testutil.MaxTV(m1, m4); d > tvTol {
		t.Errorf("Workers=1 vs Workers=4 diverged by %.4f", d)
	}
	for name, m := range map[string][][]float64{"Workers=1": m1, "Workers=4": m4} {
		if d := testutil.MaxTV(m, exact); d > tvTol {
			t.Errorf("%s: max TV distance %.4f from exact", name, d)
		}
	}
}

// starGraph builds a tight spatial star: a center atom linked to leaves by
// spatial pairs, leaves carrying alternating unary priors. Given the
// center, the leaves are mutually independent, so pinning the center and
// resampling only its neighbourhood must reach the exact conditional.
func starGraph(t testing.TB, leaves int) (*factorgraph.Graph, factorgraph.VarID) {
	t.Helper()
	b := factorgraph.NewBuilder()
	center, err := b.AddVariable(factorgraph.Variable{
		Domain: 2, Evidence: factorgraph.NoEvidence,
		Loc: geom.Pt(50, 50), HasLoc: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < leaves; i++ {
		leaf, err := b.AddVariable(factorgraph.Variable{
			Domain: 2, Evidence: factorgraph.NoEvidence,
			Loc: geom.Pt(50+0.3*float64(i%3+1), 50+0.3*float64(i/3+1)), HasLoc: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := b.AddSpatialPairs([]factorgraph.SpatialPair{{A: center, B: leaf, W: 0.6}}); err != nil {
			t.Fatal(err)
		}
		w := 0.4
		if i%2 == 1 {
			w = -0.4
		}
		if err := b.AddFactor(factorgraph.FactorIsTrue, w, []factorgraph.VarID{leaf}, nil); err != nil {
			t.Fatal(err)
		}
	}
	g, err := b.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	return g, center
}

// TestIncrementalConvergesToExactConditional: UpdateEvidence + RunIncrementalContext
// must converge to the exact conditional marginals of the re-pinned graph.
func TestIncrementalConvergesToExactConditional(t *testing.T) {
	const leaves = 6
	g, center := starGraph(t, leaves)
	s, err := gibbs.NewSpatial(g, gibbs.SpatialOptions{Levels: 4, Instances: 2, Seed: 41})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.UpdateEvidence(center, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := s.RunIncrementalContext(context.Background(), 15000); err != nil {
		t.Fatal(err)
	}

	// Exact reference: the same graph built with the evidence baked in.
	b := factorgraph.NewBuilder()
	cid, _ := b.AddVariable(factorgraph.Variable{
		Domain: 2, Evidence: 1, Loc: geom.Pt(50, 50), HasLoc: true,
	})
	for i := 0; i < leaves; i++ {
		leaf, _ := b.AddVariable(factorgraph.Variable{
			Domain: 2, Evidence: factorgraph.NoEvidence,
			Loc: geom.Pt(50+0.3*float64(i%3+1), 50+0.3*float64(i/3+1)), HasLoc: true,
		})
		if err := b.AddSpatialPairs([]factorgraph.SpatialPair{{A: cid, B: leaf, W: 0.6}}); err != nil {
			t.Fatal(err)
		}
		w := 0.4
		if i%2 == 1 {
			w = -0.4
		}
		if err := b.AddFactor(factorgraph.FactorIsTrue, w, []factorgraph.VarID{leaf}, nil); err != nil {
			t.Fatal(err)
		}
	}
	pinned, err := b.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	exact, err := testutil.Exact(pinned)
	if err != nil {
		t.Fatal(err)
	}
	m := s.Marginals()
	if m[center][1] != 1 {
		t.Fatalf("pinned marginal = %v", m[center])
	}
	if d := testutil.MaxTV(m, exact); d > tvTol {
		t.Errorf("incremental conditional max TV %.4f > %.2f", d, tvTol)
	}
}

// TestIncrementalAfterFullRunMatchesConditional is the serving-layer shape:
// a full batch run first (the chain and counters converge to the prior
// posterior), then evidence arrives and RunIncrementalContext must converge to the
// *new* conditional — which requires the restricted view's counters to be
// reset at the incremental boundary, or the pre-pin samples would keep the
// served marginals anchored to the stale posterior.
func TestIncrementalAfterFullRunMatchesConditional(t *testing.T) {
	const leaves = 6
	g, center := starGraph(t, leaves)
	s, err := gibbs.NewSpatial(g, gibbs.SpatialOptions{Levels: 4, Instances: 2, Seed: 43})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	s.RunEpochs(8000)
	if err := s.UpdateEvidence(center, 1); err != nil {
		t.Fatal(err)
	}
	if got := s.PendingDirty(); got != 1 {
		t.Fatalf("PendingDirty = %d, want 1", got)
	}
	if _, err := s.RunIncrementalContext(context.Background(), 15000); err != nil {
		t.Fatal(err)
	}
	if got := s.PendingDirty(); got != 0 {
		t.Fatalf("PendingDirty after incremental = %d, want 0", got)
	}

	// Exact reference: the same graph with the evidence baked in.
	b := factorgraph.NewBuilder()
	cid, _ := b.AddVariable(factorgraph.Variable{
		Domain: 2, Evidence: 1, Loc: geom.Pt(50, 50), HasLoc: true,
	})
	for i := 0; i < leaves; i++ {
		leaf, _ := b.AddVariable(factorgraph.Variable{
			Domain: 2, Evidence: factorgraph.NoEvidence,
			Loc: geom.Pt(50+0.3*float64(i%3+1), 50+0.3*float64(i/3+1)), HasLoc: true,
		})
		if err := b.AddSpatialPairs([]factorgraph.SpatialPair{{A: cid, B: leaf, W: 0.6}}); err != nil {
			t.Fatal(err)
		}
		w := 0.4
		if i%2 == 1 {
			w = -0.4
		}
		if err := b.AddFactor(factorgraph.FactorIsTrue, w, []factorgraph.VarID{leaf}, nil); err != nil {
			t.Fatal(err)
		}
	}
	pinned, err := b.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	exact, err := testutil.Exact(pinned)
	if err != nil {
		t.Fatal(err)
	}
	m := s.Marginals()
	if d := testutil.MaxTV(m, exact); d > tvTol {
		t.Errorf("post-run incremental conditional max TV %.4f > %.2f", d, tvTol)
	}
	// MarginalVar must agree with the bulk Marginals slice entry for entry.
	for i := range m {
		one := s.MarginalVar(factorgraph.VarID(i))
		if len(one) != len(m[i]) {
			t.Fatalf("MarginalVar(%d) len %d != %d", i, len(one), len(m[i]))
		}
		for x := range one {
			if one[x] != m[i][x] {
				t.Errorf("MarginalVar(%d)[%d] = %v, Marginals = %v", i, x, one[x], m[i][x])
			}
		}
	}
}

// twoClusterGraph places two well-separated spatial clusters with
// intra-cluster pairs only, so incremental inference after pinning an atom
// of cluster A must never touch cluster B's cells.
func twoClusterGraph(t testing.TB, perCluster int) (*factorgraph.Graph, []factorgraph.VarID, []factorgraph.VarID) {
	t.Helper()
	b := factorgraph.NewBuilder()
	// Spacing is wide enough that each cluster spans several pyramid cells
	// at the swept levels (a single-cell cluster would be merged up above
	// the swept range by the partial pyramid's sparse-quadrant rule).
	addCluster := func(cx, cy float64) []factorgraph.VarID {
		var ids []factorgraph.VarID
		for i := 0; i < perCluster; i++ {
			id, err := b.AddVariable(factorgraph.Variable{
				Domain: 2, Evidence: factorgraph.NoEvidence,
				Loc:    geom.Pt(cx+12*float64(i%3), cy+12*float64(i/3)),
				HasLoc: true,
			})
			if err != nil {
				t.Fatal(err)
			}
			ids = append(ids, id)
		}
		for i := 1; i < len(ids); i++ {
			if err := b.AddSpatialPairs([]factorgraph.SpatialPair{{A: ids[i-1], B: ids[i], W: 0.5}}); err != nil {
				t.Fatal(err)
			}
		}
		return ids
	}
	a := addCluster(5, 5)
	c := addCluster(165, 165)
	g, err := b.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	return g, a, c
}

// TestIncrementalSweepsOnlyDirtyCells asserts via schedule instrumentation
// that RunIncrementalContext resamples only the dirty concliques' cells while
// RunEpochs sweeps the whole schedule.
func TestIncrementalSweepsOnlyDirtyCells(t *testing.T) {
	g, clusterA, clusterB := twoClusterGraph(t, 6)
	s, err := gibbs.NewSpatial(g, gibbs.SpatialOptions{Levels: 5, Instances: 2, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if s.ScheduledCells() < 2 {
		t.Fatalf("test premise broken: %d scheduled cells", s.ScheduledCells())
	}

	// A full epoch sweeps every scheduled cell.
	s.InstrumentSweeps()
	s.RunEpochs(2)
	full := s.SweptCells()
	homes := 0
	for _, v := range append(append([]factorgraph.VarID{}, clusterA...), clusterB...) {
		if key, ok := s.HomeCell(v); ok {
			homes++
			if full[key] != 2 {
				t.Errorf("full sweep hit cell %+v %d times, want 2", key, full[key])
			}
		}
	}
	if homes == 0 {
		t.Fatal("test premise broken: no atom has a scheduled home cell")
	}

	// An incremental run after pinning a cluster-A atom touches cluster-A
	// cells only.
	if err := s.UpdateEvidence(clusterA[0], 1); err != nil {
		t.Fatal(err)
	}
	s.InstrumentSweeps()
	if _, err := s.RunIncrementalContext(context.Background(), 3); err != nil {
		t.Fatal(err)
	}
	inc := s.SweptCells()
	if len(inc) == 0 && s.SweptTailVars() == 0 {
		t.Fatal("incremental run swept nothing")
	}
	if len(inc) >= s.ScheduledCells() {
		t.Errorf("incremental run swept %d of %d cells — not restricted", len(inc), s.ScheduledCells())
	}
	for _, v := range clusterB {
		if key, ok := s.HomeCell(v); ok {
			if n := inc[key]; n != 0 {
				t.Errorf("incremental run swept cluster-B cell %+v %d times", key, n)
			}
		}
	}
}

// TestHomeCellsMatchSamplerPlacement: the sampler-free placement that
// shard.Partition deals subtrees by is the placement a sampler built with
// the same options schedules by, atom for atom.
func TestHomeCellsMatchSamplerPlacement(t *testing.T) {
	g := mustGraph(t, testutil.Spec{
		Vars: 400, Domain: 2, Spatial: true,
		LogicalFactors: 300, SpatialPairs: 600, Seed: 5,
	})
	for _, opts := range []gibbs.SpatialOptions{
		{Levels: 5},
		{Levels: 6, LocalityLevel: 3},
	} {
		s, err := gibbs.NewSpatial(g, opts)
		if err != nil {
			t.Fatal(err)
		}
		homes, err := gibbs.HomeCells(g, opts)
		s.Close()
		if err != nil {
			t.Fatal(err)
		}
		if len(homes) == 0 {
			t.Fatal("test premise broken: no atom has a home cell")
		}
		for i := 0; i < g.NumVars(); i++ {
			v := factorgraph.VarID(i)
			want, wantOK := s.HomeCell(v)
			if got, ok := homes[v]; ok != wantOK || got != want {
				t.Errorf("%+v: var %d home = %+v (%v), sampler says %+v (%v)", opts, v, got, ok, want, wantOK)
			}
		}
	}
}

// TestSpatialSteadyStateEpochAllocFree pins the epoch loop's zero-allocation
// property, pooled and with one worker running every chunk on the caller (the
// benchmark counterpart records numbers; this enforces the invariant in
// every test run).
func TestSpatialSteadyStateEpochAllocFree(t *testing.T) {
	g := mustGraph(t, testutil.Spec{
		Vars: 400, Domain: 2, Spatial: true,
		LogicalFactors: 300, SpatialPairs: 600, Seed: 5,
	})
	for _, workers := range []int{2, 1} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			s, err := gibbs.NewSpatial(g, gibbs.SpatialOptions{Levels: 5, Instances: 2, Seed: 3, Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			s.RunEpochs(3) // warm the pool and sudog caches
			if allocs := testing.AllocsPerRun(5, func() { s.RunEpochs(1) }); allocs > 0 {
				t.Errorf("steady-state spatial epoch allocated %.1f times", allocs)
			}
		})
	}
}

// TestHogwildSteadyStateEpochAllocFree is the hogwild counterpart.
func TestHogwildSteadyStateEpochAllocFree(t *testing.T) {
	g := mustGraph(t, testutil.Spec{
		Vars: 400, Domain: 2, Spatial: true,
		LogicalFactors: 300, SpatialPairs: 600, Seed: 6,
	})
	for _, workers := range []int{2, 1} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			h := gibbs.NewHogwild(g, 3, workers)
			defer h.Close()
			h.RunEpochs(3)
			if allocs := testing.AllocsPerRun(5, func() { h.RunEpochs(1) }); allocs > 0 {
				t.Errorf("steady-state hogwild epoch allocated %.1f times", allocs)
			}
		})
	}
}

// TestCompiledMatchesInterpretedChains is the sampler-level face of the
// kernel equivalence contract (the per-score contract lives in
// factorgraph's kernel tests): in every scheduling-deterministic
// configuration, a chain run on compiled kernels is bit-identical to the
// same chain run on the interpreted walk (the export_test.go seam) — not
// statistically close, float-for-float equal. With that established, the statistical harness transfers to the
// compiled path wholesale.
func TestCompiledMatchesInterpretedChains(t *testing.T) {
	for _, shape := range testutil.Shapes(902) {
		shape := shape
		t.Run(shape.Name, func(t *testing.T) {
			g := mustGraph(t, shape.Spec)
			samplers := []struct {
				name string
				run  func(interpreted bool) [][]float64
			}{
				{"sequential", func(interpreted bool) [][]float64 {
					s := gibbs.NewSequential(g, 29)
					if interpreted {
						s.InterpretedWalk()
					}
					s.RunEpochs(300)
					return s.Marginals()
				}},
				{"hogwild", func(interpreted bool) [][]float64 {
					h := gibbs.NewHogwild(g, 29, 1)
					defer h.Close()
					if interpreted {
						h.InterpretedWalk()
					}
					h.RunEpochs(300)
					return h.Marginals()
				}},
				{"spatial", func(interpreted bool) [][]float64 {
					s, err := gibbs.NewSpatial(g, gibbs.SpatialOptions{
						Levels: 4, Instances: 2, Seed: 29, Workers: 1,
					})
					if err != nil {
						t.Fatal(err)
					}
					defer s.Close()
					if interpreted {
						s.InterpretedWalk()
					}
					s.RunTotalEpochs(300)
					return s.Marginals()
				}},
			}
			for _, s := range samplers {
				compiled, interpreted := s.run(false), s.run(true)
				for v := range compiled {
					for x := range compiled[v] {
						if compiled[v][x] != interpreted[v][x] {
							t.Fatalf("%s: marginal[%d][%d] compiled %v, interpreted %v — kernels are not bit-identical",
								s.name, v, x, compiled[v][x], interpreted[v][x])
						}
					}
				}
			}
		})
	}
}

// TestSamplersMatchExactWithoutKernels keeps the interpreted reference walk
// under direct statistical coverage: all three samplers against exact
// marginals on the interpreted walk, on one binary-spatial shape (the
// compiled path gets the full shape sweep above; bit-identity transfers the
// rest).
func TestSamplersMatchExactWithoutKernels(t *testing.T) {
	if testing.Short() {
		t.Skip("long-running convergence property")
	}
	g := mustGraph(t, testutil.Spec{Domain: 2, Spatial: true, Seed: 903})
	exact, err := testutil.Exact(g)
	if err != nil {
		t.Fatal(err)
	}
	samplers := []struct {
		name string
		run  func() [][]float64
	}{
		{"sequential", func() [][]float64 {
			s := gibbs.NewSequential(g, 17)
			s.InterpretedWalk()
			s.RunEpochs(20000)
			return s.Marginals()
		}},
		{"hogwild", func() [][]float64 {
			h := gibbs.NewHogwild(g, 17, 3)
			defer h.Close()
			h.InterpretedWalk()
			h.RunEpochs(25000)
			return h.Marginals()
		}},
		{"spatial", func() [][]float64 {
			s, err := gibbs.NewSpatial(g, gibbs.SpatialOptions{
				Levels: 4, Instances: 2, Seed: 17, Workers: 2,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			s.InterpretedWalk()
			s.RunTotalEpochs(25000)
			return s.Marginals()
		}},
	}
	for _, s := range samplers {
		if d := testutil.MaxTV(s.run(), exact); d > tvTol {
			t.Errorf("%s (interpreted walk): max TV distance %.4f > %.2f", s.name, d, tvTol)
		}
	}
}

// TestMarginalVarMatchesMarginals: the per-variable read every caller of the
// Sampler interface may use agrees bit for bit with the whole-graph read, on
// every variant, for every kind of variable: unsampled (before any epoch),
// query, evidence and — on spatial — pinned after construction.
func TestMarginalVarMatchesMarginals(t *testing.T) {
	g := mustGraph(t, testutil.Spec{Vars: 40, Domain: 3, Spatial: true, Seed: 77})
	sp, err := gibbs.NewSpatial(g, gibbs.SpatialOptions{Instances: 2, Workers: 1, Seed: 3, BurnIn: 2})
	if err != nil {
		t.Fatal(err)
	}
	samplers := map[string]gibbs.Sampler{
		"sequential": gibbs.NewSequential(g, 3),
		"hogwild":    gibbs.NewHogwild(g, 3, 1),
		"spatial":    sp,
	}
	check := func(t *testing.T, s gibbs.Sampler, stage string) {
		t.Helper()
		all := s.Marginals()
		for v := range all {
			one := s.MarginalVar(factorgraph.VarID(v))
			if len(one) != len(all[v]) {
				t.Fatalf("%s: variable %d: MarginalVar has %d entries, Marginals %d", stage, v, len(one), len(all[v]))
			}
			for x := range one {
				if math.Float64bits(one[x]) != math.Float64bits(all[v][x]) {
					t.Errorf("%s: variable %d (evidence %d): MarginalVar %v != Marginals %v",
						stage, v, g.Var(factorgraph.VarID(v)).Evidence, one, all[v])
					break
				}
			}
		}
	}
	for name, s := range samplers {
		t.Run(name, func(t *testing.T) {
			defer s.Close()
			check(t, s, "unsampled")
			s.RunEpochs(30)
			check(t, s, "sampled")
			sp, ok := s.(*gibbs.Spatial)
			if !ok {
				return
			}
			var pin factorgraph.VarID = -1
			g.Vars(func(id factorgraph.VarID, v factorgraph.Variable) bool {
				if v.Evidence == factorgraph.NoEvidence {
					pin = id
				}
				return pin < 0
			})
			if err := sp.UpdateEvidence(pin, 2); err != nil {
				t.Fatal(err)
			}
			if _, err := sp.RunIncrementalContext(context.Background(), 5); err != nil {
				t.Fatal(err)
			}
			check(t, sp, "pinned")
			if m := sp.MarginalVar(pin); m[2] != 1 {
				t.Errorf("pinned variable %d reads %v, want a point mass on 2", pin, m)
			}
		})
	}
}

// TestMarginalsAllocateTwice: the whole-graph read cuts every row from one
// backing array, so it costs the row table and the array, whatever the
// graph's size, and a caller's append to a row never writes its neighbour.
func TestMarginalsAllocateTwice(t *testing.T) {
	g := mustGraph(t, testutil.Spec{Vars: 40, Domain: 3, Spatial: true, Seed: 77})
	s := gibbs.NewSequential(g, 3)
	defer s.Close()
	s.RunEpochs(5)
	if allocs := testing.AllocsPerRun(5, func() { s.Marginals() }); allocs > 2 {
		t.Errorf("Marginals allocated %.0f times over %d variables, want at most 2", allocs, g.NumVars())
	}
	all := s.Marginals()
	next := all[1][0]
	_ = append(all[0], 42)
	if all[1][0] != next {
		t.Error("appending to one marginal row overwrote the next row")
	}
}

// TestRunIncrementalWithoutSpatialAtoms: on a graph with no located atoms
// the spatial schedule is empty and everything rides the serial tail; an
// evidence update must still resample the pinned variable's neighbours (the
// restricted view used to panic building its group offsets from the empty
// schedule).
func TestRunIncrementalWithoutSpatialAtoms(t *testing.T) {
	g := mustGraph(t, testutil.Spec{Vars: 12, Seed: 78})
	s, err := gibbs.NewSpatial(g, gibbs.SpatialOptions{Instances: 2, Workers: 1, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if s.Pyramid() != nil || s.ScheduledCells() != 0 {
		t.Fatal("test premise broken: graph has located atoms")
	}
	s.RunEpochs(10)
	var pin factorgraph.VarID = -1
	g.Vars(func(id factorgraph.VarID, v factorgraph.Variable) bool {
		if v.Evidence == factorgraph.NoEvidence && len(g.VarLogicalFactors(id)) > 0 {
			pin = id
		}
		return pin < 0
	})
	if pin < 0 {
		t.Fatal("test premise broken: no query variable with a factor")
	}
	if err := s.UpdateEvidence(pin, 1); err != nil {
		t.Fatal(err)
	}
	s.InstrumentSweeps()
	if _, err := s.RunIncrementalContext(context.Background(), 3); err != nil {
		t.Fatal(err)
	}
	if s.SweptTailVars() == 0 {
		t.Error("incremental run swept no tail variable")
	}
	if m := s.MarginalVar(pin); m[1] != 1 {
		t.Errorf("pinned variable %d reads %v, want a point mass on 1", pin, m)
	}
}
