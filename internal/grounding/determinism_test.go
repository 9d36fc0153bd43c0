package grounding_test

// The grounding determinism harness: the worker-sharded spatial sweeps,
// co-occurrence counting and batched rule evaluation must produce a factor
// graph identical — variable for variable, factor for factor, pair for pair,
// in order — for every worker-pool width. The sweep's canonical-ordered pair
// emission and parallel.For's fixed chunking are what make this hold; this
// test is the executable statement of that contract, run over the same
// datagen workloads the experiment harness uses.

import (
	"context"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/factorgraph"
	"repro/internal/geom"
	"repro/internal/gibbs/testutil"
)

// groundWorkload builds, loads and grounds one datagen workload at the given
// grounding worker count.
type groundWorkload struct {
	name  string
	build func(t *testing.T, groundWorkers int) *core.System
}

func determinismWorkloads() []groundWorkload {
	wellsSystem := func(t *testing.T, workers, maxNeighbors int) *core.System {
		t.Helper()
		data := datagen.Wells(datagen.WellsConfig{N: 300, Seed: 11, Extent: 420})
		s := core.NewSystem(core.Config{
			Engine:           core.EngineSya,
			Metric:           geom.Euclidean,
			Bandwidth:        30,
			SpatialScale:     0.5,
			SupportRadius:    75,
			MaxNeighbors:     maxNeighbors,
			PyramidLevels:    6,
			Workers:          workers,
			Seed:             1,
			SkipFactorTables: true,
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
		return s
	}
	return []groundWorkload{
		{"gwdb-unlimited", func(t *testing.T, w int) *core.System {
			return wellsSystem(t, w, 0)
		}},
		{"gwdb-capped", func(t *testing.T, w int) *core.System {
			return wellsSystem(t, w, 12)
		}},
		{"nyccas-raster", func(t *testing.T, w int) *core.System {
			t.Helper()
			data := datagen.Raster(datagen.RasterConfig{Side: 14, Seed: 3, Extent: 14 * 30.0 / 22.0})
			cell := data.Config.Extent / float64(data.Config.Side)
			s := core.NewSystem(core.Config{
				Engine:           core.EngineSya,
				Metric:           geom.Euclidean,
				Bandwidth:        2 * cell,
				SpatialScale:     0.5,
				SupportRadius:    4 * cell,
				MaxNeighbors:     8,
				PyramidLevels:    6,
				Workers:          w,
				Seed:             1,
				SkipFactorTables: true,
			})
			if err := s.LoadProgram(datagen.NYCCASProgram); err != nil {
				t.Fatal(err)
			}
			cells, evidence := data.Rows()
			if err := s.LoadRows("Cell", cells); err != nil {
				t.Fatal(err)
			}
			if err := s.LoadRows("CellEvidence", evidence); err != nil {
				t.Fatal(err)
			}
			return s
		}},
		{"gwdb-categorical-pruned", func(t *testing.T, w int) *core.System {
			// Exercises the parallel co-occurrence counting and the pruning
			// mask (Section IV-C) on an h=10 categorical domain.
			t.Helper()
			data := datagen.Wells(datagen.WellsConfig{N: 300, Seed: 17, Extent: 420})
			s := core.NewSystem(core.Config{
				Engine:           core.EngineSya,
				Metric:           geom.Euclidean,
				Bandwidth:        30,
				SupportRadius:    75,
				MaxNeighbors:     20,
				PyramidLevels:    6,
				Workers:          w,
				Seed:             1,
				PruneThreshold:   0.5,
				SkipFactorTables: true,
			})
			if err := s.LoadProgram(datagen.GWDBCategoricalProgram); err != nil {
				t.Fatal(err)
			}
			wells, _ := data.Rows()
			if err := s.LoadRows("Well", wells); err != nil {
				t.Fatal(err)
			}
			if err := s.LoadRows("LevelEvidence", data.LevelRows(10)); err != nil {
				t.Fatal(err)
			}
			return s
		}},
	}
}

// diffGraphs asserts two grounded graphs are structurally identical, element
// for element and in the same order. (Comparison goes through the accessors
// rather than the gob encoding: gob serializes the relation-mask maps in
// nondeterministic key order, which would make byte-level comparison flaky
// for reasons unrelated to grounding.)
func diffGraphs(t *testing.T, workers int, ref, got *factorgraph.Graph) {
	t.Helper()
	if got.NumVars() != ref.NumVars() {
		t.Fatalf("workers=%d: %d vars, want %d", workers, got.NumVars(), ref.NumVars())
	}
	relSeen := map[int32]bool{}
	for i := 0; i < ref.NumVars(); i++ {
		rv, gv := ref.Var(factorgraph.VarID(i)), got.Var(factorgraph.VarID(i))
		if rv != gv {
			t.Fatalf("workers=%d: var %d = %+v, want %+v", workers, i, gv, rv)
		}
		relSeen[rv.Relation] = true
	}
	if got.NumFactors() != ref.NumFactors() {
		t.Fatalf("workers=%d: %d factors, want %d", workers, got.NumFactors(), ref.NumFactors())
	}
	for f := int32(0); f < int32(ref.NumFactors()); f++ {
		if got.FactorKindOf(f) != ref.FactorKindOf(f) || got.FactorWeightOf(f) != ref.FactorWeightOf(f) {
			t.Fatalf("workers=%d: factor %d kind/weight mismatch", workers, f)
		}
		rvars, rneg := ref.FactorVars(f)
		gvars, gneg := got.FactorVars(f)
		if len(rvars) != len(gvars) {
			t.Fatalf("workers=%d: factor %d arity %d, want %d", workers, f, len(gvars), len(rvars))
		}
		for k := range rvars {
			if rvars[k] != gvars[k] || rneg[k] != gneg[k] {
				t.Fatalf("workers=%d: factor %d edge %d mismatch", workers, f, k)
			}
		}
	}
	if got.NumSpatialFactors() != ref.NumSpatialFactors() {
		t.Fatalf("workers=%d: %d spatial pairs, want %d", workers, got.NumSpatialFactors(), ref.NumSpatialFactors())
	}
	for sIdx := int32(0); sIdx < int32(ref.NumSpatialFactors()); sIdx++ {
		ra, rb, rw := ref.SpatialPair(sIdx)
		ga, gb, gw := got.SpatialPair(sIdx)
		if ra != ga || rb != gb || rw != gw {
			t.Fatalf("workers=%d: spatial pair %d = (%d, %d, %v), want (%d, %d, %v)",
				workers, sIdx, ga, gb, gw, ra, rb, rw)
		}
	}
	for rel := range relSeen {
		rmask, rh := ref.AllowedPairMask(rel)
		gmask, gh := got.AllowedPairMask(rel)
		if rh != gh || len(rmask) != len(gmask) {
			t.Fatalf("workers=%d: relation %d mask shape mismatch", workers, rel)
		}
		for k := range rmask {
			if rmask[k] != gmask[k] {
				t.Fatalf("workers=%d: relation %d mask[%d] = %v, want %v", workers, rel, k, gmask[k], rmask[k])
			}
		}
	}
}

// TestGroundingWorkerInvariance grounds each workload at worker counts 1, 2
// and 8 and requires the resulting factor graphs (and the headline stats) to
// be identical to the sequential reference.
func TestGroundingWorkerInvariance(t *testing.T) {
	for _, wl := range determinismWorkloads() {
		t.Run(wl.name, func(t *testing.T) {
			ref, err := wl.build(t, 1).Ground()
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{2, 8} {
				res, err := wl.build(t, workers).Ground()
				if err != nil {
					t.Fatalf("workers=%d: %v", workers, err)
				}
				diffGraphs(t, workers, ref.Graph, res.Graph)
				rs, gs := ref.Stats, res.Stats
				if gs.Vars != rs.Vars || gs.LogicalFactors != rs.LogicalFactors ||
					gs.SpatialPairs != rs.SpatialPairs ||
					gs.GroundSpatialFactors != rs.GroundSpatialFactors ||
					gs.AllowedValuePairs != rs.AllowedValuePairs {
					t.Fatalf("workers=%d: stats %+v, want %+v", workers, gs, rs)
				}
				if gs.Workers != workers {
					t.Errorf("Stats.Workers = %d, want %d", gs.Workers, workers)
				}
				// Rule bookkeeping is emission-side and must not vary either.
				for rule, n := range rs.RuleFactors {
					if gs.RuleFactors[rule] != n {
						t.Errorf("workers=%d: rule %s produced %d factors, want %d",
							workers, rule, gs.RuleFactors[rule], n)
					}
				}
			}
		})
	}
}

// TestGroundContextCancellation checks that cancellation surfaces from the
// sharded grounding pipeline promptly and leaves no worker goroutines
// behind — both when the context is dead on arrival and when it dies while
// shards are in flight.
func TestGroundContextCancellation(t *testing.T) {
	wl := determinismWorkloads()[0]
	t.Run("pre-canceled", func(t *testing.T) {
		defer testutil.GoroutineLeakCheck(t)()
		s := wl.build(t, 4)
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		if _, err := s.GroundContext(ctx); err == nil {
			t.Fatal("grounding succeeded under a canceled context")
		}
	})
	t.Run("mid-flight", func(t *testing.T) {
		defer testutil.GoroutineLeakCheck(t)()
		s := wl.build(t, 8)
		ctx, cancel := context.WithCancel(context.Background())
		go func() {
			time.Sleep(500 * time.Microsecond)
			cancel()
		}()
		// The race is real: grounding may finish before the cancel lands.
		// Either outcome is fine — the assertion is that no goroutine
		// outlives the call and an error, when reported, is the context's.
		if _, err := s.GroundContext(ctx); err != nil && ctx.Err() == nil {
			t.Fatalf("unexpected non-cancellation error: %v", err)
		}
	})
}
