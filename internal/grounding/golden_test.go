package grounding_test

// Ground-graph goldens: TestGroundingWorkerInvariance compares worker counts
// inside one build, so nothing else pins the grounded graph across commits.
// The hashes below were recorded on the commit before the planner learned to
// order joins by estimated output (PR 19); a planner, executor or emission
// change that claims "bit-equal" must pass them untouched. The categorical
// row (Fig. 11's program, pruning mask included) was recorded later, on the
// last commit whose emission rendered every head atom's key per row.

import (
	"encoding/binary"
	"hash"
	"hash/fnv"
	"math"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/geom"
	"repro/internal/grounding"
	"repro/internal/storage"
)

// gwdbSystem loads the GWDB program and n generated wells at the benchmark's
// constant density (extent, settlement clusters and field bumps all grow
// with n; see benchmark/README.md "Load shape").
func gwdbSystem(t testing.TB, n, workers int) *core.System {
	t.Helper()
	extent := 600 * math.Sqrt(float64(n)/600)
	scale := max(1, n/600)
	data := datagen.Wells(datagen.WellsConfig{
		N: n, Seed: 1, Extent: extent,
		Clusters: 12 * scale, Bumps: 15 * scale,
		CorrelationLength: math.Min(100, extent/6),
	})
	wells, evidence := data.Rows()
	return loadedSystem(t, core.Config{
		Engine:           core.EngineSya,
		Metric:           geom.Euclidean,
		Bandwidth:        30,
		SpatialScale:     0.5,
		SupportRadius:    75,
		MaxNeighbors:     40,
		PyramidLevels:    6,
		Workers:          workers,
		Seed:             1,
		SkipFactorTables: true,
	}, datagen.GWDBProgram, "Well", wells, "WellEvidence", evidence)
}

// nyccasSystem loads the NYCCAS program and a side×side generated raster at
// the benchmark's cell pitch.
func nyccasSystem(t testing.TB, side, workers int) *core.System {
	t.Helper()
	extent := float64(side) * 30.0 / 22.0
	cell := extent / float64(side)
	data := datagen.Raster(datagen.RasterConfig{Side: side, Seed: 1, Extent: extent})
	cells, evidence := data.Rows()
	return loadedSystem(t, core.Config{
		Engine:           core.EngineSya,
		Metric:           geom.Euclidean,
		Bandwidth:        2 * cell,
		SpatialScale:     0.5,
		SupportRadius:    4 * cell,
		MaxNeighbors:     40,
		PyramidLevels:    6,
		Workers:          workers,
		Seed:             1,
		SkipFactorTables: true,
	}, datagen.NYCCASProgram, "Cell", cells, "CellEvidence", evidence)
}

// gwdbCategoricalSystem loads Fig. 11's program: n generated wells on
// Fig. 11's 600-unit extent, h = 10 risk levels, pruned at T = 0.5.
func gwdbCategoricalSystem(t testing.TB, n, workers int) *core.System {
	t.Helper()
	data := datagen.Wells(datagen.WellsConfig{N: n, Seed: 1, Extent: 600})
	wells, _ := data.Rows()
	return loadedSystem(t, core.Config{
		Engine:         core.EngineSya,
		Metric:         geom.Euclidean,
		Bandwidth:      30,
		SupportRadius:  75,
		MaxNeighbors:   40,
		PyramidLevels:  6,
		Workers:        workers,
		Seed:           1,
		PruneThreshold: 0.5,
	}, datagen.GWDBCategoricalProgram, "Well", wells, "LevelEvidence", data.LevelRows(10))
}

func loadedSystem(t testing.TB, cfg core.Config, program, rel string, rows []storage.Row, evRel string, evidence []storage.Row) *core.System {
	t.Helper()
	s := core.NewSystem(cfg)
	if err := s.LoadProgram(program); err != nil {
		t.Fatal(err)
	}
	if err := s.LoadRows(rel, rows); err != nil {
		t.Fatal(err)
	}
	if err := s.LoadRows(evRel, evidence); err != nil {
		t.Fatal(err)
	}
	return s
}

// hashGround is FNV-64a over the ordered factor list (kind, weight bits,
// vars, negations), the ordered spatial pairs, the VarID keys in variable
// order and, for a categorical relation, its pruning mask (binary graphs
// have none, so their hashes predate the mask term).
func hashGround(t *testing.T, res *grounding.Result) uint64 {
	t.Helper()
	h := fnv.New64a()
	g := res.Graph
	putU64(h, uint64(g.NumFactors()))
	for f := int32(0); f < int32(g.NumFactors()); f++ {
		putU64(h, uint64(g.FactorKindOf(f)))
		putU64(h, math.Float64bits(g.FactorWeightOf(f)))
		vars, neg := g.FactorVars(f)
		putU64(h, uint64(len(vars)))
		for k, v := range vars {
			putU64(h, uint64(v))
			if neg[k] {
				h.Write([]byte{1})
			} else {
				h.Write([]byte{0})
			}
		}
	}
	putU64(h, uint64(g.NumSpatialFactors()))
	for s := int32(0); s < int32(g.NumSpatialFactors()); s++ {
		a, b, w := g.SpatialPair(s)
		putU64(h, uint64(a))
		putU64(h, uint64(b))
		putU64(h, math.Float64bits(w))
	}
	keys := make([]string, g.NumVars())
	for k, vid := range res.VarID {
		keys[vid] = k
	}
	if len(res.Keys) != len(keys) {
		t.Fatalf("Keys has %d entries for %d variables", len(res.Keys), len(keys))
	}
	for vid, k := range keys {
		if res.Keys[vid] != k {
			t.Fatalf("Keys[%d] = %q, VarID maps %q to it", vid, res.Keys[vid], k)
		}
		if k == "" {
			t.Fatalf("variable %d has no VarID key", vid)
		}
		h.Write([]byte(k))
		h.Write([]byte{0})
	}
	for rel := int32(0); rel < int32(len(res.RelationIndex)); rel++ {
		if mask, dom := g.AllowedPairMask(rel); mask != nil {
			putU64(h, uint64(rel))
			putU64(h, uint64(dom))
			for _, ok := range mask {
				if ok {
					h.Write([]byte{1})
				} else {
					h.Write([]byte{0})
				}
			}
		}
	}
	return h.Sum64()
}

func putU64(h hash.Hash64, v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	h.Write(b[:])
}

func TestGroundGraphGoldens(t *testing.T) {
	cases := []struct {
		name  string
		build func(t *testing.T, workers int) *core.System
		want  uint64
	}{
		{"gwdb-600", func(t *testing.T, w int) *core.System { return gwdbSystem(t, 600, w) }, 0x1b7045c6bbc3f3bf},
		{"nyccas-16", func(t *testing.T, w int) *core.System { return nyccasSystem(t, 16, w) }, 0x669fdfb3be5471f2},
		{"ebola", func(t *testing.T, w int) *core.System {
			county, evidence := datagen.EbolaRows(datagen.EbolaCounties())
			return loadedSystem(t, core.Config{
				Engine:        core.EngineSya,
				Metric:        geom.HaversineMiles,
				Bandwidth:     60,
				PyramidLevels: 4,
				Workers:       w,
				Seed:          1,
			}, datagen.EbolaProgram, "County", county, "CountyEvidence", evidence)
		}, 0xe168e5ef38f6be16},
		{"gwdb-categorical-300", func(t *testing.T, w int) *core.System { return gwdbCategoricalSystem(t, 300, w) }, 0x0e3d50d7f03c0c6a},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for _, workers := range []int{1, 3} {
				res, err := tc.build(t, workers).Ground()
				if err != nil {
					t.Fatalf("workers=%d: %v", workers, err)
				}
				if got := hashGround(t, res); got != tc.want {
					t.Errorf("workers=%d: ground-graph hash %#x, want %#x (%d vars, %d factors, %d pairs)",
						workers, got, tc.want, res.Stats.Vars, res.Stats.LogicalFactors, res.Stats.SpatialPairs)
				}
			}
		})
	}
}

// TestGroundAllocScalesLinearly is the host-noise-free guard on grounding's
// size exponent: bytes allocated by one sequential Ground repeat exactly from
// run to run, so their ratio across a 4× input at constant density is a
// count, not a timing. A join order that materialises the N²/k equi-join
// before the distance test allocates 11× here; output-proportional grounding
// stays near 5×.
func TestGroundAllocScalesLinearly(t *testing.T) {
	groundBytes := func(n int) uint64 {
		s := gwdbSystem(t, n, 1)
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		if _, err := s.Ground(); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	small, large := groundBytes(600), groundBytes(2400)
	ratio := float64(large) / float64(small)
	t.Logf("Ground allocates %.1f MB at 600 wells, %.1f MB at 2,400: ratio %.2f",
		float64(small)/(1<<20), float64(large)/(1<<20), ratio)
	if ratio > 6 {
		t.Errorf("Ground allocation grew %.2f× for 4× the wells, want ≤ 6×", ratio)
	}
}

// TestGroundAllocations guards grounding's per-row emission: one sequential
// Ground of GWDB-600 makes at most 20 K heap allocations, a count that
// repeats from run to run. Emission that renders each head atom's key, or a
// SQL stage that allocates each joined tuple or projected row on its own,
// makes several allocations per result row, ≈ 72 K here; identity-keyed
// probes and slab-carved rows make ≈ 5 K.
func TestGroundAllocations(t *testing.T) {
	s := gwdbSystem(t, 600, 1)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	if _, err := s.Ground(); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	mallocs := after.Mallocs - before.Mallocs
	t.Logf("one Ground of GWDB-600: %d allocations", mallocs)
	if mallocs > 20000 {
		t.Errorf("one Ground of GWDB-600 made %d allocations, want ≤ 20,000", mallocs)
	}
}
