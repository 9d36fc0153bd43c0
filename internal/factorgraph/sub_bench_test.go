package factorgraph_test

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/factorgraph"
	"repro/internal/geom"
)

// halfOfGWDB grounds GWDB at n wells (the benchmark's constant density) and
// returns its graph with the first half of its variable ids as an interior.
func halfOfGWDB(tb testing.TB, n int) (*factorgraph.Graph, []factorgraph.VarID) {
	tb.Helper()
	extent := 600 * math.Sqrt(float64(n)/600)
	scale := max(1, n/600)
	wells, evidence := datagen.Wells(datagen.WellsConfig{
		N: n, Seed: 1, Extent: extent,
		Clusters: 12 * scale, Bumps: 15 * scale,
		CorrelationLength: math.Min(100, extent/6),
	}).Rows()
	s := core.NewSystem(core.Config{
		Engine: core.EngineSya, Metric: geom.Euclidean, Bandwidth: 30, SpatialScale: 0.5,
		SupportRadius: 75, MaxNeighbors: 40, PyramidLevels: 6, Seed: 1, SkipFactorTables: true,
	})
	defer s.Close()
	if err := s.LoadProgram(datagen.GWDBProgram); err != nil {
		tb.Fatal(err)
	}
	if err := s.LoadRows("Well", wells); err != nil {
		tb.Fatal(err)
	}
	if err := s.LoadRows("WellEvidence", evidence); err != nil {
		tb.Fatal(err)
	}
	res, err := s.Ground()
	if err != nil {
		tb.Fatal(err)
	}
	half := make([]factorgraph.VarID, res.Graph.NumVars()/2)
	for i := range half {
		half[i] = factorgraph.VarID(i)
	}
	return res.Graph, half
}

func freezeAtZero(factorgraph.VarID) int32 { return 0 }

// TestSubAllocs bounds Sub's bookkeeping: cutting half of GWDB-3000 makes
// ≤ 250 heap allocations, a count that repeats run to run. Hash-set
// membership and sorted id sets make ≈ 69,000; bitsets over the parent's ids
// and a dense renumbering make ≈ 50.
func TestSubAllocs(t *testing.T) {
	g, interior := halfOfGWDB(t, 3000)
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := factorgraph.Sub(g, interior, freezeAtZero); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("Sub over %d of %d variables: %.0f allocations", len(interior), g.NumVars(), allocs)
	if allocs > 250 {
		t.Errorf("Sub over half of GWDB-3000 made %.0f allocations, want ≤ 250", allocs)
	}
}

// BenchmarkSub times Sub over half of GWDB-3000, the cut each of
// shard_infer's two shards builds.
func BenchmarkSub(b *testing.B) {
	g, interior := halfOfGWDB(b, 3000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := factorgraph.Sub(g, interior, freezeAtZero); err != nil {
			b.Fatal(err)
		}
	}
}
