package gibbs_test

// Steady-state epoch benchmarks for the pooled sampler core. The
// ReportAllocs numbers are the acceptance gauge for the persistent worker
// pool: after warm-up, an epoch of the spatial and hogwild samplers must
// run at 0 allocs/op (also enforced by the AllocsPerRun tests in
// harness_test.go). For working measurements only: the recorded numbers are
// the benchmark's gibbs.epoch_us and gibbs.alloc_per_epoch rows.

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/factorgraph"
	"repro/internal/geom"
	"repro/internal/gibbs"
	"repro/internal/gibbs/testutil"
	"repro/internal/storage"
)

// benchSamplerGraph is a mid-size spatial graph (~2000 vars) comparable to
// the reduced-scale GWDB workloads of internal/bench.
func benchSamplerGraph(tb testing.TB) *factorgraph.Graph {
	tb.Helper()
	g, err := testutil.RandomGraph(testutil.Spec{
		Vars: 2000, Domain: 2, Spatial: true,
		LogicalFactors: 1500, SpatialPairs: 3500,
		EvidencePer1000: 150, Seed: 424242,
	})
	if err != nil {
		tb.Fatal(err)
	}
	return g
}

// BenchmarkSpatialEpoch times a steady spatial epoch on the random harness
// graph. Its random factors and pairs rarely join the same two variables
// (1.001 incidences per neighbour), so it is the control for the binary
// log-odds programs' per-neighbour merge: what it gains comes from the
// one-accumulator form alone, what BenchmarkKBEpoch gains beyond that from
// the merge.
func BenchmarkSpatialEpoch(b *testing.B) {
	benchEpoch(b, benchSamplerGraph(b))
}

// BenchmarkKBEpoch is BenchmarkSpatialEpoch on the two datagen knowledge
// bases, grounded the way BenchmarkLearnIteration and the grounding goldens
// build them: GWDB at 600 wells and NYCCAS on a 32×32 raster. A KB's rules
// are distance joins over the neighbourhood its spatial factors cover, so a
// neighbour carries several incidences (1.61 on GWDB-600, 1.58 on
// NYCCAS-32), which one log-odds entry sums.
func BenchmarkKBEpoch(b *testing.B) {
	wells, wellEvidence := datagen.Wells(datagen.WellsConfig{
		N: 600, Seed: 1, Extent: 600, Clusters: 12, Bumps: 15, CorrelationLength: 100,
	}).Rows()
	const side = 32
	extent := side * 30.0 / 22.0
	cell := extent / side
	cells, cellEvidence := datagen.Raster(datagen.RasterConfig{Side: side, Seed: 1, Extent: extent}).Rows()
	for _, kb := range []struct {
		name, program, rel, evRel string
		cfg                       core.Config
		rows, evidence            []storage.Row
	}{
		{"gwdb600", datagen.GWDBProgram, "Well", "WellEvidence", core.Config{
			Engine: core.EngineSya, Metric: geom.Euclidean, Bandwidth: 30, SpatialScale: 0.5,
			SupportRadius: 75, MaxNeighbors: 40, PyramidLevels: 6, Seed: 1,
		}, wells, wellEvidence},
		{"nyccas32", datagen.NYCCASProgram, "Cell", "CellEvidence", core.Config{
			Engine: core.EngineSya, Metric: geom.Euclidean, Bandwidth: 2 * cell, SpatialScale: 0.5,
			SupportRadius: 4 * cell, MaxNeighbors: 40, PyramidLevels: 6, Seed: 1,
		}, cells, cellEvidence},
	} {
		b.Run(kb.name, func(b *testing.B) {
			sys := core.NewSystem(kb.cfg)
			defer sys.Close()
			if err := sys.LoadProgram(kb.program); err != nil {
				b.Fatal(err)
			}
			if err := sys.LoadRows(kb.rel, kb.rows); err != nil {
				b.Fatal(err)
			}
			if err := sys.LoadRows(kb.evRel, kb.evidence); err != nil {
				b.Fatal(err)
			}
			res, err := sys.Ground()
			if err != nil {
				b.Fatal(err)
			}
			benchEpoch(b, res.Graph)
		})
	}
}

// benchEpoch times one steady spatial epoch on g after three warm-up ones.
func benchEpoch(b *testing.B, g *factorgraph.Graph) {
	s, err := gibbs.NewSpatial(g, gibbs.SpatialOptions{Levels: 6, Instances: 2, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	s.RunEpochs(3)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.RunEpochs(1)
	}
}

// BenchmarkCategoricalEpoch is BenchmarkSpatialEpoch at categorical domains
// under a pruning mask (the paper's Fig. 11 path, Eq. 4 factors): every draw
// scores h candidates through the table ops, which fold nothing.
func BenchmarkCategoricalEpoch(b *testing.B) {
	for _, h := range []int32{3, 10} {
		b.Run(fmt.Sprintf("h=%d", h), func(b *testing.B) {
			g, err := testutil.RandomGraph(testutil.Spec{
				Vars: 2000, Domain: h, Spatial: true, PruneMask: true,
				LogicalFactors: 1500, SpatialPairs: 3500,
				EvidencePer1000: 150, Seed: 424242,
			})
			if err != nil {
				b.Fatal(err)
			}
			benchEpoch(b, g)
		})
	}
}

func BenchmarkHogwildEpoch(b *testing.B) {
	g := benchSamplerGraph(b)
	h := gibbs.NewHogwild(g, 1, 0)
	defer h.Close()
	h.RunEpochs(3)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.RunEpochs(1)
	}
}

func BenchmarkSequentialEpoch(b *testing.B) {
	g := benchSamplerGraph(b)
	s := gibbs.NewSequential(g, 1)
	s.RunEpochs(3)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.RunEpochs(1)
	}
}

// BenchmarkSpatialEpochCtx is BenchmarkSpatialEpoch through the
// context-aware path with a live (never-fired) context: the difference to
// BenchmarkSpatialEpoch is the whole cost of cancellation plumbing — one
// ctx.Err() per epoch plus a select per conclique group.
func BenchmarkSpatialEpochCtx(b *testing.B) {
	g := benchSamplerGraph(b)
	s, err := gibbs.NewSpatial(g, gibbs.SpatialOptions{Levels: 6, Instances: 2, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	ctx := context.Background()
	if _, err := s.Run(ctx, 3); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Run(ctx, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSpatialCancelLatency measures how long a Run takes to return
// after its context fires mid-run: each iteration starts a long run with an
// already-expired context budget one epoch in. The reported ns/op bounds the
// sampler's worst-case responsiveness to ^C (one chunk of work plus barrier
// teardown), not throughput.
func BenchmarkSpatialCancelLatency(b *testing.B) {
	g := benchSamplerGraph(b)
	s, err := gibbs.NewSpatial(g, gibbs.SpatialOptions{Levels: 6, Instances: 2, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	s.RunEpochs(3)
	hooks := gibbs.TestHooks{}
	var cancel context.CancelFunc
	hooks.AfterEpoch = func(int) { cancel() }
	s.SetTestHooks(hooks)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var ctx context.Context
		ctx, cancel = context.WithCancel(context.Background())
		st, err := s.Run(ctx, 1<<30)
		if err != nil {
			b.Fatal(err)
		}
		if st.Reason != gibbs.ReasonCanceled {
			b.Fatalf("reason = %v, want canceled", st.Reason)
		}
		cancel()
	}
}

// BenchmarkSpatialIncremental measures the restricted sweep after one
// evidence update (the Fig. 13a latency path).
func BenchmarkSpatialIncremental(b *testing.B) {
	g := benchSamplerGraph(b)
	s, err := gibbs.NewSpatial(g, gibbs.SpatialOptions{Levels: 6, Instances: 2, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	s.RunEpochs(3)
	var pin factorgraph.VarID = -1
	g.Vars(func(id factorgraph.VarID, v factorgraph.Variable) bool {
		if v.Evidence == factorgraph.NoEvidence && v.HasLoc {
			pin = id
			return false
		}
		return true
	})
	if pin < 0 {
		b.Fatal("no query variable to pin")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.UpdateEvidence(pin, int32(i%2)); err != nil {
			b.Fatal(err)
		}
		if _, err := s.RunIncrementalContext(context.Background(), 1); err != nil {
			b.Fatal(err)
		}
	}
}
