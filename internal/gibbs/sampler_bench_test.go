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

	"repro/internal/factorgraph"
	"repro/internal/gibbs"
	"repro/internal/gibbs/testutil"
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

func BenchmarkSpatialEpoch(b *testing.B) {
	g := benchSamplerGraph(b)
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
		s.RunIncremental(1)
	}
}
