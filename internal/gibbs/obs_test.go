package gibbs_test

// Observability wiring tests: metric counters, the sweep span and its
// events and convergence diagnostics must behave identically across all
// three sampler variants, and the whole layer must
// disappear when disabled (nil registry, no span on the context — see
// BenchmarkObsOverhead and TestSteadyEpochAllocFreeWithoutSpan).

import (
	"context"
	"testing"

	"repro/internal/factorgraph"
	"repro/internal/gibbs"
	"repro/internal/gibbs/testutil"
	"repro/internal/obs"
)

// obsGraph is a small spatial graph for the wiring tests.
func obsGraph(t *testing.T) *factorgraph.Graph {
	t.Helper()
	g, err := testutil.RandomGraph(testutil.Spec{Vars: 30, Spatial: true, Seed: 99})
	if err != nil {
		t.Fatalf("building graph: %v", err)
	}
	return g
}

// obsSamplers builds one sampler of each kind.
func obsSamplers(t *testing.T, g *factorgraph.Graph) map[string]gibbs.Sampler {
	t.Helper()
	sp, err := gibbs.NewSpatial(g, gibbs.SpatialOptions{Instances: 2, Workers: 2, Seed: 5})
	if err != nil {
		t.Fatalf("NewSpatial: %v", err)
	}
	return map[string]gibbs.Sampler{
		"spatial":    sp,
		"hogwild":    gibbs.NewHogwild(g, 5, 2),
		"sequential": gibbs.NewSequential(g, 5),
	}
}

func TestSamplerObsWiring(t *testing.T) {
	g := obsGraph(t)
	for name, s := range obsSamplers(t, g) {
		t.Run(name, func(t *testing.T) {
			defer s.Close()
			reg := obs.NewRegistry()
			s.SetMetrics(gibbs.NewMetrics(reg))
			tracer := obs.NewTracer(obs.TracerOptions{RingSize: 1})
			root := tracer.StartRequest("run", "")
			var progress []gibbs.Progress
			s.SetProgress(2, func(p gibbs.Progress) { progress = append(progress, p) })

			st, err := s.Run(obs.ContextWithSpan(context.Background(), root), 6)
			if err != nil {
				t.Fatalf("Run: %v", err)
			}
			root.Finish("ok")

			snap := reg.Snapshot()
			if got := snap["sya_epochs_total"]; got != 6 {
				t.Errorf("sya_epochs_total = %v, want 6", got)
			}
			if snap["sya_chunks_total"] < 6 {
				t.Errorf("sya_chunks_total = %v, want >= 6", snap["sya_chunks_total"])
			}

			// The compiled-kernel gauges carry the graph's build stats, the
			// fold included.
			ks := g.Kernels().Stats()
			if ks.FoldedOps == 0 {
				t.Fatal("test premise broken: the graph folds nothing")
			}
			for series, want := range map[string]int{
				"sya_kernel_ops": ks.Ops, "sya_kernel_folded_ops": ks.FoldedOps, "sya_kernel_generic_ops": ks.GenericOps,
			} {
				if got := snap[series]; got != float64(want) {
					t.Errorf("%s = %v, want %d", series, got, want)
				}
			}

			// Diagnostics ran at epochs 2, 4 and 6; the run ends on a
			// diagnostic epoch, so no extra closing reading is taken.
			if len(progress) != 3 {
				t.Fatalf("progress callbacks = %d, want 3 (%v)", len(progress), progress)
			}
			for i, want := range []int{2, 4, 6} {
				if progress[i].Epoch != want || progress[i].Sampler != name {
					t.Errorf("progress[%d] = %+v, want epoch %d sampler %s", i, progress[i], want, name)
				}
			}
			if !st.DiagValid || st.Diag != progress[2].Diag {
				t.Errorf("RunStats diag = %+v (valid %v), want the epoch-6 reading %+v",
					st.Diag, st.DiagValid, progress[2].Diag)
			}
			if name == "spatial" {
				if st.Diag.Spread <= 0 {
					t.Errorf("spatial spread = %v, want > 0 across 2 instances", st.Diag.Spread)
				}
			} else if st.Diag.Spread != 0 {
				t.Errorf("%s spread = %v, want 0 for a single chain", name, st.Diag.Spread)
			}
			if snap["sya_diag_max_delta"] != st.Diag.MaxDelta || snap["sya_diag_spread"] != st.Diag.Spread {
				t.Errorf("diag gauges = (%v, %v), want (%v, %v)",
					snap["sya_diag_max_delta"], snap["sya_diag_spread"], st.Diag.MaxDelta, st.Diag.Spread)
			}

			// The span tree: one sweep stage under the root, noted with the
			// epoch count and stop reason, carrying the diagnostic events —
			// and no per-epoch spans.
			spans := tracer.Recent(1)[0].Spans
			if len(spans) != 5 || spans[1].Name != "gibbs.steady" || spans[1].Parent != 0 ||
				spans[1].Note != "epochs=6 reason=done sampler="+name {
				t.Fatalf("span tree = %+v, want root, one gibbs.steady sweep and its 3 events", spans)
			}
			events := map[string]int{}
			for _, sp := range spans[2:] {
				if sp.Parent != 1 {
					t.Errorf("event %s hangs off span %d, want the sweep", sp.Name, sp.Parent)
				}
				events[sp.Name]++
			}
			if len(events) != 1 || events["diag"] != 3 {
				t.Errorf("sweep events = %v, want 3 diag", events)
			}
		})
	}
}

// TestSteadyEpochAllocFreeWithoutSpan pins the disabled path on all three
// schedules: with no span on the context (and no registry) a steady epoch
// through the context-aware entry point allocates nothing.
func TestSteadyEpochAllocFreeWithoutSpan(t *testing.T) {
	g := obsGraph(t)
	ctx := context.Background()
	for name, s := range obsSamplers(t, g) {
		if _, err := s.Run(ctx, 3); err != nil { // warm the pool and scratch
			t.Fatal(err)
		}
		if allocs := testing.AllocsPerRun(5, func() { s.Run(ctx, 1) }); allocs > 0 {
			t.Errorf("%s: steady epoch without a span allocated %.1f times", name, allocs)
		}
		s.Close()
	}
}

func TestPreCanceledRunStillReportsDiag(t *testing.T) {
	g := obsGraph(t)
	for name, s := range obsSamplers(t, g) {
		t.Run(name, func(t *testing.T) {
			defer s.Close()
			s.SetProgress(1, nil)
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			st, err := s.Run(ctx, 10)
			if err != nil {
				t.Fatalf("Run: %v", err)
			}
			if st.Reason != gibbs.ReasonCanceled {
				t.Fatalf("reason = %v, want canceled", st.Reason)
			}
			// The closing reading is still taken so callers see where the
			// chains stood — at epoch 0 with nothing sampled, all zeros.
			if !st.DiagValid || st.Diag.Epoch != 0 || st.Diag.MaxDelta != 0 {
				t.Errorf("diag = %+v (valid %v), want a zero epoch-0 reading", st.Diag, st.DiagValid)
			}
		})
	}
}

// BenchmarkObsOverhead compares the fully-instrumented epoch path against
// the disabled one on the mid-size harness graph. The two sub-benchmarks
// must stay within noise of each other: with a nil registry and no span on
// the context the instrumentation is one branch per epoch.
func BenchmarkObsOverhead(b *testing.B) {
	run := func(b *testing.B, instrument bool) {
		g := benchSamplerGraph(b)
		s, err := gibbs.NewSpatial(g, gibbs.SpatialOptions{Levels: 6, Instances: 2, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		defer s.Close()
		if instrument {
			s.SetMetrics(gibbs.NewMetrics(obs.NewRegistry()))
		}
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
	b.Run("disabled", func(b *testing.B) { run(b, false) })
	b.Run("metrics", func(b *testing.B) { run(b, true) })
}
