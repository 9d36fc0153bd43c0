package gibbs_test

// Fault-injection tests for the fault-tolerant runtime: injected worker
// panics must surface as a single *WorkerPanicError from the epoch barrier
// (no deadlocked wait, no leaked goroutines, every marginal still
// normalised), and context cancellation must stop a run at a chunk boundary
// while keeping the partial marginals. The faults are driven through the
// TestHooks plane (see internal/gibbs/testutil/faults.go) across all three
// sampler variants, pooled and with one worker running every chunk on the
// caller; the CI race job runs this file under -race.

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/factorgraph"
	"repro/internal/gibbs"
	"repro/internal/gibbs/testutil"
)

// faultGraph builds the spatial harness graph used by the fault tests.
func faultGraph(t *testing.T) *factorgraph.Graph {
	t.Helper()
	g, err := testutil.RandomGraph(testutil.Spec{Vars: 24, Spatial: true, Seed: 77})
	if err != nil {
		t.Fatalf("building graph: %v", err)
	}
	return g
}

// pooledSamplers builds the two pool-backed samplers for a subtest run, at
// two workers and at one (whose chunks all run on the caller).
func pooledSamplers(t *testing.T, g *factorgraph.Graph) map[string]gibbs.Sampler {
	t.Helper()
	sp, err := gibbs.NewSpatial(g, gibbs.SpatialOptions{Instances: 2, Workers: 2, Seed: 11})
	if err != nil {
		t.Fatalf("NewSpatial: %v", err)
	}
	sp1, err := gibbs.NewSpatial(g, gibbs.SpatialOptions{Instances: 2, Workers: 1, Seed: 11})
	if err != nil {
		t.Fatalf("NewSpatial: %v", err)
	}
	return map[string]gibbs.Sampler{
		"spatial":          sp,
		"hogwild":          gibbs.NewHogwild(g, 11, 2),
		"spatial_workers1": sp1,
		"hogwild_workers1": gibbs.NewHogwild(g, 11, 1),
	}
}

type hooked interface {
	SetTestHooks(gibbs.TestHooks)
}

func TestWorkerPanicSurfacesWithoutLeakOrDeadlock(t *testing.T) {
	defer testutil.GoroutineLeakCheck(t)()
	g := faultGraph(t)
	for name, s := range pooledSamplers(t, g) {
		t.Run(name, func(t *testing.T) {
			defer s.Close()
			s.(hooked).SetTestHooks(gibbs.TestHooks{BeforeChunk: testutil.PanicAtChunk(1)})

			// The epoch barrier must return (not deadlock) and surface the
			// panic as an error.
			done := make(chan struct{})
			var st gibbs.RunStats
			var err error
			go func() {
				defer close(done)
				st, err = s.Run(context.Background(), 50)
			}()
			select {
			case <-done:
			case <-time.After(30 * time.Second):
				t.Fatal("Run deadlocked on worker panic")
			}

			var wp *gibbs.WorkerPanicError
			if !errors.As(err, &wp) {
				t.Fatalf("Run error = %v, want *WorkerPanicError", err)
			}
			if !strings.Contains(wp.Error(), "injected fault at chunk 1") {
				t.Errorf("panic value not preserved: %v", wp)
			}
			if wp.Stack == "" {
				t.Error("worker stack not captured")
			}
			if st.Reason != gibbs.ReasonPanic {
				t.Errorf("Reason = %v, want ReasonPanic", st.Reason)
			}

			// The poison is sticky: the sampler refuses to keep sampling on
			// a possibly-inconsistent chain.
			if _, err2 := s.Run(context.Background(), 1); !errors.As(err2, &wp) {
				t.Errorf("second Run error = %v, want the sticky *WorkerPanicError", err2)
			}

			// The counters keep the draws of the epoch in flight: every
			// query distribution must still be normalized, not torn.
			for v, m := range s.Marginals() {
				var sum float64
				for _, p := range m {
					sum += p
				}
				if sum < 0.999 || sum > 1.001 {
					t.Fatalf("marginal %d not normalized after panic: %v", v, m)
				}
			}
		})
	}
}

// TestSequentialHookPanicSurfaces: the sequential sampler's sweep runs on the
// caller under the same fault envelope as a pooled chunk, so an injected
// panic surfaces as the sticky *WorkerPanicError instead of unwinding Run.
func TestSequentialHookPanicSurfaces(t *testing.T) {
	g := faultGraph(t)
	s := gibbs.NewSequential(g, 11)
	defer s.Close()
	s.SetTestHooks(gibbs.TestHooks{BeforeChunk: testutil.PanicAtChunk(3)})
	st, err := s.Run(context.Background(), 50)
	var wp *gibbs.WorkerPanicError
	if !errors.As(err, &wp) {
		t.Fatalf("Run error = %v, want *WorkerPanicError", err)
	}
	if !strings.Contains(wp.Error(), "injected fault at chunk 3") {
		t.Errorf("panic value not preserved: %v", wp)
	}
	if st.Reason != gibbs.ReasonPanic || st.Epochs != 3 {
		t.Errorf("got %+v, want 3 epochs, ReasonPanic", st)
	}
	if _, err2 := s.Run(context.Background(), 1); !errors.As(err2, &wp) {
		t.Errorf("second Run error = %v, want the sticky *WorkerPanicError", err2)
	}
}

// TestOneWorkerRunStartsNoGoroutine: a pool of one worker runs every chunk
// on the caller, so a run leaves the goroutine count where it found it.
func TestOneWorkerRunStartsNoGoroutine(t *testing.T) {
	g := faultGraph(t)
	sp, err := gibbs.NewSpatial(g, gibbs.SpatialOptions{Instances: 2, Workers: 1, Seed: 11})
	if err != nil {
		t.Fatalf("NewSpatial: %v", err)
	}
	samplers := map[string]gibbs.Sampler{
		"spatial":    sp,
		"hogwild":    gibbs.NewHogwild(g, 11, 1),
		"sequential": gibbs.NewSequential(g, 11),
	}
	for name, s := range samplers {
		t.Run(name, func(t *testing.T) {
			defer s.Close()
			// Let the workers of pools closed earlier finish exiting, so
			// none leaves during Run and masks one Run started.
			base := runtime.NumGoroutine()
			for i := 0; i < 200; i++ {
				time.Sleep(5 * time.Millisecond)
				n := runtime.NumGoroutine()
				if n == base {
					break
				}
				base = n
			}
			if _, err := s.Run(context.Background(), 5); err != nil {
				t.Fatalf("Run: %v", err)
			}
			if n := runtime.NumGoroutine(); n != base {
				t.Errorf("goroutines: %d before Run, %d after", base, n)
			}
		})
	}
}

func TestCancelStopsRunWithPartialMarginals(t *testing.T) {
	defer testutil.GoroutineLeakCheck(t)()
	g := faultGraph(t)
	samplers := pooledSamplers(t, g)
	samplers["sequential"] = gibbs.NewSequential(g, 11)
	for name, s := range samplers {
		t.Run(name, func(t *testing.T) {
			defer s.Close()
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			const stopAt = 3
			s.(hooked).SetTestHooks(gibbs.TestHooks{AfterEpoch: testutil.CancelAtEpoch(cancel, stopAt)})

			st, err := s.Run(ctx, 1000)
			if err != nil {
				t.Fatalf("Run: %v", err)
			}
			if st.Reason != gibbs.ReasonCanceled {
				t.Errorf("Reason = %v, want ReasonCanceled", st.Reason)
			}
			// The cancel fires at the stopAt-th epoch's barrier; the next
			// epoch's entry check must catch it, so exactly stopAt full
			// epochs complete — far short of the 1000 requested.
			if st.Epochs != stopAt {
				t.Errorf("Epochs = %d, want %d", st.Epochs, stopAt)
			}
			for v, m := range s.Marginals() {
				var sum float64
				for _, p := range m {
					sum += p
				}
				if sum < 0.999 || sum > 1.001 {
					t.Fatalf("partial marginal %d not normalized: %v", v, m)
				}
			}

			// The sampler is not poisoned by cancellation: a fresh context
			// continues the chain.
			s.(hooked).SetTestHooks(gibbs.TestHooks{})
			st2, err := s.Run(context.Background(), 2)
			if err != nil || st2.Epochs != 2 || st2.Reason != gibbs.ReasonDone {
				t.Errorf("post-cancel Run = %+v, %v; want 2 epochs, ReasonDone", st2, err)
			}
		})
	}
}

func TestPreCanceledContextRunsNothing(t *testing.T) {
	g := faultGraph(t)
	samplers := pooledSamplers(t, g)
	samplers["sequential"] = gibbs.NewSequential(g, 11)
	for name, s := range samplers {
		t.Run(name, func(t *testing.T) {
			defer s.Close()
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			st, err := s.Run(ctx, 10)
			if err != nil {
				t.Fatalf("Run: %v", err)
			}
			if st.Epochs != 0 || st.Reason != gibbs.ReasonCanceled {
				t.Errorf("got %+v, want 0 epochs, ReasonCanceled", st)
			}
			if s.TotalEpochs() != 0 {
				t.Errorf("TotalEpochs = %d, want 0", s.TotalEpochs())
			}
		})
	}
}

func TestDeadlineReportsReasonDeadline(t *testing.T) {
	g := faultGraph(t)
	sp, err := gibbs.NewSpatial(g, gibbs.SpatialOptions{Instances: 2, Workers: 2, Seed: 11})
	if err != nil {
		t.Fatalf("NewSpatial: %v", err)
	}
	defer sp.Close()
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	st, err := sp.Run(ctx, 10)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if st.Reason != gibbs.ReasonDeadline {
		t.Errorf("Reason = %v, want ReasonDeadline", st.Reason)
	}
}

func TestStopReasonStrings(t *testing.T) {
	want := map[gibbs.StopReason]string{
		gibbs.ReasonDone:     "done",
		gibbs.ReasonCanceled: "canceled",
		gibbs.ReasonDeadline: "deadline",
		gibbs.ReasonPanic:    "panic",
		gibbs.StopReason(99): "unknown",
	}
	for r, s := range want {
		if r.String() != s {
			t.Errorf("StopReason(%d).String() = %q, want %q", r, r.String(), s)
		}
	}
}

func TestRunIncrementalContextCancel(t *testing.T) {
	g := faultGraph(t)
	sp, err := gibbs.NewSpatial(g, gibbs.SpatialOptions{Instances: 2, Workers: 2, Seed: 11})
	if err != nil {
		t.Fatalf("NewSpatial: %v", err)
	}
	defer sp.Close()
	if _, err := sp.Run(context.Background(), 5); err != nil {
		t.Fatalf("warm-up run: %v", err)
	}
	// Pin the first query variable, then cancel the incremental resample
	// after two of its epochs.
	var pinTarget factorgraph.VarID = -1
	g.Vars(func(id factorgraph.VarID, v factorgraph.Variable) bool {
		if v.Evidence == factorgraph.NoEvidence {
			pinTarget = id
			return false
		}
		return true
	})
	if pinTarget < 0 {
		t.Fatal("no query variable to pin")
	}
	if err := sp.UpdateEvidence(pinTarget, 1); err != nil {
		t.Fatalf("UpdateEvidence: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sp.SetTestHooks(gibbs.TestHooks{AfterEpoch: testutil.CancelAtEpoch(cancel, sp.TotalEpochs()+2)})
	st, err := sp.RunIncrementalContext(ctx, 1000)
	if err != nil {
		t.Fatalf("RunIncrementalContext: %v", err)
	}
	if st.Reason != gibbs.ReasonCanceled || st.Epochs != 2 {
		t.Errorf("got %+v, want 2 epochs, ReasonCanceled", st)
	}
}
