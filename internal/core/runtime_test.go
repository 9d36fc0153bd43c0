package core

// System-level tests of the fault-tolerant runtime: end-to-end accuracy of
// both engines against exact marginals (the statistical harness extended to
// EngineDeepDive, which previously was only covered at the sampler layer),
// context cancellation through the public facade, and sampler lifecycle
// (Close/reuse).

import (
	"context"
	"testing"

	"repro/internal/datagen"
	"repro/internal/factorgraph"
	"repro/internal/gibbs"
	"repro/internal/gibbs/testutil"
	"repro/internal/learn"
)

// engineExactTol is the end-to-end total-variation tolerance. The ebola
// graph has four variables; at these epoch counts the Monte-Carlo error is
// well inside it.
const engineExactTol = 0.04

// exactMarginals enumerates the ground graph.
func exactMarginals(t *testing.T, g *factorgraph.Graph) [][]float64 {
	t.Helper()
	want, err := testutil.Exact(g)
	if err != nil {
		t.Fatalf("exact marginals: %v", err)
	}
	return want
}

func TestEnginesMatchExactMarginalsEndToEnd(t *testing.T) {
	for _, engine := range []Engine{EngineSya, EngineDeepDive} {
		t.Run(engine.String(), func(t *testing.T) {
			s := newEbolaSystem(t, Config{Engine: engine, Seed: 5, Epochs: 20000})
			defer s.Close()
			res, err := s.Ground()
			if err != nil {
				t.Fatal(err)
			}
			scores, err := s.Infer()
			if err != nil {
				t.Fatal(err)
			}
			want := exactMarginals(t, res.Graph)
			if tv := testutil.MaxTV(scores.Marginals, want); tv > engineExactTol {
				t.Errorf("%s end-to-end max TV vs exact = %v, want <= %v", engine, tv, engineExactTol)
			}
		})
	}
}

func TestInferContextCancellation(t *testing.T) {
	s := newEbolaSystem(t, Config{Engine: EngineSya, Seed: 5})
	defer s.Close()
	if _, err := s.Ground(); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	scores, st, err := s.InferContext(ctx, 5000)
	if err != nil {
		t.Fatalf("InferContext: %v", err)
	}
	if st.Reason != gibbs.ReasonCanceled || st.Epochs != 0 {
		t.Errorf("stats = %+v, want 0 epochs, ReasonCanceled", st)
	}
	if scores == nil {
		t.Fatal("cancelled inference returned no scores")
	}
	// Partial (here: zero-sample) marginals are still well-formed.
	for v, m := range scores.Marginals {
		var sum float64
		for _, p := range m {
			sum += p
		}
		if sum < 0.999 || sum > 1.001 {
			t.Fatalf("marginal %d not normalized: %v", v, m)
		}
	}
	// A live context finishes the job on the same (reused) sampler.
	_, st2, err := s.InferContext(context.Background(), 100)
	if err != nil || st2.Reason != gibbs.ReasonDone {
		t.Fatalf("follow-up InferContext = %+v, %v", st2, err)
	}
}

func TestSamplerReusedAcrossInferCallsAndClosed(t *testing.T) {
	s := newEbolaSystem(t, Config{Engine: EngineSya, Seed: 5})
	if _, err := s.Ground(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.InferEpochs(50); err != nil {
		t.Fatal(err)
	}
	first := s.Sampler()
	if first == nil {
		t.Fatal("no live sampler after Infer")
	}
	if _, err := s.InferEpochs(50); err != nil {
		t.Fatal(err)
	}
	if s.Sampler() != first {
		t.Error("sampler was rebuilt between Infer calls instead of reused")
	}
	s.Close()
	if s.Sampler() != nil {
		t.Error("sampler still live after Close")
	}
	s.Close() // idempotent
	// The system stays usable: the next inference builds a fresh sampler.
	if _, err := s.InferEpochs(50); err != nil {
		t.Fatal(err)
	}
	if s.Sampler() == nil || s.Sampler() == first {
		t.Error("expected a fresh sampler after Close")
	}
	s.Close()
}

// TestCloseReleasesWorkersAcrossLearn walks the one path on which a sampler
// is replaced over an unchanged graph — infer, learn weights, infer — for
// both engines: each sampler owns the pool it builds, so LearnWeights closing
// the first and Close closing the second must leave no worker goroutine
// behind, and the second Close is a no-op.
func TestCloseReleasesWorkersAcrossLearn(t *testing.T) {
	for _, engine := range []Engine{EngineSya, EngineDeepDive} {
		t.Run(engine.String(), func(t *testing.T) {
			defer testutil.GoroutineLeakCheck(t)()
			s := newEbolaSystem(t, Config{Engine: engine, Seed: 5, Workers: 2})
			if _, err := s.Ground(); err != nil {
				t.Fatal(err)
			}
			if _, err := s.InferEpochs(50); err != nil {
				t.Fatal(err)
			}
			first := s.Sampler()
			if _, err := s.LearnWeights(learn.Options{Iterations: 10, Seed: 5}); err != nil {
				t.Fatal(err)
			}
			scores, err := s.InferEpochs(200)
			if err != nil {
				t.Fatal(err)
			}
			if s.Sampler() == nil || s.Sampler() == first {
				t.Error("expected a fresh sampler after LearnWeights")
			}
			if s.Sampler().TotalEpochs() == 0 {
				t.Error("the rebuilt sampler ran no epoch")
			}
			if p, ok := scores.TrueProb("HasEbola", countyVals(datagen.EbolaCounties()[2])); !ok || p <= 0 || p >= 1 {
				t.Errorf("Bong score after learn = %v (found %v), want an interior probability", p, ok)
			}
			s.Close()
			s.Close()
			if s.Sampler() != nil {
				t.Error("sampler still live after Close")
			}
		})
	}
}
