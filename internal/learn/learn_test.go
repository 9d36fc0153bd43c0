package learn

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/factorgraph"
	"repro/internal/geom"
	"repro/internal/gibbs"
	"repro/internal/obs"
)

// plantedGraph builds a chain of binary variables whose labels were drawn
// from a known MLN: a strong "agree with the left neighbour" rule and a
// weak prior rule. Two thirds of the variables carry their sampled label
// as evidence (so some factors connect two observed atoms — without any
// such factor the likelihood gradient at w = 0 vanishes and learning
// cannot bootstrap); learning should recover a clearly positive agreement
// weight and a near-zero prior weight.
func plantedGraph(t *testing.T, n int, agreeW, priorW float64, seed int64) (*factorgraph.Graph, []int32, int) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	// Draw labels by sequential simulation of the chain model.
	labels := make([]int32, n)
	labels[0] = int32(rng.Intn(2))
	for i := 1; i < n; i++ {
		// P(x_i = x_{i-1}) from the agreement factor (equal-kind factor).
		pAgree := math.Exp(agreeW) / (math.Exp(agreeW) + 1)
		if rng.Float64() < pAgree {
			labels[i] = labels[i-1]
		} else {
			labels[i] = 1 - labels[i-1]
		}
	}
	b := factorgraph.NewBuilder()
	for i := 0; i < n; i++ {
		ev := factorgraph.NoEvidence
		if i%3 != 0 {
			ev = labels[i]
		}
		if _, err := b.AddVariable(factorgraph.Variable{
			Domain: 2, Evidence: ev, Loc: geom.Pt(float64(i), 0), HasLoc: true,
		}); err != nil {
			t.Fatal(err)
		}
	}
	var factorRule []int32
	for i := 0; i+1 < n; i++ {
		// Rule 0: agreement between neighbours (initial weight 0).
		if err := b.AddFactor(factorgraph.FactorEqual, 0,
			[]factorgraph.VarID{int32(i), int32(i + 1)}, nil); err != nil {
			t.Fatal(err)
		}
		factorRule = append(factorRule, 0)
	}
	for i := 0; i < n; i++ {
		// Rule 1: "is true" prior (initial weight 0; planted weight priorW).
		if err := b.AddFactor(factorgraph.FactorIsTrue, 0,
			[]factorgraph.VarID{int32(i)}, nil); err != nil {
			t.Fatal(err)
		}
		factorRule = append(factorRule, 1)
	}
	g, err := b.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	return g, factorRule, 2
}

func TestWeightsRecoverAgreement(t *testing.T) {
	g, factorRule, nRules := plantedGraph(t, 120, 1.5, 0, 3)
	res, err := Weights(context.Background(), g, factorRule, nRules, Options{
		Iterations: 300, LearningRate: 0.4, Seed: 9,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Weights[0] < 0.4 {
		t.Errorf("agreement weight = %v, want clearly positive", res.Weights[0])
	}
	if math.Abs(res.Weights[1]) > 0.5 {
		t.Errorf("prior weight = %v, want near zero", res.Weights[1])
	}
	// The learned weights are live in the graph.
	if g.FactorWeightOf(0) != res.Weights[0] {
		t.Error("graph weights not updated")
	}
	if len(res.GradNorms) != 300 {
		t.Errorf("grad norms = %d", len(res.GradNorms))
	}
}

func TestWeightsImproveInference(t *testing.T) {
	// Inference with learned weights must predict held-out labels better
	// than the zero-weight model (which is uniform).
	g, factorRule, nRules := plantedGraph(t, 120, 1.5, 0, 5)
	if _, err := Weights(context.Background(), g, factorRule, nRules, Options{
		Iterations: 300, LearningRate: 0.4, Seed: 11,
	}); err != nil {
		t.Fatal(err)
	}
	s := gibbs.NewSequential(g, 13)
	s.RunEpochs(3000)
	m := s.Marginals()
	// Query vars should be pulled toward their evidence neighbours:
	// decisiveness well above uniform on average.
	var dec float64
	count := 0
	g.Vars(func(id factorgraph.VarID, v factorgraph.Variable) bool {
		if v.Evidence == factorgraph.NoEvidence {
			dec += math.Abs(m[id][1] - 0.5)
			count++
		}
		return true
	})
	if avg := dec / float64(count); avg < 0.1 {
		t.Errorf("average decisiveness %v: learned weights not informative", avg)
	}
}

func TestWeightsSpatialScale(t *testing.T) {
	// Graph whose only structure is spatial pairs between same-label
	// evidence atoms: the learned scale should grow above its 0.1 start.
	b := factorgraph.NewBuilder()
	n := 60
	rng := rand.New(rand.NewSource(7))
	label := int32(0)
	for i := 0; i < n; i++ {
		if rng.Float64() < 0.1 {
			label = 1 - label
		}
		ev := factorgraph.NoEvidence
		if i%2 == 0 {
			ev = label
		}
		if _, err := b.AddVariable(factorgraph.Variable{
			Domain: 2, Evidence: ev, Loc: geom.Pt(float64(i), 0), HasLoc: true,
		}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i+1 < n; i++ {
		if err := b.AddSpatialPairs([]factorgraph.SpatialPair{{A: int32(i), B: int32(i + 1), W: 0.1}}); err != nil {
			t.Fatal(err)
		}
	}
	// One dummy logical rule so numRules > 0.
	if err := b.AddFactor(factorgraph.FactorIsTrue, 0, []factorgraph.VarID{0}, nil); err != nil {
		t.Fatal(err)
	}
	g, err := b.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	res, err := Weights(context.Background(), g, []int32{0}, 1, Options{
		Iterations: 200, LearningRate: 0.3, Seed: 21, LearnSpatialScale: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.SpatialScale <= 1 {
		t.Errorf("spatial scale = %v, want > 1 (labels are strongly autocorrelated)", res.SpatialScale)
	}
	// Graph spatial weights rescaled in place.
	_, _, w := g.SpatialPair(0)
	if math.Abs(w-0.1*res.SpatialScale) > 1e-9 {
		t.Errorf("spatial weight = %v, want %v", w, 0.1*res.SpatialScale)
	}
}

func TestWeightsValidation(t *testing.T) {
	g, factorRule, nRules := plantedGraph(t, 10, 1, 0, 1)
	if _, err := Weights(context.Background(), g, factorRule[:2], nRules, Options{}); err == nil {
		t.Error("short factorRule should fail")
	}
	bad := append([]int32(nil), factorRule...)
	bad[0] = 99
	if _, err := Weights(context.Background(), g, bad, nRules, Options{}); err == nil {
		t.Error("out-of-range rule index should fail")
	}
	// Graph without evidence cannot be trained on.
	b := factorgraph.NewBuilder()
	_, _ = b.AddVariable(factorgraph.Variable{Domain: 2, Evidence: factorgraph.NoEvidence})
	_ = b.AddFactor(factorgraph.FactorIsTrue, 1, []factorgraph.VarID{0}, nil)
	g2, err := b.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Weights(context.Background(), g2, []int32{0}, 1, Options{}); err == nil {
		t.Error("no-evidence graph should fail")
	}
}

// countdownCtx is a context whose Err and Done fire on the n-th Err call, so
// a cancellation lands at a chosen check whatever the wall clock does.
type countdownCtx struct {
	context.Context
	calls, n int
	done     chan struct{}
}

func newCountdown(n int) *countdownCtx {
	return &countdownCtx{Context: context.Background(), n: n, done: make(chan struct{})}
}

func (c *countdownCtx) Done() <-chan struct{} { return c.done }

func (c *countdownCtx) Err() error {
	if c.calls < c.n {
		if c.calls++; c.calls == c.n {
			close(c.done)
		}
	}
	if c.calls == c.n {
		return context.Canceled
	}
	return nil
}

// TestCutIterationTakesNoStep: a cancellation that lands inside the model
// chain's sweeps of an iteration applies no gradient step. Weights returns the
// wrapped context error, and the graph holds exactly the weights of an uncut
// run of the same seed stopped after the iterations completed before the cut.
func TestCutIterationTakesNoStep(t *testing.T) {
	const done = 3
	opts := Options{Iterations: 10, LearningRate: 0.4, Seed: 9}
	// Each iteration checks ctx nine times: each chain's Run twice per sweep
	// (before the epoch and at its barrier), then Weights once after the
	// sweeps. The sixth check of an iteration is the model chain's first
	// barrier, after its first sweep.
	const perIteration = 2*2*sweepsPerIteration + 1
	g, factorRule, nRules := plantedGraph(t, 60, 1.5, 0, 3)
	ctx := newCountdown(perIteration*done + 2*sweepsPerIteration + 2)
	cut, err := Weights(ctx, g, factorRule, nRules, opts)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cut run returned %v, want a wrapped context.Canceled", err)
	}

	ref, factorRule, nRules := plantedGraph(t, 60, 1.5, 0, 3)
	count := newCountdown(math.MaxInt)
	opts.Iterations = done
	want, err := Weights(count, ref, factorRule, nRules, opts)
	if err != nil {
		t.Fatal(err)
	}
	if count.calls != perIteration*done {
		t.Fatalf("%d iterations checked ctx %d times, want %d: the cut no longer lands in the model chain",
			done, count.calls, perIteration*done)
	}
	if len(cut.GradNorms) != done {
		t.Errorf("cut run took %d steps, want %d", len(cut.GradNorms), done)
	}
	for r := range want.Weights {
		if math.Float64bits(cut.Weights[r]) != math.Float64bits(want.Weights[r]) {
			t.Errorf("rule %d: cut run returned %v, uncut run %v", r, cut.Weights[r], want.Weights[r])
		}
	}
	for f := int32(0); int(f) < g.NumFactors(); f++ {
		if a, b := g.FactorWeightOf(f), ref.FactorWeightOf(f); math.Float64bits(a) != math.Float64bits(b) {
			t.Fatalf("factor %d: cut graph holds %v, uncut graph %v", f, a, b)
		}
	}
}

// TestIterationSweepsAllocateNothing: once the chains are built, an
// iteration's sweeps allocate nothing, the first one included. The model
// chain sweeps evidence too, so the pool's touched lists must be sized from
// its schedule, not from the query variables.
func TestIterationSweepsAllocateNothing(t *testing.T) {
	g, _, _ := plantedGraph(t, 120, 1.5, 0, 3)
	data, model, _ := newChains(g, factorgraph.CompileKernels(g, false), 1)
	defer data.Close()
	defer model.Close()
	ctx := obs.ContextWithSpan(context.Background(), obs.Span{})
	sweeps := func() {
		if _, err := data.Run(ctx, sweepsPerIteration); err != nil {
			t.Fatal(err)
		}
		if _, err := model.Run(ctx, sweepsPerIteration); err != nil {
			t.Fatal(err)
		}
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	sweeps()
	runtime.ReadMemStats(&after)
	if n := after.Mallocs - before.Mallocs; n != 0 {
		t.Errorf("the first iteration's sweeps allocated %d objects", n)
	}
	if n := testing.AllocsPerRun(20, sweeps); n != 0 {
		t.Errorf("an iteration's sweeps allocate %v objects", n)
	}
}
