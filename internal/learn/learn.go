// Package learn implements MLN weight learning over a ground (spatial)
// factor graph. The paper notes that inference-rule weights can either be
// fixed by the program author or "learned ... based on training data"
// (Section IV-A); DeepDive learns them by stochastic gradient ascent on the
// sampled likelihood. This package provides that capability for both
// engines: rule weights are tied across a rule's ground factors, and
// optionally a global spatial-scale multiplier is learned for the spatial
// factors.
//
// The gradient of the log-likelihood for a tied weight w_r is
//
//	∂L/∂w_r = E_data[n_r] − E_model[n_r]
//
// where n_r is the number of satisfied ground factors of rule r. Both
// expectations are estimated with persistent Gibbs chains (contrastive
// divergence): the data chain keeps the training labels (the graph's
// evidence) clamped, the model chain samples every variable freely. Both
// chains are the sampler engine's sequential schedule (gibbs.NewSequentialOver)
// over one nothing-frozen program set, so a learning draw is an inference
// draw; this package keeps only the gradient, its normalisation, the
// clamping and the spatial-scale term.
package learn

import (
	"context"
	"fmt"
	"math"
	"time"

	"repro/internal/factorgraph"
	"repro/internal/gibbs"
	"repro/internal/obs"
)

// Options configures learning.
type Options struct {
	// Iterations of stochastic gradient ascent. Default 100.
	Iterations int
	// LearningRate scales gradient steps; it is normalized internally by
	// the per-rule factor counts so rules with many groundings do not
	// dominate. Default 0.5.
	LearningRate float64
	// LearnSpatialScale also learns one multiplier applied to every
	// spatial factor weight (preserving the distance-decay shape).
	LearnSpatialScale bool
	// Seed drives the chains.
	Seed int64
}

// The fixed parts of every gradient step: each persistent chain advances
// sweepsPerIteration Gibbs sweeps before the gradient estimate, the weight
// decay is l2, and learned weights are clamped into [-maxWeight, maxWeight]
// (the spatial scale into [0, maxWeight]).
const (
	sweepsPerIteration = 2
	l2                 = 0.01
	maxWeight          = 5
)

func (o Options) withDefaults() Options {
	if o.Iterations <= 0 {
		o.Iterations = 100
	}
	if o.LearningRate == 0 {
		o.LearningRate = 0.5
	}
	return o
}

// Result reports the learned parameters.
type Result struct {
	// Weights holds the learned tied weight per rule.
	Weights []float64
	// SpatialScale is the learned multiplier (1 when not learned).
	SpatialScale float64
	// GradNorms records the per-iteration gradient norm (diagnostics).
	GradNorms []float64
}

// Weights learns tied rule weights on a ground graph. factorRule maps every
// logical factor to its rule index (as produced by grounding.Result); the
// graph's factor weights are updated in place and the learned values
// returned. The graph's evidence is the training signal: variables with
// evidence are clamped in the data chain and free in the model chain.
//
// ctx is checked by every chain sweep: on cancellation the iteration in
// flight takes no step, and the weights of the last full iteration (already
// pushed into the graph) are returned together with the context error, so
// callers can distinguish a converged result from a truncated one. A span on
// ctx gets a learn.weights stage with one iteration event per gradient step
// (gradient norm and wall time); the sweeps add no stages of their own.
func Weights(ctx context.Context, g *factorgraph.Graph, factorRule []int32, numRules int, opts Options) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	opts = opts.withDefaults()
	if len(factorRule) != g.NumFactors() {
		return nil, fmt.Errorf("learn: factorRule has %d entries for %d factors", len(factorRule), g.NumFactors())
	}
	for f, r := range factorRule {
		if r < 0 || int(r) >= numRules {
			return nil, fmt.Errorf("learn: factor %d maps to rule %d outside [0,%d)", f, r, numRules)
		}
	}
	data, model, clamped := newChains(g, factorgraph.CompileKernels(g, false), opts.Seed)
	defer data.Close()
	defer model.Close()
	if clamped == 0 {
		return nil, fmt.Errorf("learn: the graph has no evidence to train on")
	}

	// Per-rule grounding counts, for gradient normalization, and the start
	// weights: the program's, read off each rule's first factor.
	ruleCount := make([]float64, numRules)
	res := &Result{Weights: make([]float64, numRules), SpatialScale: 1}
	for f := len(factorRule) - 1; f >= 0; f-- {
		ruleCount[factorRule[f]]++
		res.Weights[factorRule[f]] = g.FactorWeightOf(int32(f))
	}
	// Base spatial weights, so the scale multiplier preserves decay shape.
	baseSpatial := make([]float64, g.NumSpatialFactors())
	var totalSpatialBase float64
	for s := int32(0); int(s) < g.NumSpatialFactors(); s++ {
		_, _, w := g.SpatialPair(s)
		baseSpatial[s] = w
		totalSpatialBase += w
	}

	nData := make([]float64, numRules)
	nModel := make([]float64, numRules)
	span := obs.SpanFromContext(ctx).Child("learn.weights")
	defer span.End()
	sweepCtx := obs.ContextWithSpan(ctx, obs.Span{})
	for iter := 0; iter < opts.Iterations; iter++ {
		iterStart := time.Now()
		_, err := data.Run(sweepCtx, sweepsPerIteration)
		if err == nil {
			_, err = model.Run(sweepCtx, sweepsPerIteration)
		}
		if err != nil {
			return res, fmt.Errorf("learn: iteration %d: %w", iter, err)
		}
		// A sweep cut by ctx returns no error; its iteration takes no step.
		if err := ctx.Err(); err != nil {
			return res, fmt.Errorf("learn: interrupted after %d/%d iterations: %w", iter, opts.Iterations, err)
		}
		countSatisfied(g, factorRule, data.Assignment(), nData)
		countSatisfied(g, factorRule, model.Assignment(), nModel)
		var norm float64
		for r := 0; r < numRules; r++ {
			grad := (nData[r] - nModel[r]) / math.Max(1, ruleCount[r])
			res.Weights[r] += opts.LearningRate*grad - l2*res.Weights[r]
			res.Weights[r] = max(-maxWeight, min(res.Weights[r], maxWeight))
			norm += grad * grad
		}
		if opts.LearnSpatialScale && totalSpatialBase > 0 {
			agreeData := spatialAgreement(g, baseSpatial, data.Assignment())
			agreeModel := spatialAgreement(g, baseSpatial, model.Assignment())
			grad := (agreeData - agreeModel) / totalSpatialBase
			res.SpatialScale = max(0, min(res.SpatialScale+opts.LearningRate*grad, maxWeight))
			norm += grad * grad
		}
		res.GradNorms = append(res.GradNorms, math.Sqrt(norm))
		if span.Enabled() { // boxing the note's arguments would allocate on the disabled path
			span.Event("iteration", time.Since(iterStart)).Notef("iter=%d grad_norm=%.6g", iter, math.Sqrt(norm))
		}
		// Push the updated tied weights into the graph so the next sweeps
		// sample under them.
		for f := int32(0); int(f) < g.NumFactors(); f++ {
			g.SetFactorWeight(f, res.Weights[factorRule[f]])
		}
		if opts.LearnSpatialScale {
			for s := int32(0); int(s) < g.NumSpatialFactors(); s++ {
				g.SetSpatialWeight(s, baseSpatial[s]*res.SpatialScale)
			}
		}
	}
	span.Notef("iterations=%d final_grad_norm=%.6g spatial_scale=%.6g", opts.Iterations, res.GradNorms[len(res.GradNorms)-1], res.SpatialScale)
	return res, nil
}

// newChains builds the two persistent chains on the sampler engine's
// sequential schedule over the program set k: the data chain resamples the
// query variables with evidence clamped, the model chain every variable, and
// clamped counts the evidence variables. Weights passes one set compiled with
// nothing frozen, which both chains share: the model chain moves evidence,
// so nothing may be folded against it.
func newChains(g *factorgraph.Graph, k *factorgraph.Kernels, seed int64) (data, model *gibbs.Sequential, clamped int) {
	var query, all []factorgraph.VarID
	g.Vars(func(id factorgraph.VarID, v factorgraph.Variable) bool {
		all = append(all, id)
		if v.Evidence == factorgraph.NoEvidence {
			query = append(query, id)
		}
		return true
	})
	return gibbs.NewSequentialOver(g, k, query, seed), gibbs.NewSequentialOver(g, k, all, seed+1), len(all) - len(query)
}

// countSatisfied overwrites n with the per-rule counts of satisfied factors
// under assign: the n_r of the gradient.
func countSatisfied(g *factorgraph.Graph, factorRule []int32, assign factorgraph.Assignment, n []float64) {
	clear(n)
	for f := int32(0); int(f) < g.NumFactors(); f++ {
		if g.FactorSatisfied(f, assign) {
			n[factorRule[f]]++
		}
	}
}

// spatialAgreement is Σ_s base_s · agreement_s under assign: the statistic
// of the spatial-scale gradient.
func spatialAgreement(g *factorgraph.Graph, base []float64, assign factorgraph.Assignment) float64 {
	var agree float64
	for s := int32(0); int(s) < g.NumSpatialFactors(); s++ {
		agree += base[s] * g.SpatialAgreement(s, assign)
	}
	return agree
}
