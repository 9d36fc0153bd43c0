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
// evidence) clamped, the model chain samples every variable freely.
package learn

import (
	"context"
	"fmt"
	"math"
	"time"

	"repro/internal/factorgraph"
	"repro/internal/obs"
)

// Options configures learning.
type Options struct {
	// Iterations of stochastic gradient ascent. Default 100.
	Iterations int
	// SweepsPerIteration advances each persistent chain this many Gibbs
	// sweeps before the gradient estimate. Default 2.
	SweepsPerIteration int
	// LearningRate scales gradient steps; it is normalized internally by
	// the per-rule factor counts so rules with many groundings do not
	// dominate. Default 0.5.
	LearningRate float64
	// L2 is the weight-decay regularizer. Default 0.01.
	L2 float64
	// LearnSpatialScale also learns one multiplier applied to every
	// spatial factor weight (preserving the distance-decay shape).
	LearnSpatialScale bool
	// MaxWeight clamps learned weights into [-MaxWeight, MaxWeight].
	// Default 5.
	MaxWeight float64
	// Seed drives the chains.
	Seed int64
}

func (o Options) withDefaults() Options {
	if o.Iterations <= 0 {
		o.Iterations = 100
	}
	if o.SweepsPerIteration <= 0 {
		o.SweepsPerIteration = 2
	}
	if o.LearningRate == 0 {
		o.LearningRate = 0.5
	}
	if o.L2 == 0 {
		o.L2 = 0.01
	}
	if o.MaxWeight == 0 {
		o.MaxWeight = 5
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

// chain is one persistent Gibbs chain used for expectation estimates.
type chain struct {
	assign factorgraph.Assignment
	vars   []factorgraph.VarID // variables this chain resamples
	rng    *prng
	buf    []float64
	// score is the graph's nothing-frozen programs (see newChains), which
	// read the live weight table, so learned weights flow through them.
	score func(factorgraph.VarID, factorgraph.Assignment, []float64) []float64
}

func (c *chain) sweep(n int) {
	for i := 0; i < n; i++ {
		for _, v := range c.vars {
			scores := c.score(v, c.assign, c.buf)
			maxS := scores[0]
			for _, s := range scores[1:] {
				if s > maxS {
					maxS = s
				}
			}
			var z float64
			for j, s := range scores {
				scores[j] = math.Exp(s - maxS)
				z += scores[j]
			}
			u := c.rng.Float64() * z
			var x int32
			for j, p := range scores {
				u -= p
				if u <= 0 {
					x = int32(j)
					break
				}
				if j == len(scores)-1 {
					x = int32(j)
				}
			}
			c.assign.Set(v, x)
		}
	}
}

// Weights learns tied rule weights on a ground graph. factorRule maps every
// logical factor to its rule index (as produced by grounding.Result); the
// graph's factor weights are updated in place and the learned values
// returned. The graph's evidence is the training signal: variables with
// evidence are clamped in the data chain and free in the model chain.
//
// ctx is checked between gradient iterations: on cancellation the weights
// learned so far (already pushed into the graph) are returned together with
// the context error, so callers can distinguish a converged result from a
// truncated one. A span on ctx gets a learn.weights stage with one
// iteration event per gradient step (gradient norm and wall time).
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
	// Per-rule grounding counts, for gradient normalization.
	ruleCount := make([]float64, numRules)
	for _, r := range factorRule {
		ruleCount[r]++
	}
	data, model := newChains(g, opts.Seed)
	if len(data.vars) == len(model.vars) {
		return nil, fmt.Errorf("learn: the graph has no evidence to train on")
	}

	res := &Result{Weights: make([]float64, numRules), SpatialScale: 1}
	for r := int32(0); int(r) < numRules; r++ {
		// Start from the program's weights (first factor of each rule).
		for f, fr := range factorRule {
			if fr == r {
				res.Weights[r] = g.FactorWeightOf(int32(f))
				break
			}
		}
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
	for iter := 0; iter < opts.Iterations; iter++ {
		if err := ctx.Err(); err != nil {
			return res, fmt.Errorf("learn: interrupted after %d/%d iterations: %w", iter, opts.Iterations, err)
		}
		iterStart := time.Now()
		data.sweep(opts.SweepsPerIteration)
		model.sweep(opts.SweepsPerIteration)
		countSatisfied(g, factorRule, data.assign, nData)
		countSatisfied(g, factorRule, model.assign, nModel)
		var norm float64
		for r := 0; r < numRules; r++ {
			grad := (nData[r] - nModel[r]) / math.Max(1, ruleCount[r])
			res.Weights[r] += opts.LearningRate*grad - opts.L2*res.Weights[r]
			res.Weights[r] = clampWeight(res.Weights[r], opts.MaxWeight)
			norm += grad * grad
		}
		if opts.LearnSpatialScale && totalSpatialBase > 0 {
			agreeData := spatialAgreement(g, baseSpatial, data.assign)
			agreeModel := spatialAgreement(g, baseSpatial, model.assign)
			grad := (agreeData - agreeModel) / totalSpatialBase
			res.SpatialScale += opts.LearningRate * grad
			if res.SpatialScale < 0 {
				res.SpatialScale = 0
			}
			if res.SpatialScale > opts.MaxWeight {
				res.SpatialScale = opts.MaxWeight
			}
			norm += grad * grad
		}
		res.GradNorms = append(res.GradNorms, math.Sqrt(norm))
		span.Event("iteration", time.Since(iterStart)).Notef("iter=%d grad_norm=%.6g", iter, math.Sqrt(norm))
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
	finalNorm := 0.0
	if len(res.GradNorms) > 0 {
		finalNorm = res.GradNorms[len(res.GradNorms)-1]
	}
	span.Notef("iterations=%d final_grad_norm=%.6g spatial_scale=%.6g", opts.Iterations, finalNorm, res.SpatialScale)
	return res, nil
}

// newChains builds the two persistent chains: the data chain resamples the
// query variables with evidence clamped, the model chain every variable.
// Both score through one private program set compiled with nothing frozen:
// the model chain moves evidence, so nothing may be folded against it.
func newChains(g *factorgraph.Graph, seed int64) (data, model *chain) {
	var queryVars, allVars []factorgraph.VarID
	maxDom := 2
	g.Vars(func(id factorgraph.VarID, v factorgraph.Variable) bool {
		allVars = append(allVars, id)
		if v.Evidence == factorgraph.NoEvidence {
			queryVars = append(queryVars, id)
		}
		maxDom = max(maxDom, int(v.Domain))
		return true
	})
	score := factorgraph.CompileKernels(g, false).ConditionalScores
	data = &chain{assign: g.InitialAssignment(), vars: queryVars,
		rng: newPrng(seed, 1), buf: make([]float64, maxDom), score: score}
	model = &chain{assign: g.InitialAssignment(), vars: allVars,
		rng: newPrng(seed, 2), buf: make([]float64, maxDom), score: score}
	return data, model
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

func clampWeight(w, maxW float64) float64 {
	if w > maxW {
		return maxW
	}
	if w < -maxW {
		return -maxW
	}
	return w
}

// prng is a splitmix64 generator (a local copy of the one in
// internal/gibbs; both packages need cheap per-chain streams).
type prng struct{ state uint64 }

func newPrng(seed int64, stream uint64) *prng {
	x := uint64(seed) ^ (stream * 0x9e3779b97f4a7c15)
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return &prng{state: x ^ (x >> 31)}
}

func (p *prng) next() uint64 {
	p.state += 0x9e3779b97f4a7c15
	z := p.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (p *prng) Float64() float64 { return float64(p.next()>>11) / (1 << 53) }
