package core

import (
	"context"
	"fmt"
	"time"

	"repro/internal/factorgraph"
	"repro/internal/gibbs"
	"repro/internal/grounding"
	"repro/internal/obs"
)

// This file is the system face of query-driven lazy grounding (ROADMAP item
// 1): QueryLocal answers a point query by extracting a bounded subgraph
// around the queried atom (grounding.ExtractLocal), compiling sampling
// kernels for just that subgraph, and running a private sampler over it — so
// per-query work scales with the local neighbourhood, not the KB.

// LocalBudget bounds one lazy query.
type LocalBudget struct {
	// MaxVars caps the sampled (interior) variables. ≤ 0 → 256.
	MaxVars int
	// MinInfluence prunes frontier candidates below this root influence
	// (decay product along the strongest path). ≤ 0 → 1e-4.
	MinInfluence float64
	// Epochs is the sampling budget on the subgraph. ≤ 0 → Config.Epochs.
	Epochs int
}

// LocalResult is one lazy query answer.
type LocalResult struct {
	// Key is the queried atom.
	Key string
	// Marginal is the root atom's estimated marginal distribution.
	Marginal []float64
	// Score is the factual score: P(true) for binary atoms, the modal
	// probability for categorical ones.
	Score float64
	// Vars counts sampled (interior) variables; BoundaryVars the frozen
	// shell around them.
	Vars, BoundaryVars int
	// Factors and SpatialPairs count the subgraph's kept structure.
	Factors, SpatialPairs int
	// ErrorBound bounds the marginal distortion introduced by freezing
	// uncertain boundary atoms (0 = exact up to sampling noise); Truncated
	// reports whether any uncertain tissue was cut at all.
	ErrorBound float64
	Truncated  bool
	// GroundTime covers frontier expansion + subgraph build; SampleTime
	// covers kernel compilation + sampling.
	GroundTime, SampleTime time.Duration
	// Interior holds the marginals of every sampled atom, keyed by atom
	// key — the local counterpart of Scores for callers that want the
	// whole neighbourhood.
	Interior map[string][]float64
}

// QueryLocal answers a point query over the queried atom's bounded local
// neighbourhood instead of the full ground graph. Grounding must have run;
// inference need not have. The call is read-only on the System (safe under
// concurrent QueryLocal calls and concurrent readers), builds a private
// sampler + worker pool sized to the subgraph, and releases them before
// returning.
//
// Boundary atoms freeze at their evidence value, their pinned value
// (evidence-grade), or — uncertain atoms — a guess, with the distortion that
// last class can introduce reported in ErrorBound.
func (s *System) QueryLocal(ctx context.Context, key string, budget LocalBudget) (*LocalResult, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if s.ground == nil {
		return nil, fmt.Errorf("core: Ground must run before QueryLocal")
	}
	vid, ok := s.ground.VarID[key]
	if !ok {
		return nil, fmt.Errorf("core: unknown atom %q", key)
	}

	// Boundary freezing policy. Pins are evidence-grade and freeze at their
	// recorded value. Any other variable freezes at the live sampler's modal
	// state (when inference has run) as a warm guess — still counted toward
	// the truncation bound, but far closer to the posterior than the cold
	// initial chain state.
	argmaxOf := func(m []float64) int32 {
		arg, best := int32(0), -1.0
		for i, p := range m {
			if p > best {
				arg, best = int32(i), p
			}
		}
		return arg
	}
	freeze := func(v factorgraph.VarID) (int32, bool) {
		if val, ok := s.pinned[v]; ok {
			return val, true
		}
		if s.sampler == nil {
			return 0, false // cold: deterministic initial chain state
		}
		return argmaxOf(s.sampler.MarginalVar(v)), false
	}

	groundSpan := obs.SpanFromContext(ctx).Child("local_ground")
	groundStart := time.Now()
	lg, err := grounding.ExtractLocal(s.ground, vid, grounding.LocalOptions{
		MaxVars:      budget.MaxVars,
		MinInfluence: budget.MinInfluence,
		Freeze:       freeze,
	})
	groundDur := time.Since(groundStart)
	if err != nil {
		groundSpan.End()
		return nil, err
	}
	groundSpan.Notef("vars=%d boundary=%d factors=%d", len(lg.Interior), lg.BoundaryVars, lg.Graph.NumFactors())
	groundSpan.End()

	res := &LocalResult{
		Key:          key,
		Vars:         len(lg.Interior),
		BoundaryVars: lg.BoundaryVars,
		Factors:      lg.Graph.NumFactors(),
		SpatialPairs: lg.Graph.NumSpatialFactors(),
		ErrorBound:   lg.ErrorBound,
		Truncated:    lg.Truncated,
		GroundTime:   groundDur,
	}
	epochs := budget.Epochs
	if epochs <= 0 {
		epochs = s.cfg.Epochs
	}

	sampleSpan := obs.SpanFromContext(ctx).Child("local_sample")
	defer sampleSpan.End()
	sampleStart := time.Now()
	// A private hogwild sampler over the slab — the same engine at a
	// different size: kernels compile lazily for just this subgraph inside
	// the sampler's scorer (folding the frozen boundary into biases), and its
	// pool is subgraph-sized.
	smp := gibbs.NewHogwild(lg.Graph, s.cfg.Seed, s.cfg.Workers)
	defer smp.Close()
	smp.SetBurnIn(epochs / 10)
	if _, err := smp.Run(obs.ContextWithSpan(ctx, sampleSpan), epochs); err != nil {
		return nil, err
	}
	marg := smp.Marginals()
	res.SampleTime = time.Since(sampleStart)
	ks := lg.Graph.Kernels().Stats()
	sampleSpan.Notef("epochs=%d ops=%d folded=%d", epochs, ks.Ops-ks.FoldedOps, ks.FoldedOps)

	res.Marginal = marg[lg.Root]
	res.Score = ScoreOf(res.Marginal)
	res.Interior = make(map[string][]float64, len(lg.Interior))
	for i, fullID := range lg.Interior {
		// Interior ids precede boundary ids in the subgraph, in order.
		res.Interior[s.ground.Keys[fullID]] = marg[i]
	}
	return res, nil
}

// ScoreOf reduces a marginal to the factual score: P(true) for binary
// domains, the modal probability otherwise. Every served score is this one.
func ScoreOf(m []float64) float64 {
	if len(m) == 2 {
		return m[1]
	}
	best := 0.0
	for _, p := range m {
		if p > best {
			best = p
		}
	}
	return best
}
