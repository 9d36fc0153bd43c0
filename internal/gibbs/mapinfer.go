package gibbs

import (
	"context"
	"math"

	"repro/internal/factorgraph"
)

// MAPOptions configures MAP (maximum a-posteriori) inference.
type MAPOptions struct {
	// Sweeps is the number of annealing sweeps. Default 500.
	Sweeps int
	// StartTemp is the initial sampling temperature. Default 2.
	StartTemp float64
	// EndTemp is the final temperature (→ greedy). Default 0.05.
	EndTemp float64
	// Restarts runs independent annealing chains and keeps the best.
	// Default 2.
	Restarts int
	// Seed drives the chains.
	Seed int64
}

func (o MAPOptions) withDefaults() MAPOptions {
	if o.Sweeps <= 0 {
		o.Sweeps = 500
	}
	if o.StartTemp <= 0 {
		o.StartTemp = 2
	}
	if o.EndTemp <= 0 {
		o.EndTemp = 0.05
	}
	if o.Restarts <= 0 {
		o.Restarts = 2
	}
	return o
}

// MAP estimates the most probable world of a (spatial) factor graph by
// simulated annealing: Gibbs sweeps whose conditional scores are divided by
// a temperature that decays geometrically from StartTemp to EndTemp, with
// independent restarts keeping the highest-energy assignment. Evidence
// variables stay clamped. It returns the best assignment found and its
// energy (the Eq. 3 exponent; higher is more probable).
//
// Marginal inference (the samplers) is what the paper's factual scores use;
// MAP is the companion query mode MLN systems such as DeepDive and Tuffy
// also offer, useful to extract the single most likely knowledge base.
func MAP(g *factorgraph.Graph, opts MAPOptions) (factorgraph.Assignment, float64) {
	assign, energy, _ := MAPContext(context.Background(), g, opts)
	return assign, energy
}

// MAPContext is MAP under a context, checked between annealing sweeps and
// greedy-polish passes. On cancellation it returns the best assignment found
// so far — the current chain is greedily polished and considered, so even a
// run cut off mid-anneal yields a locally-optimal world — together with the
// context error to mark the result as truncated.
func MAPContext(ctx context.Context, g *factorgraph.Graph, opts MAPOptions) (factorgraph.Assignment, float64, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	opts = opts.withDefaults()
	query := queryVars(g)
	// MAP runs on the samplers' folded programs; nothing selects another.
	sc := newScorer(g)
	var best factorgraph.Assignment
	bestE := 0.0
	decay := 1.0
	if opts.Sweeps > 1 {
		decay = math.Pow(opts.EndTemp/opts.StartTemp, 1/float64(opts.Sweeps-1))
	}
	for r := 0; r < opts.Restarts; r++ {
		assign := g.InitialAssignment()
		rng := taskRNG(opts.Seed, 0x3a9, uint64(r)+1)
		// Random initialization of query variables for chain diversity.
		for _, v := range query {
			assign.Set(v, int32(rng.Intn(int(g.Var(v).Domain))))
		}
		buf := make([]float64, maxDomain(g))
		temp := opts.StartTemp
		interrupted := false
		for sweep := 0; sweep < opts.Sweeps; sweep++ {
			if ctx.Err() != nil {
				interrupted = true
				break
			}
			for _, v := range query {
				assign.Set(v, sampleSoftmax(sc.conditionalScores(v, assign, buf), temp, rng))
			}
			temp *= decay
		}
		// Final greedy polish: local moves until no single flip improves
		// (checked for cancellation between passes — each pass is bounded,
		// the pass count is not).
		greedyCtx(ctx, &sc, assign, query, buf)
		e := g.Energy(assign)
		if best == nil || e > bestE {
			best, bestE = assign.Clone(), e
		}
		if interrupted {
			return best, bestE, ctx.Err()
		}
	}
	return best, bestE, ctx.Err()
}

// greedyCtx applies best-single-flip moves until a local optimum, stopping
// early between full passes if ctx fires.
func greedyCtx(ctx context.Context, sc *scorer, assign factorgraph.Assignment,
	query []factorgraph.VarID, buf []float64) {
	for ctx.Err() == nil {
		improved := false
		for _, v := range query {
			cur := assign.Get(v)
			best := cur
			if sc.binary(v) {
				// The log-odds' sign decides; d == 0 (or NaN) keeps the
				// current value, matching the generic argmax.
				if d := sc.logOdds(v, assign); d < 0 {
					best = 1
				} else if d > 0 {
					best = 0
				}
			} else {
				scores := sc.conditionalScores(v, assign, buf)
				for x := range scores {
					if scores[x] > scores[best] {
						best = int32(x)
					}
				}
			}
			if best != cur {
				assign.Set(v, best)
				improved = true
			}
		}
		if !improved {
			return
		}
	}
}
