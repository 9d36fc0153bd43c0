// Package gibbs implements the inference module of the paper (Section V):
// marginal-probability estimation over a (spatial) factor graph via Gibbs
// sampling. There is one sampler engine — K chains, one epoch loop, one
// worker pool, one observability path — driven by a flat
// schedule of groups → units → variables plus a serial tail; the three
// variants are three schedules of it:
//
//   - Sequential: single-site sweeps in variable order — the textbook
//     baseline [46]. One unit, one chain, run inline on the caller.
//   - Hogwild: DeepDive/DimmWitted-style parallel Gibbs [46], [47] that
//     randomly partitions variables into buckets which sweep
//     asynchronously over a shared assignment. One group of buckets, one
//     chain.
//   - Spatial: the paper's Spatial Gibbs Sampling (Algorithm 1), which
//     partitions spatial atoms with an in-memory partial pyramid index,
//     sweeps conclique-by-conclique (cells within one conclique in
//     parallel), runs K sampler instances concurrently, and averages their
//     sample counts every epoch. It also supports the paper's incremental
//     inference: after evidence updates only the concliques of affected
//     cells are resampled (Fig. 13a).
//
// Randomness is seeded: parallel sections derive per-unit PRNGs from
// (seed, instance, epoch, unit) with splitmix64, so the sampling schedule
// does not depend on goroutine scheduling. The sequential sampler is fully
// deterministic. The parallel samplers are deterministic up to the
// interleaving of dependent variables sampled concurrently: hogwild by
// design, and the spatial sampler when the spatial interaction radius
// exceeds the cell width at a swept level, in which case two cells of one
// conclique may hold dependent atoms — the same heuristic-independence
// trade-off the paper accepts for conclique partitioning.
package gibbs

import (
	"context"
	"math"
	"math/bits"

	"repro/internal/factorgraph"
)

// prng is a splitmix64 pseudo-random generator. The engine creates one PRNG
// per swept unit per epoch; unlike math/rand sources, its
// construction is a single mix rather than an O(600) seeding pass, which
// matters when the spatial sweep derives thousands of deterministic streams
// per second.
type prng struct{ state uint64 }

func (p *prng) next() uint64 {
	p.state += 0x9e3779b97f4a7c15
	z := p.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Float64 returns a uniform value in [0, 1).
func (p *prng) Float64() float64 {
	return float64(p.next()>>11) / (1 << 53)
}

// Intn returns a uniform value in [0, n) using Lemire's nearly-divisionless
// bounded-random method: the 64×n product maps the generator output onto
// [0, n) without the modulo bias of next()%n, and the rare low-fraction
// rejection loop removes the residual bias exactly.
func (p *prng) Intn(n int) int {
	un := uint64(n)
	hi, lo := bits.Mul64(p.next(), un)
	if lo < un {
		thresh := -un % un // (2^64 - n) mod n
		for lo < thresh {
			hi, lo = bits.Mul64(p.next(), un)
		}
	}
	return int(hi)
}

// Sampler is the common interface of the three variants.
type Sampler interface {
	// Name identifies the variant.
	Name() string
	// RunEpochs advances the chain by n epochs, accumulating sample counts.
	// It is the uninterruptible legacy entry point; a worker panic is
	// re-raised on the caller.
	RunEpochs(n int)
	// Run advances the chain by up to n epochs under ctx: cancellation
	// returns partial marginals within one chunk boundary with a RunStats
	// describing why and how far the run got, and a worker panic returns a
	// *WorkerPanicError. nil ctx means context.Background(). A span on ctx
	// gets the sweep as one gibbs.steady stage (see engine.sweepEpochs).
	Run(ctx context.Context, n int) (RunStats, error)
	// RunTotal runs about total raw epochs of work split across the
	// sampler's K chains (Run(ctx, ⌈total/K⌉)); with one chain it is Run.
	RunTotal(ctx context.Context, total int) (RunStats, error)
	// Marginals returns the estimated marginal distribution of every
	// variable: marginals[v][x] ≈ P(v = x). Evidence variables get a point
	// mass. Before any sampling it returns uniform distributions for query
	// variables.
	Marginals() [][]float64
	// MarginalVar returns Marginals()[v] without materializing the rest.
	MarginalVar(v factorgraph.VarID) []float64
	// TotalEpochs reports epochs run so far.
	TotalEpochs() int
	// SetMetrics attaches metric handles from an obs registry (nil disables;
	// the disabled path costs one nil check per epoch). Call with no run in
	// flight.
	SetMetrics(m *Metrics)
	// SetProgress enables convergence diagnostics every `every` epochs
	// (every ≤ 0 disables). fn, when non-nil, is called with each reading on
	// the run's goroutine; with a nil fn the readings still feed RunStats
	// and the diag gauges. Call with no run in flight.
	SetProgress(every int, fn func(Progress))
	// Close releases the sampler's worker pool, if any. Idempotent.
	Close()
}

// counts accumulates per-variable value counts.
type counts struct {
	c      [][]int64 // [var][value]
	totals []int64   // [var]
}

// newCounts allocates zeroed counters for every variable of g: one row per
// variable, all cut from one backing array.
func newCounts(g *factorgraph.Graph) *counts {
	n := g.NumVars()
	cs := &counts{c: make([][]int64, n), totals: make([]int64, n)}
	cells := 0
	for i := 0; i < n; i++ {
		cells += int(g.DomainOf(factorgraph.VarID(i)))
	}
	flat := make([]int64, cells)
	for i := 0; i < n; i++ {
		d := int(g.DomainOf(factorgraph.VarID(i)))
		cs.c[i], flat = flat[:d:d], flat[d:]
	}
	return cs
}

// sampleOne draws a new value for v from its conditional distribution; the
// caller stores it. buf must have capacity ≥ the max domain; it is untouched
// on the buffer-free binary fast path. Scores come from the sampler's scorer:
// compiled kernels, or in tests the interpreted reference walk. They agree
// exactly at categorical variables; at a binary one the compiled log-odds
// regroups the interpreted s0 − s1 and can differ in the last ulps, which
// moves a draw only when the uniform lands within those ulps of the
// threshold.
func sampleOne(sc *scorer, v factorgraph.VarID, assign factorgraph.Assignment,
	rng *prng, buf []float64) int32 {
	if sc.binary(v) {
		return sampleBinary(sc.logOdds(v, assign), rng)
	}
	// Temperature 1: dividing by 1.0 is exact, so this is the plain softmax.
	return sampleSoftmax(sc.conditionalScores(v, assign, buf), 1, rng)
}

// sampleBinary is sampleOne's binary fast path: the draw of sampleSoftmax
// over {d, 0} at temperature 1, from the log-odds d = s0 − s1 alone. It draws
// one uniform u, and guardedBinary decides unless u is within its margin of
// the threshold, or |d| ≥ 30, ±Inf or NaN. Otherwise the exact comparison
// decides: the larger score exponentiates to exactly 1, so one math.Exp of ±d
// is needed (IEEE negation is exact: exp(0−d) == exp(−d)), and it picks what
// the softmax walk picks for every finite d.
func sampleBinary(d float64, rng *prng) int32 {
	u := rng.Float64()
	if x := guardedBinary(d, u); x >= 0 {
		return x
	}
	if d < 0 {
		if e0 := math.Exp(d); u*(e0+1) > e0 {
			return 1
		}
	} else if u*(1+math.Exp(-d)) > 1 {
		return 1
	}
	return 0
}

// exp2Neg64 holds 2^(−i/64) for i in [0, 64): guardedBinary's table.
var exp2Neg64 = func() (t [64]float64) {
	for i := range t {
		t[i] = math.Exp2(-float64(i) / 64)
	}
	return t
}()

// expNeg is t̃ ≈ exp(−a) for a in [0, 30): 2^(−q)·2^(−i/64)·p(r), with
// 64q + i = ⌊64a/ln2⌋, r = a − (64q + i)·ln2/64 in [0, ln2/64] up to rounding,
// p the cubic Taylor polynomial of e^(−r) and 2^(−q) an exponent add on the
// bits. Its relative error is ≤ 6e−10: the Taylor remainder r⁴/24·e^|r| ≤
// 5.8e−10, plus table and rounding errors near 1e−15.
func expNeg(a float64) float64 {
	n := int(a * (64 / math.Ln2))
	r := a - float64(n)*(math.Ln2/64)
	t := exp2Neg64[n&63] * (1 - r*(1-r*(0.5-r*(1.0/6))))
	return math.Float64frombits(math.Float64bits(t) - uint64(n>>6)<<52)
}

// guardedBinary decides sampleBinary's exact comparison on u without exp for
// |d| < 30, or returns −1. With t = exp(−|d|), the comparison returns 1 when
// g > 0 — g = u − t(1−u) for d < 0, u(1+t) − 1 otherwise — up to its own
// rounding (math.Exp's ulp, the add, the product), < 2e−15. From t̃ = expNeg
// (u and 1−u are exact), g̃ is within 6e−10·t + 1e−15 of g, and the margin
// m = 4e−9·t̃ + 1e−14 exceeds twice that plus 2e−15: |g̃| > m puts g on g̃'s
// side of 0, far enough for the comparison to see it there.
func guardedBinary(d, u float64) int32 {
	a := math.Abs(d)
	if !(a < 30) {
		return -1
	}
	t := expNeg(a)
	g := u*(1+t) - 1
	if d < 0 {
		g = u - t*(1-u)
	}
	if m := 4e-9*t + 1e-14; g > m {
		return 1
	} else if g < -m {
		return 0
	}
	return -1
}

// sampleSoftmax draws a value from softmax(scores / temp) by a
// max-subtracted inverse-CDF walk, overwriting scores with the unnormalized
// probabilities. The Gibbs draw passes temp 1; MAP's anneal passes its
// current temperature.
func sampleSoftmax(scores []float64, temp float64, rng *prng) int32 {
	maxS := scores[0]
	for _, s := range scores[1:] {
		if s > maxS {
			maxS = s
		}
	}
	var z float64
	for i, s := range scores {
		scores[i] = math.Exp((s - maxS) / temp)
		z += scores[i]
	}
	u := rng.Float64() * z
	for i, p := range scores {
		if u -= p; u <= 0 {
			return int32(i)
		}
	}
	return int32(len(scores) - 1)
}

// queryVars lists the variables that need sampling.
func queryVars(g *factorgraph.Graph) []factorgraph.VarID {
	var out []factorgraph.VarID
	g.Vars(func(id factorgraph.VarID, v factorgraph.Variable) bool {
		if v.Evidence == factorgraph.NoEvidence {
			out = append(out, id)
		}
		return true
	})
	return out
}

// maxDomain returns the largest variable domain (for score buffers).
func maxDomain(g *factorgraph.Graph) int {
	d := 2
	g.Vars(func(_ factorgraph.VarID, v factorgraph.Variable) bool {
		if int(v.Domain) > d {
			d = int(v.Domain)
		}
		return true
	})
	return d
}

// splitmix64 advances a seed and returns a decorrelated value; used to give
// every parallel task an independent deterministic PRNG.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// taskSeed folds a (seed, parts...) task identity into a PRNG state. Hot
// paths place a prng{state: taskSeed(...)} value on the stack instead of
// calling taskRNG, so deriving a per-cell stream costs no allocation.
func taskSeed(seed int64, parts ...uint64) uint64 {
	x := uint64(seed)
	for _, p := range parts {
		x = splitmix64(x ^ p)
	}
	return splitmix64(x)
}

// taskRNG builds a deterministic PRNG for a (seed, parts...) task identity.
func taskRNG(seed int64, parts ...uint64) *prng {
	return &prng{state: taskSeed(seed, parts...)}
}
