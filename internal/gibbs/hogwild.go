package gibbs

import (
	"runtime"

	"repro/internal/factorgraph"
)

// Hogwild is the DeepDive-style parallel Gibbs sampler ([46], [47] in the
// paper): query variables are randomly partitioned into buckets, and each
// epoch the buckets sweep concurrently over one shared assignment. The
// paper's Section V observes that this strategy is fast per epoch but
// converges slowly when variables are spatially correlated, because
// dependent variables are sampled simultaneously and ignore each other's
// fresh values — exactly the deficiency the spatial sampler removes.
//
// It is the engine's schedule with one group and one chain: the shuffled
// query variables live in one flat slice, buckets are contiguous ranges of
// it, and every bucket is one dispatched chunk.
//
// The bucket partition is fixed-grain (hogwildGrain variables per bucket)
// and each bucket's PRNG stream derives from (seed, epoch, bucket index) —
// both independent of the worker count and of worker interleaving, so any
// width executes the identical sampling program. Whether the resulting
// *chain* is bit-identical depends only on hogwild's inherent benign races:
// with Workers=1, or when concurrently swept variables do not interact,
// runs are bit-identical across widths; with dependent variables swept
// concurrently, hogwild is scheduling-dependent by design.
type Hogwild struct{ engine }

// hogwildGrain is the bucket size of the hogwild partition. Buckets — not
// workers — are the unit of PRNG stream identity and of dispatch, so the
// sampling program is a pure function of (graph, seed): any worker count
// executes the same buckets under the same streams. The grain keeps
// bench-scale graphs (thousands of query variables) in tens of buckets —
// enough chunks to load any realistic worker width without making the
// per-chunk dispatch overhead visible.
const hogwildGrain = 64

// NewHogwild builds a hogwild sampler; workers ≤ 0 selects GOMAXPROCS.
func NewHogwild(g *factorgraph.Graph, seed int64, workers int) *Hogwild {
	query := queryVars(g)
	// The partition depends on the graph alone: fixed-grain buckets, so the
	// chunk set (and each chunk's PRNG stream) is worker-count independent.
	buckets := max((len(query)+hogwildGrain-1)/hogwildGrain, 1)
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = min(workers, buckets)
	h := &Hogwild{engine: engine{name: "hogwild", g: g, workers: workers, split: int32(buckets)}}
	// Stream identity is (seed, epoch, bucket): pinned to the chunk, never
	// to the worker that happens to execute it.
	h.stream = func(_ int, epoch uint64, bucket int32) uint64 {
		return taskSeed(seed, epoch, uint64(bucket)<<32)
	}
	// Random partition (the paper's "randomly partition the variables into
	// a set of buckets").
	rng := taskRNG(seed, 0xb0c4e7)
	perm := make([]int, len(query))
	for i := range perm {
		perm[i] = i
	}
	// Fisher–Yates shuffle.
	for i := len(perm) - 1; i > 0; i-- {
		j := rng.Intn(i + 1)
		perm[i], perm[j] = perm[j], perm[i]
	}
	// Deal round-robin into buckets, then flatten bucket-major.
	deal := make([][]factorgraph.VarID, buckets)
	for i, pi := range perm {
		b := i % buckets
		deal[b] = append(deal[b], query[pi])
	}
	sc := &h.sched
	sc.varOff = append(sc.varOff, 0)
	for _, b := range deal {
		sc.vars = append(sc.vars, b...)
		sc.varOff = append(sc.varOff, int32(len(sc.vars)))
	}
	sc.oneGroup()
	h.start(1)
	return h
}
