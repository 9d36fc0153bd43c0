package gibbs

import (
	"context"
	"runtime"
	"time"

	"repro/internal/factorgraph"
	"repro/internal/obs"
)

// Hogwild is the DeepDive-style parallel Gibbs sampler ([46], [47] in the
// paper): query variables are randomly partitioned into W buckets, and each
// epoch the buckets sweep concurrently over one shared assignment. The
// paper's Section V observes that this strategy is fast per epoch but
// converges slowly when variables are spatially correlated, because
// dependent variables are sampled simultaneously and ignore each other's
// fresh values — exactly the deficiency the spatial sampler removes.
//
// Execution shares the spatial sampler's pooled backend: the shuffled
// query variables live in one flat slice, buckets are contiguous ranges of
// it dispatched to persistent workers, and per-worker count deltas merge
// into the sampler's counters at each epoch barrier. It also shares the
// fault-tolerant runtime: Run accepts a context checked at chunk
// boundaries, worker panics surface as a *WorkerPanicError, and
// Snapshot/Restore round-trip the chain state.
//
// The bucket partition is fixed-grain (hogwildGrain variables per bucket)
// and each bucket's PRNG stream derives from (seed, epoch, bucket index) —
// both independent of the worker count and of worker interleaving. A
// checkpoint therefore resumes the identical sampling program at any
// worker width. Whether the resulting *chain* is bit-identical depends only
// on hogwild's inherent benign races: with Workers=1, or when concurrently
// swept variables do not interact, runs are bit-identical across widths and
// across cut+resume; with dependent variables swept concurrently, hogwild
// is scheduling-dependent by design, resumed or not.
type Hogwild struct {
	g         *factorgraph.Graph
	sc        scorer
	assign    factorgraph.Assignment
	seed      int64
	workers   int
	buckets   int
	flat      []factorgraph.VarID // shuffled query variables, bucket-major
	bucketOff []int32             // len = buckets+1, ranges into flat
	counts    *counts
	pool      *Pool
	shared    *SharedPool // nil → pool is privately owned
	ownPool   bool
	run       *hogwildRun
	epochs    int
	burnIn    int
	hooks     TestHooks
	ckpt      *Checkpointer

	obsState // metrics/trace/diagnostics plane (zero: disabled)
}

// hogwildGrain is the bucket size of the hogwild partition. Buckets — not
// workers — are the unit of PRNG stream identity and of dispatch, so the
// sampling program is a pure function of (graph, seed): any worker count
// executes the same buckets under the same streams. The grain keeps
// bench-scale graphs (thousands of query variables) in tens of buckets —
// enough chunks to load any realistic worker width without making the
// per-chunk dispatch overhead visible.
const hogwildGrain = 64

// SetBurnIn discards the first n chain epochs from the marginal counters.
// Call before the first RunEpochs.
func (h *Hogwild) SetBurnIn(n int) { h.burnIn = n }

// SetTestHooks installs the fault-injection plane (see TestHooks). Call
// with no run in flight.
func (h *Hogwild) SetTestHooks(hk TestHooks) {
	h.hooks = hk
	h.installChunkHook()
}

// SetMetrics attaches (or detaches, with nil) the obs metric handles; the
// chunk counter rides the pool's hook seam. Call with no run in flight.
func (h *Hogwild) SetMetrics(m *Metrics) {
	h.met = m
	h.installChunkHook()
	publishKernelMetrics(m, h.sc.k)
}

// installChunkHook (re)installs the pool chunk hook composing the obs chunk
// counter with the fault-injection hook.
func (h *Hogwild) installChunkHook() {
	var c *obs.Counter
	if h.met != nil {
		c = h.met.Chunks
	}
	h.pool.setHook(composeChunkHook(c, h.hooks.BeforeChunk))
}

// SetProgress enables convergence diagnostics every `every` epochs (see
// Sampler.SetProgress). Hogwild runs a single chain, so Spread reads 0.
func (h *Hogwild) SetProgress(every int, fn func(Progress)) {
	h.enableProgress(h.g, every, fn, []*counts{h.counts})
}

// SetCheckpointer enables periodic snapshots: during context-aware runs a
// checkpoint is written at every epoch multiple of cp.Every. nil disables.
func (h *Hogwild) SetCheckpointer(cp *Checkpointer) { h.ckpt = cp }

// NewHogwild builds a hogwild sampler; workers ≤ 0 selects GOMAXPROCS.
func NewHogwild(g *factorgraph.Graph, seed int64, workers int, opts ...SamplerOption) *Hogwild {
	cfg := applySamplerOptions(opts)
	query := queryVars(g)
	// The partition depends on the graph alone: fixed-grain buckets, so the
	// chunk set (and each chunk's PRNG stream) is worker-count independent.
	buckets := (len(query) + hogwildGrain - 1) / hogwildGrain
	if buckets < 1 {
		buckets = 1
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > buckets {
		workers = buckets
	}
	pool, own := poolFor(cfg.shared, workers, 1, g)
	h := &Hogwild{
		g:       g,
		sc:      newScorer(g),
		assign:  g.InitialAssignment(),
		seed:    seed,
		workers: workers,
		buckets: buckets,
		counts:  newCounts(g),
		pool:    pool,
		shared:  cfg.shared,
		ownPool: own,
	}
	h.run = &hogwildRun{h: h}
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
	h.bucketOff = append(h.bucketOff, 0)
	for _, b := range deal {
		h.flat = append(h.flat, b...)
		h.bucketOff = append(h.bucketOff, int32(len(h.flat)))
	}
	return h
}

// Close releases the sampler's worker pool: shared pools return to their
// SharedPool cache, private ones shut down (finalizer-backed). Idempotent.
func (h *Hogwild) Close() {
	if h.ownPool {
		h.pool.Close()
		return
	}
	if h.shared != nil {
		h.pool.setHook(nil)
		h.shared.Release(h.pool, h.workers, 1, h.g)
		h.shared = nil
	}
}

// Name implements Sampler.
func (h *Hogwild) Name() string { return "hogwild" }

// TotalEpochs implements Sampler.
func (h *Hogwild) TotalEpochs() int { return h.epochs }

// hogwildRun is the pool batch descriptor: chunk lo identifies the bucket.
type hogwildRun struct {
	h     *Hogwild
	epoch uint64
	count bool
}

func (r *hogwildRun) runChunk(w *workerState, bucket, _ int32) {
	h := r.h
	// Stream identity is (seed, epoch, bucket): pinned to the chunk, never
	// to the worker that happens to execute it.
	rng := prng{state: taskSeed(h.seed, r.epoch, uint64(bucket)<<32)}
	for _, v := range h.flat[h.bucketOff[bucket]:h.bucketOff[bucket+1]] {
		x := sampleOne(&h.sc, v, h.assign, &rng, w.buf)
		if r.count {
			w.record(0, v, x)
		}
	}
}

// RunEpochs implements Sampler; a worker panic is re-raised on the caller.
func (h *Hogwild) RunEpochs(n int) {
	if _, err := h.Run(context.Background(), n); err != nil {
		panic(err)
	}
}

// Run advances the chain by up to n epochs under ctx, with the same
// cancellation, panic and checkpoint semantics as (*Spatial).Run.
func (h *Hogwild) Run(ctx context.Context, n int) (RunStats, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	st := RunStats{Reason: ReasonDone}
	done := ctx.Done()
	active := h.obsActive()
	for e := 0; e < n; e++ {
		if ctx.Err() != nil {
			st.Reason = reasonFromCtx(ctx)
			h.finalDiag("hogwild", h.epochs, &st)
			return st, nil
		}
		eo := beginEpochObs(active)
		h.run.epoch = uint64(h.epochs) + 1
		h.run.count = h.epochs >= h.burnIn
		h.epochs++
		for b := 0; b < h.buckets; b++ {
			h.pool.dispatch(h.run, int32(b), 0, done)
		}
		if active {
			eo.noteQueue(h.pool.queued())
		}
		h.pool.wait()
		if err := h.pool.err(); err != nil {
			h.pool.discardDeltas(0)
			st.Reason = ReasonPanic
			return st, err
		}
		var mergeStart time.Time
		if active {
			mergeStart = time.Now()
		}
		h.pool.mergeDeltas(0, h.counts)
		if active {
			eo.merge = time.Since(mergeStart)
		}
		if ctx.Err() != nil {
			// Cancellation landed mid-epoch: buckets pulled after the fire
			// were skipped, so the epoch is partial — keep its samples but
			// do not count it.
			st.Reason = reasonFromCtx(ctx)
			h.finalDiag("hogwild", h.epochs, &st)
			return st, nil
		}
		st.Epochs++
		if active {
			finishEpochObs(h.met, h.trace, "hogwild", h.epochs, &eo)
		}
		if h.diagDue(h.epochs) {
			h.takeDiag("hogwild", h.epochs, &st)
		}
		if h.ckpt != nil && h.ckpt.due(h.epochs) {
			if err := saveCheckpointObs(h.met, h.trace, "hogwild", h.epochs, func() error {
				return h.ckpt.Save(h.Snapshot())
			}); err != nil {
				return st, err
			}
		}
		if h.hooks.AfterEpoch != nil {
			h.hooks.AfterEpoch(h.epochs)
		}
	}
	h.finalDiag("hogwild", h.epochs, &st)
	return st, nil
}

// Marginals implements Sampler.
func (h *Hogwild) Marginals() [][]float64 {
	return marginalsFrom(h.g, func(v int) ([]float64, float64) {
		vals := make([]float64, len(h.counts.c[v]))
		for i, c := range h.counts.c[v] {
			vals[i] = float64(c)
		}
		return vals, float64(h.counts.totals[v])
	})
}
