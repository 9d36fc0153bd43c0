package gibbs

import (
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"

	"repro/internal/factorgraph"
)

// Pool is the persistent worker pool behind the sampler engine
// (DimmWitted-style long-lived execution engine). Every sampler builds
// exactly one pool, owns it, and closes it on Close; its goroutines start
// lazily on the first dispatch, block on a work channel between batches, and
// own all reusable per-worker state:
//
//   - a score buffer sized to the graph's maximum domain (unused on the
//     binary fast path),
//   - per-instance count deltas plus a touched-variable list, merged into
//     the owning instance's counters at epoch barriers,
//   - per-instance PRNG streams of the unit being swept (a chunk sweeps all),
//
// so a steady-state epoch performs no allocations: issuers send chunk
// values over the channel, workers run them against pre-flattened
// schedules, and a shared WaitGroup forms the batch barrier.
//
// Fault tolerance: every chunk runs under a recover. A panicking chunk
// poisons the pool — the first panic's value and stack are captured, and
// from then on workers acknowledge chunks without executing them — so the
// batch barrier always completes and the issuer surfaces one
// *WorkerPanicError instead of deadlocking. Cancellation rides on the
// chunks themselves: a chunk dispatched with a done channel is skipped when
// the channel has fired by the time a worker pulls it, bounding a canceled
// run's latency to at most one in-flight chunk.
//
// An inline pool (zero goroutines — the sequential sampler's) keeps the same
// scratch, delta and hook plumbing but runs each chunk on the issuer at
// dispatch, outside the fault envelope: a panic propagates to the caller.
//
// Concurrency contract: one batch is in flight at a time (dispatch* then
// wait, all from a single issuer goroutine). The samplers uphold this —
// their RunEpochs/RunIncrementalContext calls must not race with each other,
// which was already the seed implementation's contract.
//
// Lifetime: Close releases the worker goroutines; a finalizer backstops
// samplers that are dropped without Close (the workers hold only the
// channel and the shared fault state, never the Pool itself, so an
// abandoned pool becomes collectable and its finalizer shuts the workers
// down).
type Pool struct {
	work  chan chunk      // nil: inline pool
	wg    *sync.WaitGroup // in-flight chunks of the current batch
	sh    *poolShared
	ws    []*workerState
	start sync.Once
	stop  sync.Once
}

// poolShared is the fault state shared by the issuer and the workers. It is
// a separate allocation so workers can hold it without keeping the Pool
// itself alive (finalizer contract).
type poolShared struct {
	// poisoned flips on the first worker panic; workers check it before
	// executing a chunk and the issuer checks it after each barrier.
	poisoned atomic.Bool
	mu       sync.Mutex
	panicErr *WorkerPanicError // first captured panic

	// Fault-injection hook state (nil in production; see TestHooks).
	hook       func(n uint64)
	hookChunks atomic.Uint64
}

// poison records the first panic and poisons the pool.
func (sh *poolShared) poison(v any, stack []byte) {
	sh.mu.Lock()
	if sh.panicErr == nil {
		sh.panicErr = &WorkerPanicError{Value: v, Stack: string(stack)}
	}
	sh.mu.Unlock()
	sh.poisoned.Store(true)
}

// err returns the captured WorkerPanicError, or nil. The error is sticky:
// a poisoned pool reports it on every subsequent batch.
func (sh *poolShared) err() error {
	if !sh.poisoned.Load() {
		return nil
	}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if sh.panicErr == nil {
		return nil
	}
	return sh.panicErr
}

// beforeChunk runs the installed chunk hook, if any, with the ordinal of the
// chunk about to execute.
func (sh *poolShared) beforeChunk() {
	if h := sh.hook; h != nil {
		h(sh.hookChunks.Add(1) - 1)
	}
}

// chunk is one unit of dispatched work for e.runChunk: [lo, hi) is a range of
// the batch's unit list, or the serial tail. done, when non-nil, is the
// issuing run's cancellation channel: a worker that pulls a chunk whose done
// has fired acknowledges it without executing.
type chunk struct {
	e      *engine
	lo, hi int32
	done   <-chan struct{}
}

// workerState is one worker's private, reusable scratch. Each state is a
// separate allocation so adjacent workers do not false-share slice headers.
type workerState struct {
	buf []float64 // score buffer (categorical path), len = maxDomain
	// Per-instance count deltas: dc[k] accumulates this worker's samples
	// for instance k since the last epoch barrier, touched[k] lists the
	// variables with non-zero deltas (so merging is O(samples), not
	// O(vars×domain)). Capacity is fixed at pool construction; appends
	// never reallocate in steady state.
	dc      []*counts
	touched [][]factorgraph.VarID
	// rngs holds each instance's stream of the unit being swept.
	rngs []prng
}

// keep stores instance k's draw x of v and, past burn-in, records it.
func (w *workerState) keep(k int, inst *instance, v factorgraph.VarID, x int32) {
	inst.assign.Set(v, x)
	if inst.count {
		w.record(k, v, x)
	}
}

// record accumulates one sample into the worker-local delta for instance k.
func (w *workerState) record(k int, v factorgraph.VarID, x int32) {
	d := w.dc[k]
	if d.totals[v] == 0 {
		w.touched[k] = append(w.touched[k], v)
	}
	d.c[v][x]++
	d.totals[v]++
}

// newPool sizes a pool for a sampler over g with the given worker count and
// number of sampler instances: every worker runs chunks that cover all
// instances, so it holds deltas and a stream per instance. nvars, the
// schedule's variable count, bounds each touched list. workers = 0 builds an
// inline pool: one scratch state, no goroutines.
func newPool(workers, instances, nvars int, g *factorgraph.Graph) *Pool {
	p := &Pool{
		wg: new(sync.WaitGroup),
		sh: new(poolShared),
	}
	if workers > 0 {
		p.work = make(chan chunk, workers*4)
	}
	for i := 0; i < max(workers, 1); i++ {
		w := &workerState{
			buf:     make([]float64, maxDomain(g)),
			dc:      make([]*counts, instances),
			touched: make([][]factorgraph.VarID, instances),
			rngs:    make([]prng, instances),
		}
		for k := 0; k < instances; k++ {
			w.dc[k] = newCounts(g)
			w.touched[k] = make([]factorgraph.VarID, 0, nvars)
		}
		p.ws = append(p.ws, w)
	}
	runtime.SetFinalizer(p, (*Pool).Close)
	return p
}

// dispatch queues one chunk of the current batch, starting the workers on
// first use. done, when non-nil, lets parked chunks be skipped once the
// issuing run is canceled. The issuer must follow a sequence of dispatches
// with wait.
func (p *Pool) dispatch(e *engine, lo, hi int32, done <-chan struct{}) {
	if p.work == nil {
		p.sh.beforeChunk()
		e.runChunk(p.ws[0], lo, hi)
		return
	}
	p.start.Do(func() {
		for _, w := range p.ws {
			// Workers capture only the channel, the batch WaitGroup, the
			// shared fault state and their own scratch — not p — so an
			// abandoned pool can be finalized while its workers are parked.
			go poolWorker(p.work, p.wg, p.sh, w)
		}
	})
	p.wg.Add(1)
	p.work <- chunk{e: e, lo: lo, hi: hi, done: done}
}

// wait blocks until every dispatched chunk of the current batch completed
// (executed, skipped by cancellation, or dropped by poisoning).
func (p *Pool) wait() { p.wg.Wait() }

// queued reports the number of chunks parked in the work channel right now —
// the backlog the samplers sample into the queue-depth gauge after each
// group's dispatches.
func (p *Pool) queued() int { return len(p.work) }

// err reports the pool's sticky WorkerPanicError, if any. Call with no
// batch in flight (after wait).
func (p *Pool) err() error { return p.sh.err() }

// setHook installs (or clears) the fault-injection chunk hook. Must be
// called with no batch in flight.
func (p *Pool) setHook(h func(n uint64)) {
	p.sh.hook = h
	p.sh.hookChunks.Store(0)
}

// mergeDeltas folds every worker's count deltas for instance k into dst and
// resets them; called at epoch barriers with no batch in flight (the
// wg.Done→Wait edge orders the workers' writes before this read).
func (p *Pool) mergeDeltas(k int, dst *counts) {
	for _, w := range p.ws {
		d := w.dc[k]
		for _, v := range w.touched[k] {
			row, drow := d.c[v], dst.c[v]
			for x, c := range row {
				if c != 0 {
					drow[x] += c
					row[x] = 0
				}
			}
			dst.totals[v] += d.totals[v]
			d.totals[v] = 0
		}
		w.touched[k] = w.touched[k][:0]
	}
}

// discardDeltas drops every worker's unmerged deltas for instance k;
// used after a worker panic so a partially-executed chunk's samples never
// reach the instance counters.
func (p *Pool) discardDeltas(k int) {
	for _, w := range p.ws {
		d := w.dc[k]
		for _, v := range w.touched[k] {
			row := d.c[v]
			for x := range row {
				row[x] = 0
			}
			d.totals[v] = 0
		}
		w.touched[k] = w.touched[k][:0]
	}
}

// Close releases the worker goroutines. Safe to call multiple times; the
// pool must be idle (no batch in flight).
func (p *Pool) Close() {
	p.stop.Do(func() {
		runtime.SetFinalizer(p, nil)
		p.start.Do(func() {}) // never started ⇒ nothing to release
		if p.work != nil {
			close(p.work)
		}
	})
}

func poolWorker(work chan chunk, wg *sync.WaitGroup, sh *poolShared, w *workerState) {
	for c := range work {
		runPoolChunk(sh, w, c)
		wg.Done()
	}
}

// runPoolChunk executes one chunk under the pool's fault envelope: poisoned
// pools and fired done channels skip execution (still acknowledging the
// chunk via the caller's wg.Done), and a panic — from the sampler code or
// an injected hook — is captured into the shared fault state instead of
// unwinding the worker.
func runPoolChunk(sh *poolShared, w *workerState, c chunk) {
	defer func() {
		if r := recover(); r != nil {
			sh.poison(r, debug.Stack())
		}
	}()
	if sh.poisoned.Load() {
		return
	}
	if c.done != nil {
		select {
		case <-c.done:
			return
		default:
		}
	}
	sh.beforeChunk()
	c.e.runChunk(w, c.lo, c.hi)
}
