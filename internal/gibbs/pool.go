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
// exactly one pool, owns it, and closes it on Close. A pool of two or more
// workers starts its goroutines lazily on the first dispatch; they block on
// a work channel between batches. A pool of at most one worker starts no
// goroutine: every chunk runs on the issuer at dispatch. Either way each
// worker owns its reusable scratch:
//
//   - a score buffer sized to the graph's maximum domain (unused on the
//     binary fast path),
//   - per-instance PRNG streams of the unit being swept (a chunk sweeps all),
//
// so a steady-state epoch performs no allocations: issuers send chunk
// values over the channel (or run them in place), workers run them against
// pre-flattened schedules, and a shared WaitGroup forms the batch barrier.
// Draws count straight into their instance's counters: every variable is
// swept by exactly one chunk per epoch, so no two workers write one row.
//
// Fault tolerance: every chunk, pooled or run in place, runs under a
// recover. A panicking chunk poisons the pool — the first panic's value and
// stack are captured, and from then on chunks are acknowledged without
// executing — so the batch barrier always completes and the issuer surfaces
// one *WorkerPanicError instead of deadlocking. Cancellation rides on the
// chunks themselves: a chunk dispatched with a done channel is skipped when
// the channel has fired by the time it starts, bounding a canceled run's
// latency to at most one in-flight chunk.
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
	work  chan chunk      // nil: chunks run on the issuer
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
// issuing run's cancellation channel: a chunk whose done has fired by the
// time it starts is acknowledged without executing.
type chunk struct {
	e      *engine
	lo, hi int32
	done   <-chan struct{}
}

// workerState is one worker's private, reusable scratch. Each state is a
// separate allocation so adjacent workers do not false-share slice headers.
type workerState struct {
	buf []float64 // score buffer (categorical path), len = maxDomain
	// rngs holds each instance's stream of the unit being swept.
	rngs []prng
}

// newPool sizes a pool for a sampler over g with the given worker count and
// number of sampler instances: every worker runs chunks that cover all
// instances, so it holds a stream per instance. workers ≤ 1 builds a pool
// that runs every chunk on the issuer: one scratch state, no goroutines.
func newPool(workers, instances int, g *factorgraph.Graph) *Pool {
	p := &Pool{
		wg: new(sync.WaitGroup),
		sh: new(poolShared),
	}
	if workers > 1 {
		p.work = make(chan chunk, workers*4)
	}
	for i := 0; i < max(workers, 1); i++ {
		p.ws = append(p.ws, &workerState{
			buf:  make([]float64, maxDomain(g)),
			rngs: make([]prng, instances),
		})
	}
	runtime.SetFinalizer(p, (*Pool).Close)
	return p
}

// dispatch queues one chunk of the current batch, starting the workers on
// first use, or runs it in place when the pool has no goroutines. done,
// when non-nil, lets parked chunks be skipped once the issuing run is
// canceled. The issuer must follow a sequence of dispatches with wait.
func (p *Pool) dispatch(e *engine, lo, hi int32, done <-chan struct{}) {
	if p.work == nil {
		runPoolChunk(p.sh, p.ws[0], chunk{e: e, lo: lo, hi: hi, done: done})
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

// runPoolChunk executes one chunk under the pool's fault envelope, on a
// worker or on the issuer: poisoned pools and fired done channels skip
// execution, and a panic — from the sampler code or an injected hook — is
// captured into the shared fault state instead of unwinding the goroutine.
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
