package gibbs

import (
	"context"

	"repro/internal/factorgraph"
	"repro/internal/obs"
)

// schedule is the flat per-epoch sweep plan the engine executes (Algorithm 1
// lines 10–15 in the general case), precomputed once so an epoch issues no
// per-group allocations: every scheduled variable sits in one contiguous
// vars slice, units are contiguous ranges of it, and groups are contiguous
// ranges of the unit array. Groups run serially; the units of one group are
// sampled in parallel, the variables inside a unit sequentially; the tail is
// swept last, serially, as one chunk. The three variants differ only in the
// plan they build: spatial units are pyramid cells grouped by (level,
// conclique), hogwild's are random buckets in one group, and the sequential
// sampler has one unit holding every query variable.
type schedule struct {
	vars   []factorgraph.VarID // all scheduled variables, unit-major
	varOff []int32             // per unit: range into vars; len = numUnits+1

	units    []int32 // identity unit-index list (full-sweep batch)
	groupOff []int32 // per group: range into units; len = numGroups+1

	tail []factorgraph.VarID // serial sweep after the groups
}

func (sc *schedule) unitVars(u int32) []factorgraph.VarID {
	return sc.vars[sc.varOff[u]:sc.varOff[u+1]]
}

// allUnits fills the full-sweep unit list once vars and varOff are laid out.
func (sc *schedule) allUnits() {
	sc.units = make([]int32, len(sc.varOff)-1)
	for i := range sc.units {
		sc.units[i] = int32(i)
	}
}

// oneGroup finishes a schedule whose units all belong to a single group.
func (sc *schedule) oneGroup() {
	sc.allUnits()
	sc.groupOff = []int32{0, int32(len(sc.units))}
}

// instance is one of the K parallel sampler instances of Algorithm 1: its
// own Markov chain (assignment) and sample counters C_k.
type instance struct {
	assign factorgraph.Assignment
	counts *counts
	epochs int  // chain epochs run (burn-in accounting, PRNG lineage)
	count  bool // the epoch in flight is past burn-in: its draws are counted
}

// keep stores the draw x of v and, past burn-in, counts it. Only the one
// chunk that sweeps v this epoch writes v's row, so no two workers race.
func (inst *instance) keep(v factorgraph.VarID, x int32) {
	inst.assign.Set(v, x)
	if inst.count {
		inst.counts.c[v][x]++
		inst.counts.totals[v]++
	}
}

// tailUnit is the unit index under which the serial tail draws its stream
// and rides the pool (as the chunk [tailUnit, tailUnit)).
const tailUnit = -1

// engine is the one sampler behind Sequential, Hogwild and Spatial: K chains
// over one graph, one epoch loop (sweepEpochs) driven by a schedule, one
// marginal path, one obs/hook wiring, and one worker pool that the engine
// builds, owns and closes. A constructor supplies the
// schedule, the chunking (split), the PRNG stream identity and the pool
// width; see DESIGN §6 for the table of what each variant supplies.
type engine struct {
	name string
	g    *factorgraph.Graph
	sc   scorer
	// workers is the pool width; at most 1 runs every chunk on the caller.
	workers int
	// split is the most chunks a group is cut into; each covers all K
	// instances.
	split int32
	// Stream identity, resolved once per unit: chain, when non-nil, is the
	// one persistent PRNG every draw comes from; otherwise stream derives the
	// unit's state from (instance, chain epoch, unit), so the sampling
	// program never depends on which worker runs the unit.
	chain  *prng
	stream func(k int, epoch uint64, unit int32) uint64

	instances []*instance
	sched     schedule
	pinned    []bool // evidence added after construction (never swept)
	burnIn    int
	epochs    int
	pool      *Pool
	// The batch in flight, set between batches: the unit list the chunk
	// ranges [lo, hi) refer to, and the serial tail.
	batchUnits []int32
	batchTail  []factorgraph.VarID

	hooks TestHooks // fault-injection plane (zero in production)

	obsState // metrics/diagnostics plane (zero: disabled)

	// Instrumentation (nil unless a variant enables it): per-unit sweep
	// counts and tail-variable visits, counted once per group dispatch.
	swept     []int
	sweptTail int
}

// start builds the chain state and the pool once the constructor has set the
// identity fields and the schedule: K instances and a pool of s.workers
// goroutines (at most 1: chunks run on the caller). A constructor that
// brings its own programs has set sc; every other one scores through the
// graph's folded set.
func (s *engine) start(instances int) {
	if s.sc.k == nil {
		s.sc = newScorer(s.g)
	}
	s.pinned = make([]bool, s.g.NumVars())
	s.pool = newPool(s.workers, instances, s.g)
	for k := 0; k < instances; k++ {
		s.instances = append(s.instances, &instance{assign: s.g.InitialAssignment(), counts: newCounts(s.g)})
	}
}

// Close releases the sampler's worker pool. Optional — an abandoned pool is
// cleaned up by a finalizer — but deterministic for callers that create many
// samplers. Idempotent.
func (s *engine) Close() { s.pool.Close() }

// Name implements Sampler.
func (s *engine) Name() string { return s.name }

// TotalEpochs implements Sampler.
func (s *engine) TotalEpochs() int { return s.epochs }

// SetBurnIn discards chain epochs below n from the marginal counters (they
// are still sampled, moving the chain).
func (s *engine) SetBurnIn(n int) { s.burnIn = n }

// SetTestHooks installs the fault-injection plane (see TestHooks). Call
// with no run in flight.
func (s *engine) SetTestHooks(h TestHooks) {
	s.hooks = h
	s.installChunkHook()
}

// SetMetrics attaches (or detaches, with nil) the obs metric handles. The
// chunk counter rides the pool's hook seam, composed with any installed
// fault-injection hook. Call with no run in flight.
func (s *engine) SetMetrics(m *Metrics) {
	s.met = m
	s.installChunkHook()
	publishKernelMetrics(m, s.sc.k)
}

// installChunkHook (re)installs the pool chunk hook composing the obs chunk
// counter with the fault-injection hook.
func (s *engine) installChunkHook() {
	var c *obs.Counter
	if s.met != nil {
		c = s.met.Chunks
	}
	s.pool.setHook(composeChunkHook(c, s.hooks.BeforeChunk))
}

// SetProgress enables convergence diagnostics every `every` epochs over the
// K instances' counters (see Sampler.SetProgress). A single chain reads
// Spread 0.
func (s *engine) SetProgress(every int, fn func(Progress)) {
	chains := make([]*counts, 0, len(s.instances))
	for _, inst := range s.instances {
		chains = append(chains, inst.counts)
	}
	s.enableProgress(s.g, every, fn, chains)
}

// runChunk is the pool's chunk runner: units [lo, hi) of the batch in
// flight, or its serial tail, swept for every instance in lockstep.
func (s *engine) runChunk(w *workerState, lo, hi int32) {
	if lo == tailUnit {
		s.sweep(w, tailUnit, s.batchTail)
		return
	}
	for _, u := range s.batchUnits[lo:hi] {
		s.sweep(w, u, s.sched.unitVars(u))
	}
}

// sweep samples one unit's variables with standard Gibbs steps, all K
// instances at a variable before the next. A binary program is walked once
// per pair of instances (an odd last one, or the interpreted walk, goes
// alone). Each instance has its own stream, burn-in flag and counters, so
// its chain is the one it would run alone, at any K.
func (s *engine) sweep(w *workerState, u int32, vars []factorgraph.VarID) {
	insts, rngs := s.instances, w.rngs
	if s.chain != nil {
		rngs[0] = *s.chain
	} else {
		for k, inst := range insts {
			rngs[k].state = s.stream(k, uint64(inst.epochs), u)
		}
	}
	for _, v := range vars {
		if s.pinned[v] {
			continue
		}
		k := 0
		if s.sc.k != nil && s.sc.k.Binary(v) {
			for ; k+1 < len(insts); k += 2 {
				a, b := insts[k], insts[k+1]
				da, db := s.sc.k.BinaryLogOddsPair(v, a.assign, b.assign)
				a.keep(v, sampleBinary(da, &rngs[k]))
				b.keep(v, sampleBinary(db, &rngs[k+1]))
			}
		}
		for ; k < len(insts); k++ {
			insts[k].keep(v, sampleOne(&s.sc, v, insts[k].assign, &rngs[k], w.buf))
		}
	}
	if s.chain != nil {
		*s.chain = rngs[0]
	}
}

// RunEpochs implements Sampler: each call runs n epochs on every instance,
// instances in lockstep (so one call does the work of n·K raw epochs in n
// rounds, matching Algorithm 1's e = E/K). It is the uninterruptible legacy
// entry point: a worker panic (impossible unless sampler internals or an
// injected fault panic) is re-raised on the caller.
func (s *engine) RunEpochs(n int) {
	if _, err := s.Run(context.Background(), n); err != nil {
		panic(err)
	}
}

// Run advances every instance by up to n epochs under ctx. Cancellation is
// chunk-granular: parked chunks are skipped once ctx fires and the call
// returns after at most one in-flight chunk per worker, keeping the partial
// samples accumulated so far. A worker panic returns a *WorkerPanicError
// (the sampler is then poisoned; see WorkerPanicError). nil ctx means
// context.Background().
func (s *engine) Run(ctx context.Context, n int) (RunStats, error) {
	span := obs.SpanFromContext(ctx).Child("gibbs.steady")
	st, err := s.sweepEpochs(ctx, span, n, s.sched.units, s.sched.groupOff, s.sched.tail)
	if span.Enabled() { // boxing the note's arguments would allocate on the disabled path
		span.Notef("epochs=%d reason=%s sampler=%s", st.Epochs, st.Reason, s.name)
		span.End()
	}
	return st, err
}

// RunTotalEpochs is RunTotal without a context; like RunEpochs, a worker
// panic is re-raised on the caller.
func (s *engine) RunTotalEpochs(total int) {
	if _, err := s.RunTotal(context.Background(), total); err != nil {
		panic(err)
	}
}

// RunTotal runs approximately total raw epochs of work split across the K
// instances (Algorithm 1 line 4: e = E/K, rounded up). K > 1 chains always
// run at least one round; a single chain runs exactly Run(ctx, total).
func (s *engine) RunTotal(ctx context.Context, total int) (RunStats, error) {
	k := len(s.instances)
	per := (total + k - 1) / k
	if per < 1 && k > 1 {
		per = 1
	}
	return s.Run(ctx, per)
}

// sweepEpochs runs up to n epochs over the given unit batch: groups
// serially, each group's units chunked across the pool, every chunk sweeping
// all K instances (see sweep), then the serial tail as one chunk. Draws
// count straight into the instances' counters, so an epoch ends at its last
// barrier. The full sweep passes the precomputed schedule; the spatial
// sampler's RunIncrementalContext passes its restricted view. Nothing in the
// per-epoch loop allocates.
//
// span is the caller's stage for this sweep — one span per call, opened,
// noted (epochs, stop reason) and ended by the caller; a disabled span is
// free. The SetProgress readings land on it as events, from this goroutine.
// Per-epoch timing is deliberately not in the tree: it lives in the
// sya_epoch_seconds / sya_chunk_queue_depth series.
//
// Interruption points: ctx is checked before each epoch, between groups and
// at the barrier, and workers skip parked chunks once ctx fires. An epoch
// cut short by cancellation keeps its partial samples but is not counted in
// RunStats.Epochs (its PRNG epoch identity is consumed). On a worker panic
// the pool's sticky *WorkerPanicError is returned; the counters keep the
// draws of the epoch in flight, as after a cancellation.
func (s *engine) sweepEpochs(ctx context.Context, span obs.Span, n int, units, groupOff []int32, tail []factorgraph.VarID) (RunStats, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	st := RunStats{Reason: ReasonDone}
	done := ctx.Done()
	active := s.obsActive()
	for e := 0; e < n; e++ {
		if ctx.Err() != nil {
			st.Reason = reasonFromCtx(ctx)
			break
		}
		eo := beginEpochObs(active)
		for _, inst := range s.instances {
			// Burn-in is decided before the chain epoch increments.
			inst.count = inst.epochs >= s.burnIn
			inst.epochs++
		}
		s.batchUnits, s.batchTail = units, tail
		s.epochs++
		interrupted := false
		for gi := 0; gi+1 < len(groupOff); gi++ {
			lo, hi := groupOff[gi], groupOff[gi+1]
			if lo == hi {
				continue
			}
			if done != nil {
				select {
				case <-done:
					interrupted = true
				default:
				}
				if interrupted {
					break
				}
			}
			if s.swept != nil {
				for _, u := range units[lo:hi] {
					s.swept[u]++
				}
			}
			per := (hi - lo + s.split - 1) / s.split
			for off := lo; off < hi; off += per {
				s.pool.dispatch(s, off, min(off+per, hi), done)
			}
			if active {
				eo.noteQueue(s.pool.queued())
			}
			if err := s.barrier(); err != nil {
				st.Reason = ReasonPanic
				return st, err
			}
		}
		if !interrupted && len(tail) > 0 {
			if s.swept != nil {
				s.sweptTail += len(tail)
			}
			s.pool.dispatch(s, tailUnit, tailUnit, done)
			if err := s.barrier(); err != nil {
				st.Reason = ReasonPanic
				return st, err
			}
		}
		if interrupted || ctx.Err() != nil {
			// Cancellation landed mid-epoch: chunks pulled after the fire
			// were skipped, so the epoch is partial — keep its samples but
			// do not count it.
			st.Reason = reasonFromCtx(ctx)
			break
		}
		st.Epochs++
		if active {
			finishEpochObs(s.met, &eo)
		}
		if s.diagDue(s.epochs) {
			s.takeDiag(span, s.name, s.epochs, &st)
		}
		if s.hooks.AfterEpoch != nil {
			s.hooks.AfterEpoch(s.epochs)
		}
	}
	s.finalDiag(span, s.name, s.epochs, &st)
	return st, nil
}

// barrier waits for the batch in flight and returns the pool's sticky
// worker-panic error, if any.
func (s *engine) barrier() error {
	s.pool.wait()
	return s.pool.err()
}

// Marginals implements Sampler: the average of the K instances' counters
// (Algorithm 1 lines 16 and 18–19), one MarginalVar per variable. Every row
// is cut from one backing array, capacity-capped so a caller's append copies.
func (s *engine) Marginals() [][]float64 {
	n := s.g.NumVars()
	cells := 0
	for i := 0; i < n; i++ {
		cells += int(s.g.DomainOf(factorgraph.VarID(i)))
	}
	out, flat := make([][]float64, n), make([]float64, cells)
	for i := 0; i < n; i++ {
		d := int(s.g.DomainOf(factorgraph.VarID(i)))
		out[i], flat = flat[:d:d], flat[d:]
		s.marginalInto(factorgraph.VarID(i), out[i])
	}
	return out
}

// MarginalVar returns one variable's marginal without materializing the
// whole-graph slice — the serving layer's point-query read path. Evidence
// variables and variables pinned after construction get a point mass,
// unsampled variables a uniform. Not safe concurrently with a running
// sweep; callers serialize reads against sampling (the server holds its
// read lock for queries and its write lock around resamples).
func (s *engine) MarginalVar(v factorgraph.VarID) []float64 {
	m := make([]float64, s.g.DomainOf(v))
	s.marginalInto(v, m)
	return m
}

// marginalInto writes v's marginal into the zeroed m, one slot per value.
func (s *engine) marginalInto(v factorgraph.VarID, m []float64) {
	if ev := s.g.Var(v).Evidence; ev != factorgraph.NoEvidence {
		m[ev] = 1
		return
	}
	if s.pinned[v] {
		m[s.instances[0].assign.Get(v)] = 1
		return
	}
	var total float64
	for _, inst := range s.instances {
		total += float64(inst.counts.totals[v])
	}
	if total == 0 {
		for x := range m {
			m[x] = 1 / float64(len(m))
		}
		return
	}
	for _, inst := range s.instances {
		for x, c := range inst.counts.c[v] {
			m[x] += float64(c)
		}
	}
	for x := range m {
		m[x] /= total
	}
}
