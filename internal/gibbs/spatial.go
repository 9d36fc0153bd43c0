package gibbs

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"time"

	"repro/internal/conclique"
	"repro/internal/factorgraph"
	"repro/internal/geom"
	"repro/internal/index/pyramid"
	"repro/internal/obs"
)

// SpatialOptions configures the spatial Gibbs sampler (paper Algorithm 1).
type SpatialOptions struct {
	// Levels is the pyramid height L. Default 8 (the paper's setting).
	Levels int
	// LocalityLevel is the deepest pyramid level swept; the paper's
	// Fig. 13b knob. Default Levels-1 (the lowest level).
	LocalityLevel int
	// Instances is K, the number of parallel sampler instances whose counts
	// are averaged each epoch. Default 2.
	Instances int
	// Capacity is the pyramid split threshold. Default 32.
	Capacity int
	// Seed drives all randomness deterministically.
	Seed int64
	// BurnIn discards the first BurnIn epochs of each instance's chain from
	// the marginal counters (they are still sampled, moving the chain).
	BurnIn int
	// Workers caps the parallelism used per instance per conclique sweep;
	// the pool holds Workers × Instances persistent goroutines. Default
	// GOMAXPROCS.
	Workers int
	// Space overrides the pyramid bounding space (derived from atom
	// locations when zero).
	Space geom.Rect
	// Shared, when non-nil, supplies the worker pool from a SharedPool
	// cache instead of building a private one; Close releases the pool back
	// for the next sampler of the same shape.
	Shared *SharedPool
}

func (o SpatialOptions) withDefaults() SpatialOptions {
	if o.Levels <= 0 {
		o.Levels = 8
	}
	if o.LocalityLevel <= 0 || o.LocalityLevel > o.Levels-1 {
		o.LocalityLevel = o.Levels - 1
	}
	if o.Instances <= 0 {
		o.Instances = 2
	}
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	return o
}

// instance is one of the K parallel sampler instances of Algorithm 1: its
// own Markov chain (assignment) and sample counters C_k.
type instance struct {
	assign factorgraph.Assignment
	counts *counts
	epochs int // chain epochs run (for burn-in accounting)
}

// schedule is the flattened per-epoch sweep plan (Algorithm 1 lines 10–15),
// precomputed once so an epoch issues no per-group allocations: every
// scheduled variable sits in one contiguous vars slice, cells are contiguous
// ranges of it, and groups — one per (level, conclique) with at least one
// cell — are contiguous ranges of the cell array. Cells within one group
// are mutually non-adjacent and sampled in parallel; groups run serially.
type schedule struct {
	vars   []factorgraph.VarID // all scheduled home-cell atoms
	varOff []int32             // per cell: range into vars; len = numCells+1
	keys   []pyramid.CellKey   // per cell: its pyramid cell

	allCells   []int32 // identity cell-index list (full-sweep batch)
	groupOff   []int32 // per group: range into allCells; len = numGroups+1
	groupLevel []int   // per group: pyramid level (diagnostics)
}

func (sc *schedule) cellVars(ci int32) []factorgraph.VarID {
	return sc.vars[sc.varOff[ci]:sc.varOff[ci+1]]
}

// restrictedView is one cached restricted schedule of RunIncremental, keyed
// by the dirty-variable set that produced it: the dirty cells (with group
// boundaries preserved) plus the affected tail variables. Views stay valid
// across later evidence pins because pinned variables are filtered at
// execution time, never from the view (a view can only over-include).
type restrictedView struct {
	dirty    []factorgraph.VarID // sorted member list, for exact key checks
	cells    []int32
	groupOff []int32
	extra    []factorgraph.VarID
}

// matches reports whether the view was built for exactly this dirty set.
func (rv *restrictedView) matches(dirty map[factorgraph.VarID]bool) bool {
	if len(rv.dirty) != len(dirty) {
		return false
	}
	for _, v := range rv.dirty {
		if !dirty[v] {
			return false
		}
	}
	return true
}

// Spatial implements the paper's Spatial Gibbs Sampling (Algorithm 1). It
// spatially partitions the query atoms with a partial pyramid index, then
// every epoch sweeps the pyramid levels; within a level it processes the
// minimum conclique cover of the non-empty cells — concliques serially, the
// cells of one conclique in parallel, the variables inside a cell
// sequentially with standard Gibbs steps. K instances run concurrently and
// their counters are averaged (line 16); marginals come from the averaged
// counters.
//
// Execution goes through a persistent Pool: the instances' cell tasks for
// one conclique are chunked across long-lived workers, an epoch barrier
// merges the workers' count deltas into each instance's counters, and the
// flattened schedule plus per-worker scratch make a steady-state epoch
// allocation-free.
//
// Each atom is sampled exactly once per epoch, at its *home* cell (its
// lowest maintained pyramid cell, clamped to LocalityLevel) — the Figure 6
// reading where a parent cell's partial graph is divided among its
// maintained children. Atoms whose home lies above the swept range
// (sparse, merged-away quadrants) and atoms without a location are swept
// sequentially at the end of the epoch.
//
// Fault tolerance (see Run): runs accept a context checked at chunk
// boundaries, worker panics surface as a *WorkerPanicError instead of
// deadlocking the epoch barrier, and Snapshot/Restore round-trip the full
// chain state for checkpoint/resume.
type Spatial struct {
	g    *factorgraph.Graph
	sc   scorer
	opts SpatialOptions
	pyr  *pyramid.Index // nil when the graph has no located query atoms

	instances []*instance
	sched     schedule
	tail      []factorgraph.VarID // residual + non-spatial vars, serial sweep
	homeCell  map[factorgraph.VarID]pyramid.CellKey
	cellIndex map[pyramid.CellKey]int32 // cell key → schedule cell index
	pinned    []bool                    // evidence added after construction
	dirty     map[factorgraph.VarID]bool
	epochs    int

	pool     *Pool
	shared   *SharedPool // nil → pool is privately owned
	ownPool  bool
	runs     []*spatialRun // per instance, reused every batch
	tailRuns []*tailRun    // per instance, reused every epoch

	// incCache caches restricted schedule views keyed by an
	// order-independent hash of the dirty set, so repeated incremental
	// updates of the same cells sweep allocation-free.
	incCache map[uint64]*restrictedView

	hooks TestHooks     // fault-injection plane (zero in production)
	ckpt  *Checkpointer // periodic snapshot writer (nil: disabled)

	obsState // metrics/trace/diagnostics plane (zero: disabled)

	// Instrumentation (nil unless InstrumentSweeps was called): cells and
	// tail variables swept per epoch, counted once per group dispatch.
	sweptCells map[pyramid.CellKey]int
	sweptTail  int
}

// NewSpatial builds the sampler, including the pyramid index over the
// spatial query atoms, the flattened per-level conclique schedule
// (Algorithm 1 lines 5–6), and the persistent worker pool.
func NewSpatial(g *factorgraph.Graph, opts SpatialOptions) (*Spatial, error) {
	opts = opts.withDefaults()
	s := &Spatial{
		g:         g,
		sc:        newScorer(g),
		opts:      opts,
		pinned:    make([]bool, g.NumVars()),
		dirty:     map[factorgraph.VarID]bool{},
		cellIndex: map[pyramid.CellKey]int32{},
		incCache:  map[uint64]*restrictedView{},
	}
	pyr, entries, nonSpatial, err := buildPyramid(g, opts)
	if err != nil {
		return nil, err
	}
	var residual []factorgraph.VarID
	if pyr != nil {
		s.pyr = pyr
		s.homeCell, residual = homeCells(pyr, entries, opts.sweepLevels())
		s.buildSchedule()
	}
	sort.Slice(residual, func(i, j int) bool { return residual[i] < residual[j] })
	s.tail = append(residual, nonSpatial...)
	s.pool, s.ownPool = poolFor(opts.Shared, opts.Workers*opts.Instances, opts.Instances, g)
	s.shared = opts.Shared
	for k := 0; k < opts.Instances; k++ {
		inst := &instance{
			assign: g.InitialAssignment(),
			counts: newCounts(g),
		}
		s.instances = append(s.instances, inst)
		s.runs = append(s.runs, &spatialRun{s: s, inst: inst, k: k})
		s.tailRuns = append(s.tailRuns, &tailRun{s: s, inst: inst, k: k})
	}
	return s, nil
}

// HomeCells computes the home pyramid cell of every located query atom of g
// under opts: the placement NewSpatial schedules by, without the sampler
// around it (no kernels, pool or chain state). Atoms missing from the map
// are swept in the serial tail (see Spatial.HomeCell).
func HomeCells(g *factorgraph.Graph, opts SpatialOptions) (map[factorgraph.VarID]pyramid.CellKey, error) {
	opts = opts.withDefaults()
	pyr, entries, _, err := buildPyramid(g, opts)
	if err != nil || pyr == nil {
		return nil, err
	}
	home, _ := homeCells(pyr, entries, opts.sweepLevels())
	return home, nil
}

// buildPyramid indexes the located query atoms of g (opts with defaults
// applied). It returns the index (nil when no query atom has a location),
// the indexed entries and the query atoms without a location.
func buildPyramid(g *factorgraph.Graph, opts SpatialOptions) (pyr *pyramid.Index, entries []pyramid.Entry, nonSpatial []factorgraph.VarID, err error) {
	var space geom.Rect
	first := true
	for _, v := range queryVars(g) {
		meta := g.Var(v)
		if !meta.HasLoc {
			nonSpatial = append(nonSpatial, v)
			continue
		}
		entries = append(entries, pyramid.Entry{ID: int64(v), Loc: meta.Loc})
		b := meta.Loc.Bounds()
		if first {
			space, first = b, false
		} else {
			space = space.Union(b)
		}
	}
	if opts.Space.Valid() && opts.Space.Area() > 0 {
		space = opts.Space
	} else if !first {
		// Grow slightly so boundary atoms do not land outside due to
		// floating-point division in cell addressing.
		pad := 1e-9 + 0.001*(space.Width()+space.Height())
		space = space.Expand(pad)
	}
	if len(entries) == 0 {
		return nil, nil, nonSpatial, nil
	}
	pyr, err = pyramid.Build(space, entries, pyramid.Options{
		Levels:   opts.Levels,
		Capacity: opts.Capacity,
	})
	if err != nil {
		return nil, nil, nil, fmt.Errorf("gibbs: building pyramid: %w", err)
	}
	return pyr, entries, nonSpatial, nil
}

// Close releases the sampler's worker pool: shared pools return to their
// SharedPool cache, private ones shut down. Optional — abandoned private
// pools are cleaned up by a finalizer — but deterministic for callers that
// create many samplers. Idempotent.
func (s *Spatial) Close() {
	if s.ownPool {
		s.pool.Close()
		return
	}
	if s.shared != nil {
		s.pool.setHook(nil)
		s.shared.Release(s.pool, s.opts.Workers*s.opts.Instances, s.opts.Instances, s.g)
		s.shared = nil
	}
}

// SetTestHooks installs the fault-injection plane (see TestHooks). Call
// with no run in flight.
func (s *Spatial) SetTestHooks(h TestHooks) {
	s.hooks = h
	s.installChunkHook()
}

// SetMetrics attaches (or detaches, with nil) the obs metric handles. The
// chunk counter rides the pool's hook seam, composed with any installed
// fault-injection hook. Call with no run in flight.
func (s *Spatial) SetMetrics(m *Metrics) {
	s.met = m
	s.installChunkHook()
	publishKernelMetrics(m, s.sc.k)
}

// installChunkHook (re)installs the pool chunk hook composing the obs chunk
// counter with the fault-injection hook.
func (s *Spatial) installChunkHook() {
	var c *obs.Counter
	if s.met != nil {
		c = s.met.Chunks
	}
	s.pool.setHook(composeChunkHook(c, s.hooks.BeforeChunk))
}

// SetProgress enables convergence diagnostics every `every` epochs over the
// K instances' counters (see Sampler.SetProgress).
func (s *Spatial) SetProgress(every int, fn func(Progress)) {
	chains := make([]*counts, 0, len(s.instances))
	for _, inst := range s.instances {
		chains = append(chains, inst.counts)
	}
	s.enableProgress(s.g, every, fn, chains)
}

// SetCheckpointer enables periodic snapshots: during context-aware runs a
// checkpoint is written at every epoch multiple of cp.Every. nil disables.
func (s *Spatial) SetCheckpointer(cp *Checkpointer) { s.ckpt = cp }

// homeCells computes each indexed atom's home cell: its lowest maintained
// pyramid cell, clamped to the deepest swept level. It also returns the
// atoms whose home lies above the swept range.
func homeCells(pyr *pyramid.Index, entries []pyramid.Entry, levels []int) (home map[factorgraph.VarID]pyramid.CellKey, residual []factorgraph.VarID) {
	minSwept, maxSwept := levels[0], levels[len(levels)-1]
	home = make(map[factorgraph.VarID]pyramid.CellKey, len(entries))
	for _, e := range entries {
		v := factorgraph.VarID(e.ID)
		lowest := pyr.LowestCell(e.Loc)
		if lowest == nil {
			residual = append(residual, v)
			continue
		}
		hl := lowest.Key.Level
		if hl > maxSwept {
			hl = maxSwept
		}
		if hl < minSwept {
			residual = append(residual, v)
			continue
		}
		home[v] = pyramid.CellKey{Level: hl, X: lowest.Key.X >> (lowest.Key.Level - hl), Y: lowest.Key.Y >> (lowest.Key.Level - hl)}
	}
	return home, residual
}

// buildSchedule flattens the home cells' per-level conclique cell tasks into
// the contiguous schedule arrays.
func (s *Spatial) buildSchedule() {
	byCell := map[pyramid.CellKey][]factorgraph.VarID{}
	for v, key := range s.homeCell {
		byCell[key] = append(byCell[key], v)
	}
	sc := &s.sched
	sc.varOff = append(sc.varOff, 0)
	for _, l := range s.opts.sweepLevels() {
		var keys []pyramid.CellKey
		for k := range byCell {
			if k.Level == l {
				keys = append(keys, k)
			}
		}
		sort.Slice(keys, func(i, j int) bool {
			if keys[i].Y != keys[j].Y {
				return keys[i].Y < keys[j].Y
			}
			return keys[i].X < keys[j].X
		})
		for q := conclique.ID(0); q < conclique.Count; q++ {
			start := int32(len(sc.keys))
			for _, k := range keys {
				if conclique.Of(k) != q {
					continue
				}
				vars := byCell[k]
				sort.Slice(vars, func(i, j int) bool { return vars[i] < vars[j] })
				s.cellIndex[k] = int32(len(sc.keys))
				sc.keys = append(sc.keys, k)
				sc.vars = append(sc.vars, vars...)
				sc.varOff = append(sc.varOff, int32(len(sc.vars)))
			}
			if int32(len(sc.keys)) == start {
				continue // empty (level, conclique) groups are dropped
			}
			sc.groupOff = append(sc.groupOff, start)
			sc.groupLevel = append(sc.groupLevel, l)
		}
	}
	sc.groupOff = append(sc.groupOff, int32(len(sc.keys)))
	sc.allCells = make([]int32, len(sc.keys))
	for i := range sc.allCells {
		sc.allCells[i] = int32(i)
	}
}

// Name implements Sampler.
func (s *Spatial) Name() string { return "spatial" }

// TotalEpochs implements Sampler.
func (s *Spatial) TotalEpochs() int { return s.epochs }

// Pyramid exposes the index (for tests and diagnostics).
func (s *Spatial) Pyramid() *pyramid.Index { return s.pyr }

// sweepLevels returns the pyramid levels visited per epoch: 2..LocalityLevel
// as in Algorithm 1 line 10, or the single deepest available level when the
// pyramid is too shallow for that range.
func (o SpatialOptions) sweepLevels() []int {
	top := o.LocalityLevel
	if top > o.Levels-1 {
		top = o.Levels - 1
	}
	if top < 2 {
		return []int{top}
	}
	var out []int
	for l := 2; l <= top; l++ {
		out = append(out, l)
	}
	return out
}

// spatialRun describes one instance's share of the batch currently in
// flight: which cells to sweep, under which epoch identity. One descriptor
// per instance is allocated at construction and mutated only between
// batches, so dispatching is allocation-free.
type spatialRun struct {
	s     *Spatial
	inst  *instance
	k     int
	epoch uint64
	count bool
	cells []int32 // cell-index list the chunk [lo, hi) ranges refer to
}

func (r *spatialRun) runChunk(w *workerState, lo, hi int32) {
	s := r.s
	for _, ci := range r.cells[lo:hi] {
		key := s.sched.keys[ci]
		rng := prng{state: taskSeed(s.opts.Seed, uint64(r.k)+1, r.epoch<<8,
			uint64(key.Level)<<40, uint64(uint32(key.X))<<16|uint64(uint32(key.Y)))}
		for _, v := range s.sched.cellVars(ci) {
			if s.pinned[v] {
				continue
			}
			x := sampleOne(&s.sc, v, r.inst.assign, &rng, w.buf)
			if r.count {
				w.record(r.k, v, x)
			}
		}
	}
}

// tailRun sweeps one instance's residual + non-spatial variables (or the
// incremental extra list) sequentially, as one chunk.
type tailRun struct {
	s     *Spatial
	inst  *instance
	k     int
	epoch uint64
	count bool
	vars  []factorgraph.VarID
}

func (r *tailRun) runChunk(w *workerState, _, _ int32) {
	s := r.s
	rng := prng{state: taskSeed(s.opts.Seed, uint64(r.k)+1, r.epoch<<8, 0xfeed)}
	for _, v := range r.vars {
		if s.pinned[v] {
			continue
		}
		x := sampleOne(&s.sc, v, r.inst.assign, &rng, w.buf)
		if r.count {
			w.record(r.k, v, x)
		}
	}
}

// RunEpochs implements Sampler: each call runs n epochs on every instance,
// instances in parallel (so one call does the work of n·K raw epochs in n
// rounds, matching Algorithm 1's e = E/K). It is the uninterruptible legacy
// entry point: a worker panic (impossible unless sampler internals or an
// injected fault panic) is re-raised on the caller.
func (s *Spatial) RunEpochs(n int) {
	if _, err := s.Run(context.Background(), n); err != nil {
		panic(err)
	}
}

// Run advances every instance by up to n epochs under ctx. Cancellation is
// chunk-granular: parked chunks are skipped once ctx fires and the call
// returns after at most one in-flight chunk per worker, keeping the partial
// samples accumulated so far. A worker panic returns a *WorkerPanicError
// (the sampler is then poisoned; see WorkerPanicError). A checkpoint write
// failure returns the write error. nil ctx means context.Background().
func (s *Spatial) Run(ctx context.Context, n int) (RunStats, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	return s.sweepEpochs(ctx, n, s.sched.allCells, s.sched.groupOff, s.tail)
}

// RunTotalEpochs runs approximately total raw epochs of work split across
// the K instances (Algorithm 1 line 4: e = E/K).
func (s *Spatial) RunTotalEpochs(total int) {
	if _, err := s.RunTotal(context.Background(), total); err != nil {
		panic(err)
	}
}

// RunTotal is the context-aware RunTotalEpochs: total raw epochs split
// across the K instances.
func (s *Spatial) RunTotal(ctx context.Context, total int) (RunStats, error) {
	per := (total + len(s.instances) - 1) / len(s.instances)
	if per < 1 {
		per = 1
	}
	return s.Run(ctx, per)
}

// sweepEpochs runs up to n epochs over the given cell batch: groups
// serially, each group's cells chunked across the pool for all K instances
// at once, then the serial tail, then the epoch barrier where worker count
// deltas merge into the instances' counters. The full sweep passes the
// precomputed schedule; RunIncremental passes its restricted view. Nothing
// in the per-epoch loop allocates.
//
// Interruption points: ctx is checked before each epoch and between
// conclique groups, and workers skip parked chunks once ctx fires. An
// epoch cut short by cancellation keeps its merged partial samples but is
// not counted in RunStats.Epochs (its PRNG epoch identity is consumed). On
// a worker panic the pending worker deltas are discarded so no partial
// chunk reaches the counters, and the pool's sticky *WorkerPanicError is
// returned.
func (s *Spatial) sweepEpochs(ctx context.Context, n int, cells, groupOff []int32, tail []factorgraph.VarID) (RunStats, error) {
	st := RunStats{Reason: ReasonDone}
	done := ctx.Done()
	active := s.obsActive()
	for e := 0; e < n; e++ {
		if ctx.Err() != nil {
			st.Reason = reasonFromCtx(ctx)
			s.finalDiag("spatial", s.epochs, &st)
			return st, nil
		}
		eo := beginEpochObs(active)
		for k, inst := range s.instances {
			count := inst.epochs >= s.opts.BurnIn
			inst.epochs++
			r := s.runs[k]
			r.epoch, r.count, r.cells = uint64(inst.epochs), count, cells
			tr := s.tailRuns[k]
			tr.epoch, tr.count, tr.vars = uint64(inst.epochs), count, tail
		}
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
			if s.sweptCells != nil {
				for _, ci := range cells[lo:hi] {
					s.sweptCells[s.sched.keys[ci]]++
				}
			}
			per := (hi - lo + int32(s.opts.Workers) - 1) / int32(s.opts.Workers)
			for k := range s.instances {
				r := s.runs[k]
				for off := lo; off < hi; off += per {
					end := off + per
					if end > hi {
						end = hi
					}
					s.pool.dispatch(r, off, end, done)
				}
			}
			if active {
				eo.noteQueue(s.pool.queued())
			}
			s.pool.wait()
			if err := s.pool.err(); err != nil {
				s.discardAllDeltas()
				st.Reason = ReasonPanic
				return st, err
			}
		}
		if !interrupted && len(tail) > 0 {
			if s.sweptCells != nil {
				s.sweptTail += len(tail)
			}
			for k := range s.instances {
				s.pool.dispatch(s.tailRuns[k], 0, 0, done)
			}
			s.pool.wait()
			if err := s.pool.err(); err != nil {
				s.discardAllDeltas()
				st.Reason = ReasonPanic
				return st, err
			}
		}
		var mergeStart time.Time
		if active {
			mergeStart = time.Now()
		}
		for k, inst := range s.instances {
			s.pool.mergeDeltas(k, inst.counts)
		}
		if active {
			eo.merge = time.Since(mergeStart)
		}
		if interrupted {
			st.Reason = reasonFromCtx(ctx)
			s.finalDiag("spatial", s.epochs, &st)
			return st, nil
		}
		st.Epochs++
		if active {
			finishEpochObs(s.met, s.trace, "spatial", s.epochs, &eo)
		}
		if s.diagDue(s.epochs) {
			s.takeDiag("spatial", s.epochs, &st)
		}
		if s.ckpt != nil && s.ckpt.due(s.epochs) {
			epoch := s.epochs
			if err := saveCheckpointObs(s.met, s.trace, "spatial", epoch, func() error {
				return s.ckpt.Save(s.Snapshot())
			}); err != nil {
				return st, err
			}
		}
		if s.hooks.AfterEpoch != nil {
			s.hooks.AfterEpoch(s.epochs)
		}
	}
	s.finalDiag("spatial", s.epochs, &st)
	return st, nil
}

// discardAllDeltas drops every instance's unmerged worker deltas (panic
// path: a partially-executed chunk must not reach the counters).
func (s *Spatial) discardAllDeltas() {
	for k := range s.instances {
		s.pool.discardDeltas(k)
	}
}

// UpdateEvidence pins a variable to an observed value after construction
// and marks it dirty for incremental inference. Its cells' concliques are
// resampled by the next RunIncremental call.
func (s *Spatial) UpdateEvidence(v factorgraph.VarID, val int32) error {
	if int(v) >= s.g.NumVars() || v < 0 {
		return fmt.Errorf("gibbs: unknown variable %d", v)
	}
	if val < 0 || val >= s.g.Var(v).Domain {
		return fmt.Errorf("gibbs: value %d outside domain of variable %d", val, v)
	}
	s.pinned[v] = true
	s.dirty[v] = true
	for _, inst := range s.instances {
		inst.assign.Set(v, val)
		// Pinning invalidates the variable's accumulated counts. Worker
		// deltas need no reset: they are empty outside sweepEpochs.
		for x := range inst.counts.c[v] {
			inst.counts.c[v][x] = 0
		}
		inst.counts.totals[v] = 0
	}
	return nil
}

// RunIncremental resamples, for n epochs, only the cells containing dirty
// variables and their factor neighbourhoods — the paper's incremental
// inference ("the sampler is invoked on the concliques of the updated
// variables only"). The dirty set is cleared afterwards. The restricted
// schedule is cached keyed by the dirty set, so repeated updates of the
// same cells (the dominant incremental pattern: fresh evidence arriving at
// one location) run allocation-free end to end.
func (s *Spatial) RunIncremental(n int) {
	if _, err := s.RunIncrementalContext(context.Background(), n); err != nil {
		panic(err)
	}
}

// RunIncrementalContext is the context-aware RunIncremental, with the same
// cancellation and panic semantics as Run.
//
// Before sweeping, the counters of every variable in the restricted view
// are reset: their conditional distribution changed with the new pins, so
// samples drawn before the update would otherwise keep pulling the served
// marginals toward the stale posterior. After the call their marginals
// reflect only post-update samples (UpdateEvidence already resets the
// pinned variables themselves).
func (s *Spatial) RunIncrementalContext(ctx context.Context, n int) (RunStats, error) {
	if len(s.dirty) == 0 {
		return RunStats{Reason: ReasonDone}, nil
	}
	if ctx == nil {
		ctx = context.Background()
	}
	// A request span on the context (serving upsert path) gets the dirty
	// sweep recorded as a stage of its trace.
	span := obs.SpanFromContext(ctx).Child("conclique_sweep")
	view := s.restrictedFor(s.dirty)
	span.Notef("dirty=%d cells=%d tail=%d epochs=%d", len(s.dirty), len(view.cells), len(view.extra), n)
	defer span.End()
	for _, ci := range view.cells {
		for _, v := range s.sched.cellVars(ci) {
			if !s.pinned[v] {
				s.resetVarCounts(v)
			}
		}
	}
	for _, v := range view.extra {
		if !s.pinned[v] {
			s.resetVarCounts(v)
		}
	}
	st, err := s.sweepEpochs(ctx, n, view.cells, view.groupOff, view.extra)
	for v := range s.dirty {
		delete(s.dirty, v)
	}
	return st, err
}

// resetVarCounts zeroes one variable's accumulated samples on every
// instance. Worker deltas need no reset: they are empty outside
// sweepEpochs.
func (s *Spatial) resetVarCounts(v factorgraph.VarID) {
	for _, inst := range s.instances {
		for x := range inst.counts.c[v] {
			inst.counts.c[v][x] = 0
		}
		inst.counts.totals[v] = 0
	}
}

// PendingDirty reports how many variables are marked dirty and waiting for
// the next RunIncremental call.
func (s *Spatial) PendingDirty() int { return len(s.dirty) }

// dirtyKey folds the dirty set into an order-independent cache key.
func dirtyKey(dirty map[factorgraph.VarID]bool) uint64 {
	var key uint64
	for v := range dirty {
		key ^= splitmix64(uint64(v) + 0x9e3779b97f4a7c15)
	}
	return key
}

// restrictedFor returns the restricted schedule view for the dirty set,
// reusing the cached view when the exact same set was restricted before.
func (s *Spatial) restrictedFor(dirty map[factorgraph.VarID]bool) *restrictedView {
	key := dirtyKey(dirty)
	if view, ok := s.incCache[key]; ok && view.matches(dirty) {
		return view
	}
	restrict := map[int32]bool{}
	extraSet := map[factorgraph.VarID]bool{}
	touch := func(v factorgraph.VarID) {
		if home, ok := s.homeCell[v]; ok {
			restrict[s.cellIndex[home]] = true
			return
		}
		if s.g.Var(v).Evidence == factorgraph.NoEvidence && !s.pinned[v] {
			extraSet[v] = true
		}
	}
	for v := range dirty {
		touch(v)
		// Neighbouring atoms are affected too: the updated atom's spatial
		// and logical factors cross cell borders.
		for _, u := range s.g.VarSpatialPairs(v) {
			a, b, _ := s.g.SpatialPair(u)
			other := a
			if other == v {
				other = b
			}
			touch(other)
		}
		for _, f := range s.g.VarLogicalFactors(v) {
			vars, _ := s.g.FactorVars(f)
			for _, other := range vars {
				if other != v {
					touch(other)
				}
			}
		}
	}
	// Restrict the flat schedule: keep dirty cells, preserving group
	// boundaries (and hence the serial-conclique sweep order).
	view := &restrictedView{
		dirty:    make([]factorgraph.VarID, 0, len(dirty)),
		cells:    make([]int32, 0, len(restrict)),
		groupOff: make([]int32, 1, len(s.sched.groupOff)),
		extra:    make([]factorgraph.VarID, 0, len(extraSet)),
	}
	for v := range dirty {
		view.dirty = append(view.dirty, v)
	}
	sort.Slice(view.dirty, func(i, j int) bool { return view.dirty[i] < view.dirty[j] })
	for gi := 0; gi+1 < len(s.sched.groupOff); gi++ {
		for ci := s.sched.groupOff[gi]; ci < s.sched.groupOff[gi+1]; ci++ {
			if restrict[ci] {
				view.cells = append(view.cells, ci)
			}
		}
		view.groupOff = append(view.groupOff, int32(len(view.cells)))
	}
	for v := range extraSet {
		view.extra = append(view.extra, v)
	}
	sort.Slice(view.extra, func(i, j int) bool { return view.extra[i] < view.extra[j] })
	if len(s.incCache) >= 64 {
		// Crude bound: drop the whole cache rather than track recency.
		s.incCache = map[uint64]*restrictedView{}
	}
	s.incCache[key] = view
	return view
}

// Marginals implements Sampler: the average of the K instances' counters
// (Algorithm 1 lines 16 and 18–19). Variables pinned by UpdateEvidence get
// a point mass like original evidence.
func (s *Spatial) Marginals() [][]float64 {
	n := s.g.NumVars()
	out := make([][]float64, n)
	for i := 0; i < n; i++ {
		out[i] = s.MarginalVar(factorgraph.VarID(i))
	}
	return out
}

// MarginalVar returns one variable's marginal without materializing the
// whole-graph slice — the serving layer's point-query read path. Same
// semantics as Marginals: evidence and pinned variables get a point mass,
// unsampled variables a uniform. Not safe concurrently with a running
// sweep; callers serialize reads against sampling (the server holds its
// read lock for queries and its write lock around resamples).
func (s *Spatial) MarginalVar(v factorgraph.VarID) []float64 {
	meta := s.g.Var(v)
	m := make([]float64, meta.Domain)
	if meta.Evidence != factorgraph.NoEvidence {
		m[meta.Evidence] = 1
		return m
	}
	if s.pinned[v] {
		m[s.instances[0].assign.Get(v)] = 1
		return m
	}
	var total float64
	for _, inst := range s.instances {
		for x, c := range inst.counts.c[v] {
			m[x] += float64(c)
		}
		total += float64(inst.counts.totals[v])
	}
	if total == 0 {
		for x := range m {
			m[x] = 1 / float64(meta.Domain)
		}
	} else {
		for x := range m {
			m[x] /= total
		}
	}
	return m
}

// InstrumentSweeps enables schedule instrumentation: subsequent epochs
// record how often each pyramid cell was swept and how many tail variables
// were visited. Test/diagnostic use only (recording is not allocation-free).
func (s *Spatial) InstrumentSweeps() {
	s.sweptCells = map[pyramid.CellKey]int{}
	s.sweptTail = 0
}

// SweptCells returns the per-cell sweep counts recorded since
// InstrumentSweeps, keyed by pyramid cell. Counts are per epoch, not per
// instance (all K instances sweep the same cells).
func (s *Spatial) SweptCells() map[pyramid.CellKey]int { return s.sweptCells }

// SweptTailVars returns the number of tail-variable visits recorded since
// InstrumentSweeps.
func (s *Spatial) SweptTailVars() int { return s.sweptTail }

// HomeCell reports the pyramid cell where v is sampled, or ok=false when v
// is swept in the serial tail (no location, or home above the swept range).
func (s *Spatial) HomeCell(v factorgraph.VarID) (pyramid.CellKey, bool) {
	key, ok := s.homeCell[v]
	return key, ok
}

// NumInstances reports K, the parallel chain count.
func (s *Spatial) NumInstances() int { return len(s.instances) }

// ChainValue reads instance k's current assignment of v. Used by the
// sharded runtime (internal/shard) to read boundary-variable states at an
// epoch barrier; not safe concurrently with a running sweep.
func (s *Spatial) ChainValue(k int, v factorgraph.VarID) int32 {
	return s.instances[k].assign.Get(v)
}

// SetChainValue overwrites instance k's assignment of v without touching
// counts or pins. Scoring reads neighbour values from the assignment, so
// this is how the sharded runtime refreshes halo copies of remote
// boundary variables (frozen as evidence in the shard's subgraph — never
// swept, never counted) between epochs. Not safe concurrently with a
// running sweep.
func (s *Spatial) SetChainValue(k int, v factorgraph.VarID, x int32) {
	s.instances[k].assign.Set(v, x)
}

// ScheduledCells returns the number of cells in the full sweep schedule.
func (s *Spatial) ScheduledCells() int { return len(s.sched.keys) }

// CellStats summarizes the sweep schedule for diagnostics: per swept level,
// the number of home cells and conclique cover size.
func (s *Spatial) CellStats() []string {
	if s.pyr == nil {
		return []string{"no spatial atoms"}
	}
	cellsAt := map[int]int{}
	coverAt := map[int]int{}
	for gi := 0; gi+1 < len(s.sched.groupOff); gi++ {
		l := s.sched.groupLevel[gi]
		cellsAt[l] += int(s.sched.groupOff[gi+1] - s.sched.groupOff[gi])
		coverAt[l]++
	}
	var out []string
	for _, l := range s.opts.sweepLevels() {
		out = append(out, fmt.Sprintf("level %d: %d cells, %d concliques", l, cellsAt[l], coverAt[l]))
	}
	return out
}
