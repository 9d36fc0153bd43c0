package gibbs

import (
	"context"
	"fmt"
	"runtime"
	"sort"

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
	// Seed drives all randomness deterministically.
	Seed int64
	// BurnIn discards the first BurnIn epochs of each instance's chain from
	// the marginal counters (they are still sampled, moving the chain).
	BurnIn int
	// Workers caps the parallelism of a conclique sweep: its cells are cut
	// into at most Workers chunks, each sweeping all K instances, and the
	// pool holds Workers persistent goroutines (none at 1: every chunk runs
	// on the caller). Default GOMAXPROCS.
	Workers int
	// Space overrides the pyramid bounding space (derived from atom
	// locations when zero).
	Space geom.Rect
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

// restrictedView is the restricted schedule of one RunIncrementalContext call: the
// cells of the dirty variables and their factor neighbours (with group
// boundaries preserved) plus the affected tail variables.
type restrictedView struct {
	cells    []int32 // dirty unit indices, group-major
	groupOff []int32
	extra    []factorgraph.VarID
}

// Spatial implements the paper's Spatial Gibbs Sampling (Algorithm 1). It
// spatially partitions the query atoms with a partial pyramid index, then
// every epoch sweeps the pyramid levels; within a level it processes the
// minimum conclique cover of the non-empty cells — concliques serially, the
// cells of one conclique in parallel, the variables inside a cell
// sequentially with standard Gibbs steps. K instances run in lockstep and
// their counters are averaged (line 16); marginals come from the averaged
// counters.
//
// It is the engine's general schedule: one unit per home cell, one group per
// non-empty (level, conclique) cut into at most Workers chunks that sweep
// all K instances in lockstep, and a PRNG stream per (instance, epoch, cell).
//
// Each atom is sampled exactly once per epoch, at its *home* cell (its
// lowest maintained pyramid cell, clamped to LocalityLevel) — the Figure 6
// reading where a parent cell's partial graph is divided among its
// maintained children. Atoms whose home lies above the swept range
// (sparse, merged-away quadrants) and atoms without a location are swept
// sequentially at the end of the epoch (the schedule's tail).
//
// On top of the engine it adds the paper's incremental inference:
// UpdateEvidence pins variables on the live chains and RunIncrementalContext
// resamples only the affected cells, through a restricted view of the same
// schedule.
type Spatial struct {
	engine
	opts SpatialOptions
	pyr  *pyramid.Index // nil when the graph has no located query atoms

	keys       []pyramid.CellKey // per unit: its pyramid cell
	groupLevel []int             // per group: pyramid level (diagnostics)
	homeCell   map[factorgraph.VarID]pyramid.CellKey
	cellIndex  map[pyramid.CellKey]int32 // cell key → schedule unit index
	dirty      map[factorgraph.VarID]bool
}

// NewSpatial builds the sampler, including the pyramid index over the
// spatial query atoms, the flattened per-level conclique schedule
// (Algorithm 1 lines 5–6), and the persistent worker pool.
func NewSpatial(g *factorgraph.Graph, opts SpatialOptions) (*Spatial, error) {
	opts = opts.withDefaults()
	s := &Spatial{
		engine: engine{
			name: "spatial", g: g, workers: opts.Workers,
			split: int32(opts.Workers), burnIn: opts.BurnIn,
		},
		opts:      opts,
		cellIndex: map[pyramid.CellKey]int32{},
		dirty:     map[factorgraph.VarID]bool{},
	}
	s.stream = s.cellStream
	pyr, entries, nonSpatial, err := buildPyramid(g, opts)
	if err != nil {
		return nil, err
	}
	var residual []factorgraph.VarID
	if pyr != nil {
		s.pyr = pyr
		s.homeCell, residual = homeCells(pyr, entries, opts.sweepLevels())
	}
	s.buildSchedule()
	sort.Slice(residual, func(i, j int) bool { return residual[i] < residual[j] })
	s.sched.tail = append(residual, nonSpatial...)
	s.start(opts.Instances)
	return s, nil
}

// cellStream is the spatial stream identity: (seed, instance, epoch, cell),
// with a fixed tag in place of the cell for the serial tail.
func (s *Spatial) cellStream(k int, epoch uint64, unit int32) uint64 {
	if unit == tailUnit {
		return taskSeed(s.opts.Seed, uint64(k)+1, epoch<<8, 0xfeed)
	}
	key := s.keys[unit]
	return taskSeed(s.opts.Seed, uint64(k)+1, epoch<<8,
		uint64(key.Level)<<40, uint64(uint32(key.X))<<16|uint64(uint32(key.Y)))
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
	pyr, err = pyramid.Build(space, entries, pyramid.Options{Levels: opts.Levels})
	if err != nil {
		return nil, nil, nil, fmt.Errorf("gibbs: building pyramid: %w", err)
	}
	return pyr, entries, nonSpatial, nil
}

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
// the contiguous schedule arrays: one unit per cell, one group per non-empty
// (level, conclique). Without located atoms the schedule is empty and every
// query variable rides the tail.
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
			start := int32(len(s.keys))
			for _, k := range keys {
				if conclique.Of(k) != q {
					continue
				}
				vars := byCell[k]
				sort.Slice(vars, func(i, j int) bool { return vars[i] < vars[j] })
				s.cellIndex[k] = int32(len(s.keys))
				s.keys = append(s.keys, k)
				sc.vars = append(sc.vars, vars...)
				sc.varOff = append(sc.varOff, int32(len(sc.vars)))
			}
			if int32(len(s.keys)) == start {
				continue // empty (level, conclique) groups are dropped
			}
			sc.groupOff = append(sc.groupOff, start)
			s.groupLevel = append(s.groupLevel, l)
		}
	}
	sc.groupOff = append(sc.groupOff, int32(len(s.keys)))
	sc.allUnits()
}

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

// UpdateEvidence pins a variable to an observed value after construction
// and marks it dirty for incremental inference. Its cells' concliques are
// resampled by the next RunIncrementalContext call. A variable that is already
// evidence in the graph keeps its value — the first label wins, as in the
// batch grounder's dedup: the same value again is a no-op, a different one is
// an error (readers answer from the graph's evidence and compiled scores fold
// it, so overwriting the chain value would be visible to nobody or, worse,
// only to some).
func (s *Spatial) UpdateEvidence(v factorgraph.VarID, val int32) error {
	if int(v) >= s.g.NumVars() || v < 0 {
		return fmt.Errorf("gibbs: unknown variable %d", v)
	}
	meta := s.g.Var(v)
	if val < 0 || val >= meta.Domain {
		return fmt.Errorf("gibbs: value %d outside domain of variable %d", val, v)
	}
	if meta.Evidence != factorgraph.NoEvidence {
		if meta.Evidence != val {
			return fmt.Errorf("gibbs: %s is evidence with value %d in the graph; cannot pin it to %d", meta.Name, meta.Evidence, val)
		}
		return nil
	}
	s.pinned[v] = true
	s.dirty[v] = true
	for _, inst := range s.instances {
		inst.assign.Set(v, val)
	}
	s.resetVarCounts(v) // pinning invalidates the accumulated counts
	return nil
}

// RunIncrementalContext resamples, for n epochs, only the cells containing
// dirty variables and their factor neighbourhoods — the paper's incremental
// inference ("the sampler is invoked on the concliques of the updated
// variables only"). The dirty set is cleared afterwards. Cancellation and
// panic semantics are Run's.
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
	// A span on the context (the serving upsert path's resample stage) gets
	// the dirty sweep recorded as one stage: this sweep's span.
	span := obs.SpanFromContext(ctx).Child("conclique_sweep")
	view := s.restrictedFor(s.dirty)
	for _, ci := range view.cells {
		for _, v := range s.sched.unitVars(ci) {
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
	st, err := s.sweepEpochs(ctx, span, n, view.cells, view.groupOff, view.extra)
	if span.Enabled() {
		span.Notef("dirty=%d cells=%d tail=%d epochs=%d reason=%s", len(s.dirty), len(view.cells), len(view.extra), st.Epochs, st.Reason)
		span.End()
	}
	for v := range s.dirty {
		delete(s.dirty, v)
	}
	return st, err
}

// resetVarCounts zeroes one variable's accumulated samples on every
// instance.
func (s *Spatial) resetVarCounts(v factorgraph.VarID) {
	for _, inst := range s.instances {
		for x := range inst.counts.c[v] {
			inst.counts.c[v][x] = 0
		}
		inst.counts.totals[v] = 0
	}
}

// PendingDirty reports how many variables are marked dirty and waiting for
// the next RunIncrementalContext call.
func (s *Spatial) PendingDirty() int { return len(s.dirty) }

// restrictedFor builds the restricted schedule view for the dirty set.
func (s *Spatial) restrictedFor(dirty map[factorgraph.VarID]bool) *restrictedView {
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
		cells:    make([]int32, 0, len(restrict)),
		groupOff: make([]int32, 1, len(s.sched.groupOff)),
		extra:    make([]factorgraph.VarID, 0, len(extraSet)),
	}
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
	return view
}

// InstrumentSweeps enables (or restarts) schedule instrumentation:
// subsequent epochs record how often each pyramid cell was swept and how
// many tail variables were visited. Test/diagnostic use only.
func (s *Spatial) InstrumentSweeps() {
	s.swept = make([]int, len(s.keys))
	s.sweptTail = 0
}

// SweptCells returns the sweep counts of the cells swept since
// InstrumentSweeps, keyed by pyramid cell. Counts are per epoch, not per
// instance (all K instances sweep the same cells).
func (s *Spatial) SweptCells() map[pyramid.CellKey]int {
	out := map[pyramid.CellKey]int{}
	for u, n := range s.swept {
		if n > 0 {
			out[s.keys[u]] = n
		}
	}
	return out
}

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
// counts or pins. Dynamic ops read neighbour values from the assignment, so
// this is how the sharded runtime refreshes halo copies of remote boundary
// variables (evidence in the shard's subgraph — never swept, never counted —
// but marked live, so never folded) between epochs. A frozen variable's
// value is compiled into its neighbours' biases and cannot be written: that
// is an error naming the variable, not a silently ignored store. Not safe
// concurrently with a running sweep.
func (s *Spatial) SetChainValue(k int, v factorgraph.VarID, x int32) error {
	if s.g.Frozen(v) {
		return fmt.Errorf("gibbs: variable %d (%s) is frozen evidence; its chain value cannot be set (mark halo copies live before the sampler is built)", v, s.g.Var(v).Name)
	}
	s.instances[k].assign.Set(v, x)
	return nil
}

// AddCounts adds v's sample counts, summed over the K instances, into row
// (at least v's domain long). The sharded runtime gathers a shard's interior
// marginals through it; not safe concurrently with a running sweep.
func (s *Spatial) AddCounts(v factorgraph.VarID, row []int64) {
	for _, inst := range s.instances {
		for x, c := range inst.counts.c[v] {
			row[x] += c
		}
	}
}

// ScheduledCells returns the number of cells in the full sweep schedule.
func (s *Spatial) ScheduledCells() int { return len(s.keys) }

// CellStats summarizes the sweep schedule for diagnostics: per swept level,
// the number of home cells and conclique cover size.
func (s *Spatial) CellStats() []string {
	if s.pyr == nil {
		return []string{"no spatial atoms"}
	}
	cellsAt := map[int]int{}
	coverAt := map[int]int{}
	for gi := 0; gi+1 < len(s.sched.groupOff); gi++ {
		l := s.groupLevel[gi]
		cellsAt[l] += int(s.sched.groupOff[gi+1] - s.sched.groupOff[gi])
		coverAt[l]++
	}
	var out []string
	for _, l := range s.opts.sweepLevels() {
		out = append(out, fmt.Sprintf("level %d: %d cells, %d concliques", l, cellsAt[l], coverAt[l]))
	}
	return out
}
