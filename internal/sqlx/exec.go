package sqlx

import (
	"context"
	"math"
	"sort"

	"repro/internal/geom"
	"repro/internal/index/rtree"
	"repro/internal/parallel"
	"repro/internal/storage"
)

// Result is the output of a query: column names plus rows. A SELECT's rows
// are carved from shared slabs of up to slabRows rows, so a caller that keeps
// a few rows of a large result past its use keeps their slabs too.
type Result struct {
	Cols []string
	Rows []storage.Row
}

// Engine executes SQL statements against a storage database.
type Engine struct {
	db *storage.DB
	// workers > 1 enables sharded batch evaluation inside joins (their
	// co-filters included) and projection (see shardAll); ctx is polled
	// between batches.
	// Both are set by SetParallelism — the zero value runs fully
	// sequentially.
	workers int
	ctx     context.Context
}

// NewEngine wraps a database.
func NewEngine(db *storage.DB) *Engine { return &Engine{db: db} }

// SetParallelism configures batched tuple evaluation inside SELECT
// execution: the probe side of hash, spatial and nested-loop joins (with the
// co-filters fused into it) and the projection pass are each split into row
// batches evaluated by up to `workers` goroutines, with batch outputs
// concatenated in input order — result rows are identical for any worker
// count. ctx (nil → Background) is polled between batches so a
// cancelled grounding stops mid-query. workers <= 1 keeps the engine
// sequential.
//
// Not safe to call concurrently with Exec; configure once before issuing
// queries (concurrent Execs after that are fine — execution only reads
// these fields).
func (e *Engine) SetParallelism(workers int, ctx context.Context) {
	if ctx == nil {
		ctx = context.Background()
	}
	e.workers = workers
	e.ctx = ctx
}

// probeParallelMin is the input row count below which a batch stage stays
// sequential — batching overhead would dominate smaller inputs.
const probeParallelMin = 128

// probeGrain is the batch size for sharded stage evaluation.
const probeGrain = 64

// shardAll evaluates rangeFn over all n input tuples: one inline call when
// the engine is sequential or the input is small, else sharded into fixed
// batches across workers with outputs merged in batch order — chunk
// boundaries depend only on n, so the merged output is identical for any
// worker count. rangeFn must be safe for concurrent batches: build a
// batch-local env inside it and only read shared state.
func shardAll[T any](e *Engine, n int, rangeFn func(lo, hi int) ([]T, error)) ([]T, error) {
	if e.workers <= 1 || n < probeParallelMin {
		return rangeFn(0, n)
	}
	parts := make([][]T, parallel.NumChunks(n, probeGrain))
	err := parallel.For(e.ctx, e.workers, n, probeGrain, func(c, lo, hi int) error {
		rows, err := rangeFn(lo, hi)
		if err != nil {
			return err
		}
		parts[c] = rows
		return nil
	})
	if err != nil {
		return nil, err
	}
	total := 0
	for _, p := range parts {
		total += len(p)
	}
	out := make([]T, 0, total)
	for _, p := range parts {
		out = append(out, p...)
	}
	return out, nil
}

// Exec parses and runs one statement. params binds :name placeholders.
// For EXPLAIN, the result is one text row per plan step.
func (e *Engine) Exec(sql string, params map[string]storage.Value) (*Result, error) {
	stmt, err := Parse(sql)
	if err != nil {
		return nil, err
	}
	p, err := buildPlan(e.db, stmt, params)
	if err != nil {
		return nil, err
	}
	if stmt.Explain {
		res := &Result{Cols: []string{"plan"}}
		for _, line := range p.Explain() {
			res.Rows = append(res.Rows, storage.Row{storage.Str(line)})
		}
		return res, nil
	}
	return e.runSelect(p, params)
}

// tupleSet is the intermediate join state: for each result tuple, one row id
// per joined scan node (aligned with nodes, i.e. in plan-step order).
type tupleSet struct {
	nodes  []*scanNode
	tuples [][]int
	slots  int // FROM width: env rows are indexed by scanNode.slot
}

func (ts *tupleSet) newEnv(params map[string]storage.Value) *env {
	return &env{rows: make([]storage.Row, ts.slots), params: params}
}

func (ts *tupleSet) bind(ev *env, tuple []int) {
	for i, n := range ts.nodes {
		ev.rows[n.slot] = n.rows[tuple[i]]
	}
}

func (e *Engine) runSelect(p *plan, params map[string]storage.Value) (*Result, error) {
	first := p.steps[0].node
	// Every FROM table is the node of exactly one step.
	ts := &tupleSet{nodes: []*scanNode{first}, slots: len(p.steps)}
	ts.tuples = make([][]int, len(first.ids))
	for i := range first.ids {
		ts.tuples[i] = first.ids[i : i+1 : i+1]
	}
	for _, step := range p.steps[1:] {
		if err := e.joinStep(ts, step, params); err != nil {
			return nil, err
		}
	}
	return e.project(ts, p.items, params)
}

// joinStep extends every tuple with the matching rows of the step's node, in
// one fused probe loop: the join's access path (hash table, R-tree or the
// whole right side) proposes candidate row ids in ascending order, and each
// candidate must pass the join conjunct's exact test and every co-filter of
// the step before a joined tuple is allocated for it — so the cost of a step
// follows its output, not the fan-out of whichever conjunct got the index.
//
// The loop runs over contiguous probe-tuple batches with batch-local env and
// scratch; shared state (the hash table, the R-tree, the right side's rows)
// is built once and only read during probing. shardAll shards the batches
// across the engine's workers — batch outputs concatenate in input order, so
// the joined tuple order is identical for any worker count.
func (e *Engine) joinStep(ts *tupleSet, step planStep, params map[string]storage.Value) error {
	right, via := step.node, step.joinVia

	// candidates returns, for the probe tuple bound in ev, the ascending
	// right-side row ids worth testing (buf is the batch's scratch); tests are
	// what each must pass once its row is bound too.
	var candidates func(ev *env, buf *[]int) []int
	tests := step.extra
	switch {
	case via != nil && via.kind == conjEqui:
		// Hash join: build on the right side's filtered rows. Keys are exact
		// (equal keys ⇔ Value.Equal), so a bucket needs no re-check.
		probe, build := via.sides(right)
		ht := map[hashKey][]int{}
		for _, id := range right.ids {
			if k, ok := hashKeyOf(right.rows[id][build.col]); ok {
				ht[k] = append(ht[k], id)
			}
		}
		candidates = func(ev *env, _ *[]int) []int {
			k, ok := hashKeyOf(ev.rows[probe.slot][probe.col])
			if !ok {
				return nil
			}
			return ht[k]
		}
	case via != nil && via.kind == conjSpatial:
		// R-tree spatial join: filter candidates by expanded bounding box,
		// then refine with the exact predicate.
		probe, build := via.sides(right)
		tree := spatialJoinIndex(right, build.col)
		tests = append([]*conjunct{via}, tests...)
		candidates = func(ev *env, buf *[]int) []int {
			g := ev.rows[probe.slot][probe.col].G
			if g == nil {
				return nil
			}
			cands := (*buf)[:0]
			tree.Search(geom.ExpandWindow(g.Bounds(), via.radius, via.metric), func(it rtree.Item) bool {
				cands = append(cands, int(it.Data))
				return true
			})
			sort.Ints(cands)
			*buf = cands
			return cands
		}
	default:
		// Nested-loop (theta or cross) join.
		if via != nil {
			tests = append([]*conjunct{via}, tests...)
		}
		candidates = func(*env, *[]int) []int { return right.ids }
	}

	width := len(ts.nodes) + 1
	out, err := shardAll(e, len(ts.tuples), func(lo, hi int) ([][]int, error) {
		ev := ts.newEnv(params)
		var buf []int
		var out [][]int
		var slab []int
		for _, tuple := range ts.tuples[lo:hi] {
			ts.bind(ev, tuple)
		candidate:
			for _, rid := range candidates(ev, &buf) {
				ev.rows[right.slot] = right.rows[rid]
				for _, c := range tests {
					ok, err := c.holds(ev)
					if err != nil {
						return nil, err
					}
					if !ok {
						continue candidate
					}
				}
				// The output count is unknown up front, so each slab holds
				// as many tuples as the batch has emitted so far: a batch that
				// emits a handful of tuples reserves a handful.
				nt := carve(&slab, width, min(max(len(out), 16), slabRows))
				copy(nt, tuple)
				nt[width-1] = rid
				out = append(out, nt)
			}
		}
		return out, nil
	})
	if err != nil {
		return err
	}
	ts.nodes = append(ts.nodes, right)
	ts.tuples = out
	return nil
}

// slabRows bounds the rows one slab backs. Joined tuples and projected rows
// are carved from slabs, so a stage makes one allocation per slabRows rows
// instead of one per row, and no backing array grows with the whole output.
const slabRows = 4096

// carve returns the next width-cell row of *slab, first replacing an
// exhausted slab with a fresh one of rows·width cells. The row's capacity is
// its length, so an append to it reallocates instead of overwriting the next
// row.
func carve[T any](slab *[]T, width, rows int) []T {
	if len(*slab) < width {
		*slab = make([]T, rows*width)
	}
	row := (*slab)[:width:width]
	*slab = (*slab)[width:]
	return row
}

// hashKey is a comparable hash-join key. Two non-NULL values have equal keys
// exactly when Value.Equal holds: numbers of either kind meet as float64 with
// -0 normalised to +0, geometries as their WKT.
type hashKey struct {
	kind storage.Kind // KindFloat for every number
	bits uint64       // the number's float64 bits, or a bool's 0/1
	s    string       // text, or a geometry's WKT
}

// hashKeyOf returns v's key; ok is false for the values that equal nothing,
// NULL and NaN.
func hashKeyOf(v storage.Value) (k hashKey, ok bool) {
	switch v.Kind {
	case storage.KindNull:
		return k, false
	case storage.KindInt, storage.KindFloat:
		f, _ := v.AsFloat()
		if f != f {
			return k, false
		}
		if f == 0 {
			f = 0 // -0 equals +0
		}
		return hashKey{kind: storage.KindFloat, bits: math.Float64bits(f)}, true
	case storage.KindBool:
		k.kind = v.Kind
		if v.I != 0 {
			k.bits = 1
		}
		return k, true
	case storage.KindGeom:
		return hashKey{kind: v.Kind, s: geom.MarshalWKT(v.G)}, true
	default:
		return hashKey{kind: v.Kind, s: v.S}, true
	}
}

// project evaluates the SELECT list on every tuple, sharded across the
// engine's workers (each batch with its own env, outputs merged in input
// order). A plain column is named by its column, any other item by its SQL.
func (e *Engine) project(ts *tupleSet, items []Expr, params map[string]storage.Value) (*Result, error) {
	res := &Result{Cols: make([]string, len(items))}
	for i, it := range items {
		if c, ok := it.(boundCol); ok {
			res.Cols[i] = c.Col
		} else {
			res.Cols[i] = it.SQL()
		}
	}
	rows, err := shardAll(e, len(ts.tuples), func(lo, hi int) ([]storage.Row, error) {
		ev := ts.newEnv(params)
		out := make([]storage.Row, 0, hi-lo)
		var slab []storage.Value
		for ti, tuple := range ts.tuples[lo:hi] {
			ts.bind(ev, tuple)
			// Every tuple projects to one row, so slabs are sized exactly.
			row := storage.Row(carve(&slab, len(items), min(hi-lo-ti, slabRows)))
			for i, it := range items {
				v, err := ev.eval(it)
				if err != nil {
					return nil, err
				}
				row[i] = v
			}
			out = append(out, row)
		}
		return out, nil
	})
	if err != nil {
		return nil, err
	}
	res.Rows = rows
	return res, nil
}
