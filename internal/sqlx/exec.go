package sqlx

import (
	"context"
	"fmt"
	"math"
	"sort"
	"strings"

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

// DB exposes the underlying database.
func (e *Engine) DB() *storage.DB { return e.db }

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
// For EXPLAIN, the result is one text row per plan step. INSERT returns a
// single row holding the inserted-row count.
func (e *Engine) Exec(sql string, params map[string]storage.Value) (*Result, error) {
	stmt, err := Parse(sql)
	if err != nil {
		return nil, err
	}
	return e.ExecStmt(stmt, params)
}

// ExecStmt runs a parsed statement.
func (e *Engine) ExecStmt(stmt *Stmt, params map[string]storage.Value) (*Result, error) {
	switch {
	case stmt.Select != nil:
		p, err := buildPlan(e.db, stmt.Select, params)
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
	case stmt.Insert != nil:
		if stmt.Explain {
			p, err := buildPlan(e.db, stmt.Insert.Select, params)
			if err != nil {
				return nil, err
			}
			res := &Result{Cols: []string{"plan"}}
			for _, line := range p.Explain() {
				res.Rows = append(res.Rows, storage.Row{storage.Str(line)})
			}
			return res, nil
		}
		return e.runInsert(stmt.Insert, params)
	default:
		return nil, fmt.Errorf("sqlx: empty statement")
	}
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
	ts := &tupleSet{nodes: []*scanNode{first}, slots: len(p.sel.From)}
	ts.tuples = make([][]int, len(first.ids))
	for i := range first.ids {
		ts.tuples[i] = first.ids[i : i+1 : i+1]
	}
	for _, step := range p.steps[1:] {
		if err := e.joinStep(ts, step, params); err != nil {
			return nil, err
		}
	}
	return e.project(ts, p.sel, params)
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
			tree.Search(expandWindow(g.Bounds(), via.radius, via.metric), func(it rtree.Item) bool {
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

// anyAggregateItem reports whether any SELECT item contains an aggregate.
func anyAggregateItem(sel *SelectStmt) bool {
	for _, item := range sel.Items {
		if !item.Star && hasAggregate(item.Expr) {
			return true
		}
	}
	return false
}

// aggregateFns lists the aggregate function names.
var aggregateFns = map[string]bool{
	"COUNT": true, "SUM": true, "AVG": true, "MIN": true, "MAX": true,
}

// hasAggregate reports whether e contains an aggregate call.
func hasAggregate(e Expr) bool {
	switch v := e.(type) {
	case Call:
		if aggregateFns[v.Name] {
			return true
		}
		for _, a := range v.Args {
			if hasAggregate(a) {
				return true
			}
		}
	case Binary:
		return hasAggregate(v.L) || hasAggregate(v.R)
	case Not:
		return hasAggregate(v.E)
	case Neg:
		return hasAggregate(v.E)
	}
	return false
}

// rewriteAggregates replaces aggregate sub-calls in e with literal values
// computed over the group's tuples, so the remaining expression evaluates
// on any single tuple of the group.
func rewriteAggregates(e Expr, ts *tupleSet, tuples [][]int, ev *env) (Expr, error) {
	switch v := e.(type) {
	case Call:
		if aggregateFns[v.Name] {
			val, err := computeAggregate(v, ts, tuples, ev)
			if err != nil {
				return nil, err
			}
			return Lit{Val: val}, nil
		}
		out := Call{Name: v.Name, Star: v.Star, Args: make([]Expr, len(v.Args))}
		for i, a := range v.Args {
			ra, err := rewriteAggregates(a, ts, tuples, ev)
			if err != nil {
				return nil, err
			}
			out.Args[i] = ra
		}
		return out, nil
	case Binary:
		l, err := rewriteAggregates(v.L, ts, tuples, ev)
		if err != nil {
			return nil, err
		}
		r, err := rewriteAggregates(v.R, ts, tuples, ev)
		if err != nil {
			return nil, err
		}
		return Binary{Op: v.Op, L: l, R: r}, nil
	case Not:
		inner, err := rewriteAggregates(v.E, ts, tuples, ev)
		if err != nil {
			return nil, err
		}
		return Not{E: inner}, nil
	case Neg:
		inner, err := rewriteAggregates(v.E, ts, tuples, ev)
		if err != nil {
			return nil, err
		}
		return Neg{E: inner}, nil
	default:
		return e, nil
	}
}

// computeAggregate evaluates one aggregate call over a group.
func computeAggregate(c Call, ts *tupleSet, tuples [][]int, ev *env) (storage.Value, error) {
	if c.Name == "COUNT" && (c.Star || len(c.Args) == 0) {
		return storage.Int(int64(len(tuples))), nil
	}
	if len(c.Args) != 1 {
		return storage.Null, fmt.Errorf("sqlx: %s takes one argument", c.Name)
	}
	var count int64
	var sum float64
	var best storage.Value
	haveBest := false
	for _, tuple := range tuples {
		ts.bind(ev, tuple)
		v, err := ev.eval(c.Args[0])
		if err != nil {
			return storage.Null, err
		}
		if v.IsNull() {
			continue
		}
		count++
		switch c.Name {
		case "SUM", "AVG":
			f, err := v.AsFloat()
			if err != nil {
				return storage.Null, err
			}
			sum += f
		case "MIN", "MAX":
			if !haveBest {
				best, haveBest = v, true
				continue
			}
			cmp, err := v.Compare(best)
			if err != nil {
				return storage.Null, err
			}
			if (c.Name == "MIN" && cmp < 0) || (c.Name == "MAX" && cmp > 0) {
				best = v
			}
		}
	}
	switch c.Name {
	case "COUNT":
		return storage.Int(count), nil
	case "SUM":
		if count == 0 {
			return storage.Null, nil
		}
		return storage.Float(sum), nil
	case "AVG":
		if count == 0 {
			return storage.Null, nil
		}
		return storage.Float(sum / float64(count)), nil
	default: // MIN, MAX
		if !haveBest {
			return storage.Null, nil
		}
		return best, nil
	}
}

// projectAggregated handles SELECT lists containing aggregates and/or a
// GROUP BY clause: tuples are grouped by the GROUP BY keys (one global
// group when absent), each output row evaluating aggregates over its group
// and plain expressions on the group's first tuple.
func projectAggregated(ts *tupleSet, sel *SelectStmt, params map[string]storage.Value) (*Result, error) {
	for _, item := range sel.Items {
		if item.Star {
			return nil, fmt.Errorf("sqlx: SELECT * cannot be combined with aggregation")
		}
	}
	ev := ts.newEnv(params)
	type group struct {
		first  []int
		tuples [][]int
	}
	var order []string
	groups := map[string]*group{}
	for _, tuple := range ts.tuples {
		ts.bind(ev, tuple)
		var key strings.Builder
		for _, ge := range sel.GroupBy {
			v, err := ev.eval(ge)
			if err != nil {
				return nil, err
			}
			key.WriteString(v.Kind.String())
			key.WriteByte(':')
			key.WriteString(v.String())
			key.WriteByte('\x00')
		}
		k := key.String()
		g, ok := groups[k]
		if !ok {
			g = &group{first: tuple}
			groups[k] = g
			order = append(order, k)
		}
		g.tuples = append(g.tuples, tuple)
	}
	// A global aggregate over zero tuples still yields one row.
	if len(groups) == 0 && len(sel.GroupBy) == 0 {
		groups[""] = &group{}
		order = append(order, "")
	}
	res := &Result{}
	for _, item := range sel.Items {
		res.Cols = append(res.Cols, item.name())
	}
	type ordered struct {
		row  storage.Row
		keys []storage.Value
	}
	var rows []ordered
	for _, k := range order {
		g := groups[k]
		evalOn := func(e Expr) (storage.Value, error) {
			re, err := rewriteAggregates(e, ts, g.tuples, ev)
			if err != nil {
				return storage.Null, err
			}
			if g.first == nil {
				// Zero-tuple global group: only aggregate-derived literals
				// are meaningful; evaluate with no row bound.
				return ts.newEnv(params).eval(re)
			}
			ts.bind(ev, g.first)
			return ev.eval(re)
		}
		if sel.Having != nil {
			hv, err := evalOn(sel.Having)
			if err != nil {
				return nil, err
			}
			if hv.IsNull() {
				continue
			}
			keep, err := hv.AsBool()
			if err != nil {
				return nil, err
			}
			if !keep {
				continue
			}
		}
		row := make(storage.Row, len(sel.Items))
		for i, item := range sel.Items {
			v, err := evalOn(item.Expr)
			if err != nil {
				return nil, err
			}
			row[i] = v
		}
		var keys []storage.Value
		for _, ob := range sel.OrderBy {
			v, err := evalOn(ob.Expr)
			if err != nil {
				return nil, err
			}
			keys = append(keys, v)
		}
		rows = append(rows, ordered{row: row, keys: keys})
	}
	if len(sel.OrderBy) > 0 {
		var sortErr error
		sort.SliceStable(rows, func(i, j int) bool {
			for k2, ob := range sel.OrderBy {
				c, err := compareForSort(rows[i].keys[k2], rows[j].keys[k2])
				if err != nil {
					sortErr = err
					return false
				}
				if c != 0 {
					if ob.Desc {
						return c > 0
					}
					return c < 0
				}
			}
			return false
		})
		if sortErr != nil {
			return nil, sortErr
		}
	}
	if sel.Limit >= 0 && len(rows) > sel.Limit {
		rows = rows[:sel.Limit]
	}
	for _, r := range rows {
		res.Rows = append(res.Rows, r.row)
	}
	return res, nil
}

// project applies the SELECT list, DISTINCT, ORDER BY and LIMIT. The
// per-tuple expression evaluation is sharded across the engine's workers
// (each batch with its own env, outputs merged in input order); DISTINCT,
// the sort and LIMIT run sequentially on the merged rows. Aggregated
// projection groups tuples globally and stays sequential.
func (e *Engine) project(ts *tupleSet, sel *SelectStmt, params map[string]storage.Value) (*Result, error) {
	if len(sel.GroupBy) > 0 || anyAggregateItem(sel) {
		return projectAggregated(ts, sel, params)
	}
	// Expand projection columns.
	type proj struct {
		name string
		expr Expr
	}
	var projs []proj
	for _, item := range sel.Items {
		if item.Star {
			for _, n := range ts.nodes {
				for ci, c := range n.tbl.Schema().Cols {
					projs = append(projs, proj{
						name: n.ref.EffectiveAlias() + "." + c.Name,
						expr: boundCol{ColRef: ColRef{Table: n.alias, Col: c.Name}, slot: n.slot, col: ci},
					})
				}
			}
			continue
		}
		projs = append(projs, proj{name: item.name(), expr: item.Expr})
	}
	res := &Result{}
	for _, pj := range projs {
		res.Cols = append(res.Cols, pj.name)
	}
	type ordered struct {
		row  storage.Row
		keys []storage.Value
	}
	rows, err := shardAll(e, len(ts.tuples), func(lo, hi int) ([]ordered, error) {
		ev := ts.newEnv(params)
		out := make([]ordered, 0, hi-lo)
		var slab []storage.Value
		for ti, tuple := range ts.tuples[lo:hi] {
			ts.bind(ev, tuple)
			// Every tuple projects to one row, so slabs are sized exactly.
			row := storage.Row(carve(&slab, len(projs), min(hi-lo-ti, slabRows)))
			for i, pj := range projs {
				v, err := ev.eval(pj.expr)
				if err != nil {
					return nil, err
				}
				row[i] = v
			}
			var keys []storage.Value
			for _, ob := range sel.OrderBy {
				v, err := ev.eval(ob.Expr)
				if err != nil {
					return nil, err
				}
				keys = append(keys, v)
			}
			out = append(out, ordered{row: row, keys: keys})
		}
		return out, nil
	})
	if err != nil {
		return nil, err
	}
	if sel.Distinct {
		seen := map[string]bool{}
		var dedup []ordered
		for _, r := range rows {
			parts := make([]string, len(r.row))
			for i, v := range r.row {
				parts[i] = v.Kind.String() + ":" + v.String()
			}
			k := strings.Join(parts, "\x00")
			if !seen[k] {
				seen[k] = true
				dedup = append(dedup, r)
			}
		}
		rows = dedup
	}
	if len(sel.OrderBy) > 0 {
		var sortErr error
		sort.SliceStable(rows, func(i, j int) bool {
			for k, ob := range sel.OrderBy {
				c, err := compareForSort(rows[i].keys[k], rows[j].keys[k])
				if err != nil {
					sortErr = err
					return false
				}
				if c != 0 {
					if ob.Desc {
						return c > 0
					}
					return c < 0
				}
			}
			return false
		})
		if sortErr != nil {
			return nil, sortErr
		}
	}
	if sel.Limit >= 0 && len(rows) > sel.Limit {
		rows = rows[:sel.Limit]
	}
	res.Rows = make([]storage.Row, len(rows))
	for i, r := range rows {
		res.Rows[i] = r.row
	}
	return res, nil
}

// compareForSort orders values with NULLs first and booleans false<true,
// falling back to Value.Compare.
func compareForSort(a, b storage.Value) (int, error) {
	if a.IsNull() || b.IsNull() {
		switch {
		case a.IsNull() && b.IsNull():
			return 0, nil
		case a.IsNull():
			return -1, nil
		default:
			return 1, nil
		}
	}
	if a.Kind == storage.KindBool && b.Kind == storage.KindBool {
		av, _ := a.AsBool()
		bv, _ := b.AsBool()
		switch {
		case av == bv:
			return 0, nil
		case !av:
			return -1, nil
		default:
			return 1, nil
		}
	}
	return a.Compare(b)
}

func (e *Engine) runInsert(ins *InsertStmt, params map[string]storage.Value) (*Result, error) {
	tbl, err := e.db.Table(ins.Table)
	if err != nil {
		return nil, err
	}
	p, err := buildPlan(e.db, ins.Select, params)
	if err != nil {
		return nil, err
	}
	sel, err := e.runSelect(p, params)
	if err != nil {
		return nil, err
	}
	schema := tbl.Schema()
	// Column mapping: named columns or positional.
	var colIdx []int
	if len(ins.Cols) > 0 {
		if len(ins.Cols) != len(sel.Cols) {
			return nil, fmt.Errorf("sqlx: INSERT names %d columns but SELECT yields %d", len(ins.Cols), len(sel.Cols))
		}
		for _, c := range ins.Cols {
			ci := schema.ColIndex(c)
			if ci < 0 {
				return nil, fmt.Errorf("sqlx: %s has no column %q", ins.Table, c)
			}
			colIdx = append(colIdx, ci)
		}
	} else {
		if len(sel.Cols) != len(schema.Cols) {
			return nil, fmt.Errorf("sqlx: INSERT into %s needs %d columns, SELECT yields %d",
				ins.Table, len(schema.Cols), len(sel.Cols))
		}
		for i := range schema.Cols {
			colIdx = append(colIdx, i)
		}
	}
	count := 0
	for _, r := range sel.Rows {
		row := make(storage.Row, len(schema.Cols))
		for i := range row {
			row[i] = storage.Null
		}
		for si, ci := range colIdx {
			row[ci] = r[si]
		}
		if err := tbl.Append(row); err != nil {
			return nil, err
		}
		count++
	}
	return &Result{Cols: []string{"inserted"}, Rows: []storage.Row{{storage.Int(int64(count))}}}, nil
}
