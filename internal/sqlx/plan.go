package sqlx

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/geom"
	"repro/internal/index/rtree"
	"repro/internal/storage"
)

// The planner turns a SELECT into an ordered pipeline:
//
//  1. per-table scans with pushed-down single-table predicates — the
//     paper's "range query" step (Fig. 5 runs the within-range filter
//     before the distance join);
//  2. a greedy join order over the filtered tables, seeded with the smallest
//     one. Each next (table, conjunct) pair is the one with the smallest
//     estimated output per probe tuple — rows / distinct keys for an equi
//     edge, rows × window area / extent area for a distance edge, rows for
//     theta and cross joins — so the selective operator becomes the access
//     path whatever its kind: the heuristic re-ordering of Section IV-B,
//     decided by the data. Kind (hash, then R-tree, then nested loop),
//     smaller input and alias only break ties, so the order is a pure
//     function of the data and the query;
//  3. every other conjunct that becomes evaluable at a step rides along as
//     a co-filter: the executor tests it on each candidate inside the probe
//     loop, before a joined tuple exists (EXPLAIN prints it as then-filter);
//  4. projection.
//
// Because tables are in memory, the planner materializes filtered row-id
// lists eagerly and uses their true sizes as cardinalities.
//
// Row order is part of the contract (grounding turns rows into factor ids):
// result tuples are lexicographic in plan-step order, with the joined
// table's row ids ascending inside each probe tuple, for every join kind.
// Which conjunct serves as access path therefore never changes the rows of
// a query over two tables, whose step order smallestNode alone decides;
// from three tables on, the step order — hence the row order — follows the
// estimates. Either way it is deterministic and independent of the worker
// count.

// conjunct classification.
type conjunctKind uint8

const (
	conjFilter  conjunctKind = iota // references ≤ 1 alias
	conjEqui                        // a.x = b.y
	conjSpatial                     // ST_DISTANCE(a.g, b.g) < d (or <=)
	conjTheta                       // anything else across aliases
)

type conjunct struct {
	expr    Expr
	kind    conjunctKind
	aliases []string // lower-cased, sorted
	applied bool
	// fanout[i] estimates how many rows of aliases[i] match one probe tuple
	// through this conjunct (two-alias conjuncts only).
	fanout [2]float64

	// left and right are the two columns of an equi conjunct (a.x = b.y) or
	// the geometry arguments of a spatial one, in the order written.
	left, right boundCol
	// spatial-join detail: ST_DISTANCE(l, r) op radius with op one of OpLt,
	// OpLe.
	radius float64
	metric geom.Metric
	op     BinOp
}

// sides returns the conjunct's column on the joined node and the one on the
// already-bound side of an equi or spatial join.
func (c *conjunct) sides(joined *scanNode) (probe, build boundCol) {
	if c.right.slot == joined.slot {
		return c.left, c.right
	}
	return c.right, c.left
}

// holds evaluates the conjunct on the tuple bound in ev. Classified
// conjuncts run as typed code on their resolved columns — an equi edge is
// Value.Equal (NULL never matching), a spatial edge is exactly the
// comparison evalCall and evalBinary would compute — everything else goes
// through the interpreter.
func (c *conjunct) holds(ev *env) (bool, error) {
	switch c.kind {
	case conjEqui:
		l, r := ev.rows[c.left.slot][c.left.col], ev.rows[c.right.slot][c.right.col]
		return !l.IsNull() && !r.IsNull() && l.Equal(r), nil
	case conjSpatial:
		l, r := ev.rows[c.left.slot][c.left.col], ev.rows[c.right.slot][c.right.col]
		if l.G == nil || r.G == nil {
			return false, nil // NULL geometry never matches
		}
		if c.op == OpLt {
			return stDistance(l.G, r.G, c.metric) < c.radius, nil
		}
		// Value.Compare orders an unordered pair (NaN) as equal, so "<=" is
		// "not greater".
		return !(stDistance(l.G, r.G, c.metric) > c.radius), nil
	default:
		return ev.evalBool(c.expr)
	}
}

type scanNode struct {
	ref     TableRef
	alias   string // lower-cased
	slot    int    // position in FROM: the env binding slot of this table's row
	tbl     *storage.Table
	rows    []storage.Row // the table's rows, captured once; index = row id
	filters []Expr
	ids     []int // filtered row ids, ascending
}

type planStep struct {
	node    *scanNode
	joinVia *conjunct   // nil for the first (scan) step and for cross joins
	extra   []*conjunct // co-filters tested on each candidate of this step
}

type plan struct {
	steps []planStep
	items []Expr // the SELECT list, every column reference a boundCol
}

// Explain renders the plan as human-readable lines, one per pipeline step.
func (p *plan) Explain() []string {
	var out []string
	for i, s := range p.steps {
		var b strings.Builder
		switch {
		case i == 0:
			fmt.Fprintf(&b, "scan %s", s.node.ref.Table)
		case s.joinVia == nil:
			fmt.Fprintf(&b, "cross-join %s", s.node.ref.Table)
		case s.joinVia.kind == conjEqui:
			fmt.Fprintf(&b, "hash-join %s ON %s", s.node.ref.Table, s.joinVia.expr.SQL())
		case s.joinVia.kind == conjSpatial:
			fmt.Fprintf(&b, "spatial-join %s ON %s", s.node.ref.Table, s.joinVia.expr.SQL())
		default:
			fmt.Fprintf(&b, "theta-join %s ON %s", s.node.ref.Table, s.joinVia.expr.SQL())
		}
		if s.node.ref.Alias != "" {
			fmt.Fprintf(&b, " AS %s", s.node.ref.Alias)
		}
		if len(s.node.filters) > 0 {
			parts := make([]string, len(s.node.filters))
			for j, f := range s.node.filters {
				parts[j] = f.SQL()
			}
			fmt.Fprintf(&b, " filter [%s]", strings.Join(parts, " AND "))
		}
		fmt.Fprintf(&b, " (%d rows)", len(s.node.ids))
		for _, c := range s.extra {
			b.WriteString(" then-filter " + c.expr.SQL())
		}
		out = append(out, b.String())
	}
	return out
}

// buildPlan analyses a SELECT against the database.
func buildPlan(db *storage.DB, stmt *Stmt, params map[string]storage.Value) (*plan, error) {
	// Resolve tables and aliases.
	nodes := make([]*scanNode, len(stmt.From))
	byAlias := map[string]*scanNode{}
	for i, ref := range stmt.From {
		tbl, err := db.Table(ref.Table)
		if err != nil {
			return nil, err
		}
		alias := strings.ToLower(ref.EffectiveAlias())
		if byAlias[alias] != nil {
			return nil, fmt.Errorf("sqlx: duplicate table alias %q", ref.EffectiveAlias())
		}
		// Tables are append-only, so the row slice captured here is a
		// consistent prefix for the whole query and binding a tuple is a
		// slice index, not a lock per row.
		n := &scanNode{ref: ref, alias: alias, slot: i, tbl: tbl, rows: tbl.Rows()}
		nodes[i] = n
		byAlias[alias] = n
	}
	items, err := bindAll(stmt.Items, nodes, params)
	if err != nil {
		return nil, err
	}
	where, err := bindAll(stmt.Where, nodes, params)
	if err != nil {
		return nil, err
	}

	// Classify conjuncts.
	conjuncts := make([]*conjunct, len(where))
	for i, e := range where {
		conjuncts[i] = classify(e, nodes, params)
	}
	// Push single-alias filters into scans; constant predicates are evaluated
	// once, and a false one empties every scan.
	constFalse := false
	for _, c := range conjuncts {
		if c.kind != conjFilter {
			continue
		}
		c.applied = true
		if len(c.aliases) == 1 {
			n := byAlias[c.aliases[0]]
			n.filters = append(n.filters, c.expr)
			continue
		}
		ev := &env{params: params}
		ok, err := ev.evalBool(c.expr)
		if err != nil {
			return nil, err
		}
		if !ok {
			constFalse = true
		}
	}

	// Materialize filtered scans — the "range query first" stage — then
	// estimate every join edge on what they kept.
	if !constFalse {
		for _, n := range nodes {
			ids, err := filterScan(n, len(nodes), params)
			if err != nil {
				return nil, err
			}
			n.ids = ids
		}
	}
	for _, c := range conjuncts {
		if len(c.aliases) == 2 {
			for i, a := range c.aliases {
				c.fanout[i] = byAlias[a].fanout(c)
			}
		}
	}

	// Greedy join order.
	remaining := map[string]*scanNode{}
	for _, n := range nodes {
		remaining[n.alias] = n
	}
	var steps []planStep
	bound := map[string]bool{}
	// Seed with the smallest filtered table.
	first := smallestNode(remaining)
	steps = append(steps, planStep{node: first})
	bound[first.alias] = true
	delete(remaining, first.alias)
	for len(remaining) > 0 {
		next, via := pickNext(remaining, bound, conjuncts)
		step := planStep{node: next, joinVia: via}
		if via != nil {
			via.applied = true
		}
		bound[next.alias] = true
		delete(remaining, next.alias)
		// Every other conjunct evaluable now is a co-filter of this step.
		for _, c := range conjuncts {
			if !c.applied && aliasesBound(c.aliases, bound) {
				step.extra = append(step.extra, c)
				c.applied = true
			}
		}
		steps = append(steps, step)
	}
	return &plan{steps: steps, items: items}, nil
}

// bindAll binds each expression of es by bindExpr into a new slice, so a
// parsed statement can be planned again.
func bindAll(es []Expr, nodes []*scanNode, params map[string]storage.Value) ([]Expr, error) {
	out := make([]Expr, len(es))
	for i, e := range es {
		b, err := bindExpr(e, nodes, params)
		if err != nil {
			return nil, err
		}
		out[i] = b
	}
	return out, nil
}

// bindExpr resolves every ColRef of e to its (binding slot, column index)
// once, so evaluation never looks a name up per tuple: a qualified reference
// must name a FROM alias and one of its columns, an unqualified one exactly
// one column across the FROM tables. It also parses the constant metric
// argument of ST_DISTANCE once per plan.
func bindExpr(e Expr, nodes []*scanNode, params map[string]storage.Value) (Expr, error) {
	switch v := e.(type) {
	case ColRef:
		var found *scanNode
		col := -1
		for _, n := range nodes {
			if v.Table != "" && strings.ToLower(v.Table) != n.alias {
				continue
			}
			ci := n.tbl.Schema().ColIndex(v.Col)
			switch {
			case ci >= 0 && found != nil:
				return nil, fmt.Errorf("sqlx: ambiguous column %q", v.Col)
			case ci >= 0:
				found, col = n, ci
			case v.Table != "":
				return nil, fmt.Errorf("sqlx: %s has no column %q", v.Table, v.Col)
			}
		}
		switch {
		case found != nil:
			return boundCol{ColRef: ColRef{Table: found.alias, Col: v.Col}, slot: found.slot, col: col}, nil
		case v.Table != "":
			return nil, fmt.Errorf("sqlx: unknown table alias %q", v.Table)
		default:
			return nil, fmt.Errorf("sqlx: unknown column %q", v.Col)
		}
	case Binary:
		l, err := bindExpr(v.L, nodes, params)
		if err != nil {
			return nil, err
		}
		r, err := bindExpr(v.R, nodes, params)
		if err != nil {
			return nil, err
		}
		return Binary{Op: v.Op, L: l, R: r}, nil
	case Call:
		args, err := bindAll(v.Args, nodes, params)
		if err != nil {
			return nil, err
		}
		if v.Name == "ST_DISTANCE" && len(args) == 3 {
			if m, ok := constMetric(args[2], params); ok {
				args[2] = m
			}
		}
		return Call{Name: v.Name, Args: args}, nil
	default:
		return e, nil
	}
}

// classify analyses one bound conjunct.
func classify(e Expr, nodes []*scanNode, params map[string]storage.Value) *conjunct {
	aliases := aliasesOf(e)
	sort.Strings(aliases)
	c := &conjunct{expr: e, aliases: aliases}
	if len(aliases) <= 1 {
		c.kind = conjFilter
		return c
	}
	c.kind = conjTheta
	if len(aliases) != 2 {
		return c
	}
	// a.x = b.y ?
	if b, ok := e.(Binary); ok && b.Op == OpEq {
		lc, lok := b.L.(boundCol)
		rc, rok := b.R.(boundCol)
		if lok && rok && lc.slot != rc.slot {
			c.kind = conjEqui
			c.left, c.right = lc, rc
			return c
		}
	}
	// ST_DISTANCE(a.g, b.g [, metric]) < d (or <=) ?
	if b, ok := e.(Binary); ok && (b.Op == OpLt || b.Op == OpLe) {
		if call, ok := b.L.(Call); ok && call.Name == "ST_DISTANCE" {
			if l, r, ok := spatialPair(call.Args[0], call.Args[1], nodes); ok {
				if d, m, ok := constRadius(b.R, call.Args[2:], params); ok {
					c.kind = conjSpatial
					c.left, c.right = l, r
					c.radius, c.metric, c.op = d, m, b.Op
					return c
				}
			}
		}
	}
	return c
}

// spatialPair extracts two geometry columns of distinct tables. A column of
// any other kind leaves the conjunct to the interpreter, whose builtins
// report the type error.
func spatialPair(a, b Expr, nodes []*scanNode) (l, r boundCol, ok bool) {
	l, lok := a.(boundCol)
	r, rok := b.(boundCol)
	isGeom := func(c boundCol) bool {
		return nodes[c.slot].tbl.Schema().Cols[c.col].Kind == storage.KindGeom
	}
	return l, r, lok && rok && l.slot != r.slot && isGeom(l) && isGeom(r)
}

// constRadius evaluates the radius expression (which must reference no
// columns) and the optional metric argument, which bindExpr has already
// parsed when it is constant.
func constRadius(radiusExpr Expr, metricArgs []Expr, params map[string]storage.Value) (float64, geom.Metric, bool) {
	if as := aliasesOf(radiusExpr); len(as) != 0 {
		return 0, 0, false
	}
	ev := &env{params: params}
	v, err := ev.eval(radiusExpr)
	if err != nil {
		return 0, 0, false
	}
	d, err := v.AsFloat()
	if err != nil {
		return 0, 0, false
	}
	if len(metricArgs) == 0 {
		return d, geom.Euclidean, true
	}
	m, ok := metricArgs[0].(metricLit)
	return d, m.m, ok
}

// constMetric parses a metric-name argument that references no columns.
func constMetric(arg Expr, params map[string]storage.Value) (metricLit, bool) {
	if len(aliasesOf(arg)) != 0 {
		return metricLit{}, false
	}
	ev := &env{params: params}
	v, err := ev.eval(arg)
	if err != nil || v.Kind != storage.KindString {
		return metricLit{}, false
	}
	m, err := geom.ParseMetric(v.S)
	return metricLit{src: arg, val: v, m: m}, err == nil
}

// filterScan materializes the row ids of a node passing its filters, in row
// order. Every filter, a spatial window such as ST_WITHIN(col, const)
// included, is evaluated on every row: no index outlives the query, and one
// pass over the rows costs what building a window index would.
func filterScan(n *scanNode, slots int, params map[string]storage.Value) ([]int, error) {
	ev := &env{rows: make([]storage.Row, slots), params: params}
	var ids []int
rows:
	for id, r := range n.rows {
		ev.rows[n.slot] = r
		for _, f := range n.filters {
			ok, err := ev.evalBool(f)
			if err != nil {
				return nil, err
			}
			if !ok {
				continue rows
			}
		}
		ids = append(ids, id)
	}
	return ids, nil
}

// fanout estimates how many of the node's filtered rows match one probe
// tuple through c, from one pass over those rows: rows per distinct key for
// an equi edge; for a distance edge, the share of the geometry column's
// extent that one search window covers; every row for a theta edge.
func (n *scanNode) fanout(c *conjunct) float64 {
	rows := float64(len(n.ids))
	switch c.kind {
	case conjEqui:
		_, build := c.sides(n)
		distinct := map[hashKey]struct{}{}
		for _, id := range n.ids {
			if k, ok := hashKeyOf(n.rows[id][build.col]); ok {
				distinct[k] = struct{}{}
			}
		}
		if len(distinct) == 0 {
			return 0
		}
		return rows / float64(len(distinct))
	case conjSpatial:
		_, build := c.sides(n)
		var extent geom.Rect
		any := false
		for _, id := range n.ids {
			if g := n.rows[id][build.col].G; g != nil {
				if b := g.Bounds(); any {
					extent = extent.Union(b)
				} else {
					extent, any = b, true
				}
			}
		}
		if !any || !(c.radius >= 0) {
			return 0
		}
		window := geom.ExpandWindow(extent.Center().Bounds(), c.radius, c.metric)
		if area := extent.Area(); window.Area() < area {
			return rows * window.Area() / area
		}
		return rows
	default:
		return rows
	}
}

func smallestNode(m map[string]*scanNode) *scanNode {
	var best *scanNode
	for _, n := range m {
		if best == nil || len(n.ids) < len(best.ids) ||
			(len(n.ids) == len(best.ids) && n.alias < best.alias) {
			best = n
		}
	}
	return best
}

// joinRank orders join kinds for tie-breaking: hash, R-tree, nested loop,
// cross.
func joinRank(c *conjunct) int {
	switch {
	case c == nil:
		return 3
	case c.kind == conjEqui:
		return 0
	case c.kind == conjSpatial:
		return 1
	default:
		return 2
	}
}

// pickNext chooses the next table to join and the conjunct to join it
// through: the pair with the smallest estimated output per probe tuple (a
// table no conjunct connects to the bound set is a cross join and costs all
// its rows). Ties break on join kind, then smaller filtered input, then
// alias, then WHERE order, so the choice is deterministic.
func pickNext(remaining map[string]*scanNode, bound map[string]bool, conjuncts []*conjunct) (*scanNode, *conjunct) {
	type option struct {
		n   *scanNode
		c   *conjunct
		est float64
	}
	var best *option
	consider := func(o option) {
		better := best == nil
		if !better {
			switch or, br := joinRank(o.c), joinRank(best.c); {
			case o.est != best.est:
				better = o.est < best.est
			case or != br:
				better = or < br
			case len(o.n.ids) != len(best.n.ids):
				better = len(o.n.ids) < len(best.n.ids)
			default:
				better = o.n.alias < best.n.alias
			}
		}
		if better {
			best = &o
		}
	}
	for _, n := range remaining {
		joined := false
		for _, c := range conjuncts {
			if c.applied || len(c.aliases) != 2 {
				continue
			}
			side := 0
			if c.aliases[1] == n.alias {
				side = 1
			} else if c.aliases[0] != n.alias {
				continue
			}
			if !bound[c.aliases[1-side]] {
				continue
			}
			joined = true
			consider(option{n: n, c: c, est: c.fanout[side]})
		}
		if !joined {
			consider(option{n: n, est: float64(len(n.ids))})
		}
	}
	return best.n, best.c
}

func aliasesBound(aliases []string, bound map[string]bool) bool {
	for _, a := range aliases {
		if !bound[a] {
			return false
		}
	}
	return true
}

// spatialJoinIndex builds an R-tree over the filtered rows of a node's
// geometry column for the probe side of a spatial join.
func spatialJoinIndex(n *scanNode, col int) *rtree.Tree {
	items := make([]rtree.Item, 0, len(n.ids))
	for _, id := range n.ids {
		if g := n.rows[id][col].G; g != nil { // NULL geometry never matches
			items = append(items, rtree.Item{Rect: g.Bounds(), Data: int64(id)})
		}
	}
	return rtree.Bulk(items)
}
