package sqlx

import (
	"fmt"

	"repro/internal/geom"
	"repro/internal/storage"
)

// env holds what an expression is evaluated against: one row per FROM table
// of the current joined tuple, indexed by scanNode.slot. Plans evaluate
// bound expressions only (see bindExpr), whose column references index rows
// directly.
type env struct {
	rows   []storage.Row
	params map[string]storage.Value
}

// boundCol is a ColRef resolved at plan time to the env slot of its table's
// row and the column's index in it.
type boundCol struct {
	ColRef
	slot, col int
}

// metricLit is a constant metric-name argument of ST_DISTANCE, parsed once
// when the plan was bound. It evaluates to the original value.
type metricLit struct {
	src Expr
	val storage.Value
	m   geom.Metric
}

// SQL implements Expr.
func (l metricLit) SQL() string { return l.src.SQL() }

// eval evaluates a bound expression in the environment.
func (e *env) eval(x Expr) (storage.Value, error) {
	switch v := x.(type) {
	case Lit:
		return v.Val, nil
	case Param:
		val, ok := e.params[v.Name]
		if !ok {
			return storage.Null, fmt.Errorf("sqlx: unbound parameter :%s", v.Name)
		}
		return val, nil
	case boundCol:
		return e.rows[v.slot][v.col], nil
	case metricLit:
		return v.val, nil
	case Binary:
		return e.evalBinary(v)
	case Call:
		return e.evalCall(v)
	default:
		return storage.Null, fmt.Errorf("sqlx: cannot evaluate %T", x)
	}
}

// evalBinary evaluates a comparison; a NULL operand makes it NULL.
func (e *env) evalBinary(b Binary) (storage.Value, error) {
	l, err := e.eval(b.L)
	if err != nil {
		return storage.Null, err
	}
	r, err := e.eval(b.R)
	if err != nil {
		return storage.Null, err
	}
	if l.IsNull() || r.IsNull() {
		return storage.Null, nil
	}
	switch b.Op {
	case OpEq:
		return storage.Bool(l.Equal(r)), nil
	case OpNe:
		return storage.Bool(!l.Equal(r)), nil
	}
	c, err := l.Compare(r)
	if err != nil {
		return storage.Null, err
	}
	switch b.Op {
	case OpLt:
		return storage.Bool(c < 0), nil
	case OpLe:
		return storage.Bool(c <= 0), nil
	case OpGt:
		return storage.Bool(c > 0), nil
	default:
		return storage.Bool(c >= 0), nil
	}
}

// evalBool evaluates a predicate; NULL counts as false (SQL WHERE
// semantics).
func (e *env) evalBool(x Expr) (bool, error) {
	v, err := e.eval(x)
	if err != nil {
		return false, err
	}
	if v.IsNull() {
		return false, nil
	}
	return v.AsBool()
}

// Spatial builtins. The set mirrors the predicates and functions Sya adds to
// DDlog rule bodies (paper Section III): distance, within, contains,
// overlaps, intersects, plus union and buffer helpers, named in their
// PostGIS forms since the translator emits PostGIS-style SQL (Fig. 5). The
// parser has checked each call's arity.
func (e *env) evalCall(c Call) (storage.Value, error) {
	// Every builtin takes at most three arguments: they stay on the stack.
	var buf [3]storage.Value
	args := buf[:len(c.Args)]
	for i, a := range c.Args {
		v, err := e.eval(a)
		if err != nil {
			return storage.Null, err
		}
		args[i] = v
	}
	// NULL in, NULL out for all builtins.
	for _, a := range args {
		if a.IsNull() {
			return storage.Null, nil
		}
	}
	if c.Name == "ST_BUFFER" {
		// Rectangular buffer approximation: the grounding queries only use
		// buffers as windows for subsequent containment checks.
		g, err := args[0].AsGeom()
		if err != nil {
			return storage.Null, err
		}
		d, err := args[1].AsFloat()
		if err != nil {
			return storage.Null, err
		}
		return storage.Geom(g.Bounds().Expand(d)), nil
	}
	ga, gb, err := twoGeoms(c.Name, args)
	if err != nil {
		return storage.Null, err
	}
	switch c.Name {
	case "ST_DISTANCE":
		m, err := metricArg(c, args)
		if err != nil {
			return storage.Null, err
		}
		return storage.Float(stDistance(ga, gb, m)), nil
	case "ST_WITHIN":
		return storage.Bool(geom.Within(ga, gb)), nil
	case "ST_CONTAINS":
		return storage.Bool(geom.Contains(ga, gb)), nil
	case "ST_OVERLAPS":
		return storage.Bool(geom.Overlaps(ga, gb)), nil
	case "ST_INTERSECTS":
		return storage.Bool(geom.Intersects(ga, gb)), nil
	default: // ST_UNION: bounding-box union, sufficient for window construction.
		return storage.Geom(ga.Bounds().Union(gb.Bounds())), nil
	}
}

func twoGeoms(name string, args []storage.Value) (geom.Geometry, geom.Geometry, error) {
	ga, err := args[0].AsGeom()
	if err != nil {
		return nil, nil, fmt.Errorf("sqlx: %s argument 1: %w", name, err)
	}
	gb, err := args[1].AsGeom()
	if err != nil {
		return nil, nil, fmt.Errorf("sqlx: %s argument 2: %w", name, err)
	}
	return ga, gb, nil
}

// stDistance is ST_DISTANCE: the metric between two points, the planar
// separation of any other pair of geometries. The interpreter and the
// planner's typed spatial conjunct (conjunct.holds) share this definition.
func stDistance(a, b geom.Geometry, m geom.Metric) float64 {
	pa, aPt := a.(geom.Point)
	pb, bPt := b.(geom.Point)
	if aPt && bPt {
		return m.Dist(pa, pb)
	}
	return geom.DistanceGeometries(a, b)
}

// metricArg reads ST_DISTANCE's optional third argument, a metric name (a
// geom.ParseMetric spelling); Euclidean when absent. A constant one was
// parsed when the plan was bound.
func metricArg(c Call, args []storage.Value) (geom.Metric, error) {
	if len(args) < 3 {
		return geom.Euclidean, nil
	}
	if lit, ok := c.Args[2].(metricLit); ok {
		return lit.m, nil
	}
	if args[2].Kind != storage.KindString {
		return 0, fmt.Errorf("sqlx: %s metric argument must be a string", c.Name)
	}
	m, err := geom.ParseMetric(args[2].S)
	if err != nil {
		return 0, fmt.Errorf("sqlx: %w", err)
	}
	return m, nil
}
