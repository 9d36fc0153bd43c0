package sqlx

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/geom"
	"repro/internal/storage"
)

// env holds what an expression is evaluated against: one row per FROM table
// of the current joined tuple, indexed by scanNode.slot. Plans evaluate
// bound expressions (see bindExpr), whose column references index rows
// directly; aliases and schemas serve only expressions nobody bound, which
// resolve names per evaluation.
type env struct {
	rows    []storage.Row
	params  map[string]storage.Value
	aliases []string         // lower-cased, aligned with rows
	schemas []storage.Schema // aligned with rows
}

// boundCol is a ColRef resolved at plan time to the env slot of its table's
// row and the column's index in it.
type boundCol struct {
	ColRef
	slot, col int
}

// metricLit is a constant metric-name argument of ST_DISTANCE / ST_DWITHIN,
// parsed once when the plan was bound. It evaluates to the original value.
type metricLit struct {
	src Expr
	val storage.Value
	m   geom.Metric
}

// SQL implements Expr.
func (l metricLit) SQL() string { return l.src.SQL() }

// resolve finds the binding and column index for a reference by name.
func (e *env) resolve(c ColRef) (int, int, error) {
	if c.Table != "" {
		want := strings.ToLower(c.Table)
		for bi, a := range e.aliases {
			if a == want {
				ci := e.schemas[bi].ColIndex(c.Col)
				if ci < 0 {
					return 0, 0, fmt.Errorf("sqlx: %s has no column %q", c.Table, c.Col)
				}
				return bi, ci, nil
			}
		}
		return 0, 0, fmt.Errorf("sqlx: unknown table alias %q", c.Table)
	}
	foundB, foundC := -1, -1
	for bi := range e.aliases {
		if ci := e.schemas[bi].ColIndex(c.Col); ci >= 0 {
			if foundB >= 0 {
				return 0, 0, fmt.Errorf("sqlx: ambiguous column %q", c.Col)
			}
			foundB, foundC = bi, ci
		}
	}
	if foundB < 0 {
		return 0, 0, fmt.Errorf("sqlx: unknown column %q", c.Col)
	}
	return foundB, foundC, nil
}

// eval evaluates an expression in the environment.
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
		// An unbound slot holds a nil row: the zero-tuple global group of an
		// aggregate query has no tuple to read a plain column from.
		if row := e.rows[v.slot]; v.col < len(row) {
			return row[v.col], nil
		}
		return storage.Null, fmt.Errorf("sqlx: no row bound for %s", v.SQL())
	case metricLit:
		return v.val, nil
	case ColRef:
		bi, ci, err := e.resolve(v)
		if err != nil {
			return storage.Null, err
		}
		return e.rows[bi][ci], nil
	case Neg:
		val, err := e.eval(v.E)
		if err != nil {
			return storage.Null, err
		}
		f, err := val.AsFloat()
		if err != nil {
			return storage.Null, err
		}
		if val.Kind == storage.KindInt {
			return storage.Int(-val.I), nil
		}
		return storage.Float(-f), nil
	case Not:
		val, err := e.eval(v.E)
		if err != nil {
			return storage.Null, err
		}
		if val.IsNull() {
			return storage.Null, nil
		}
		b, err := val.AsBool()
		if err != nil {
			return storage.Null, err
		}
		return storage.Bool(!b), nil
	case Binary:
		return e.evalBinary(v)
	case Call:
		return e.evalCall(v)
	default:
		return storage.Null, fmt.Errorf("sqlx: cannot evaluate %T", x)
	}
}

func (e *env) evalBinary(b Binary) (storage.Value, error) {
	switch b.Op {
	case OpAnd, OpOr:
		l, err := e.eval(b.L)
		if err != nil {
			return storage.Null, err
		}
		// SQL three-valued logic with short circuit on the decisive value.
		if !l.IsNull() {
			lb, err := l.AsBool()
			if err != nil {
				return storage.Null, err
			}
			if b.Op == OpAnd && !lb {
				return storage.Bool(false), nil
			}
			if b.Op == OpOr && lb {
				return storage.Bool(true), nil
			}
		}
		r, err := e.eval(b.R)
		if err != nil {
			return storage.Null, err
		}
		if l.IsNull() || r.IsNull() {
			if !r.IsNull() {
				rb, err := r.AsBool()
				if err != nil {
					return storage.Null, err
				}
				if b.Op == OpAnd && !rb {
					return storage.Bool(false), nil
				}
				if b.Op == OpOr && rb {
					return storage.Bool(true), nil
				}
			}
			return storage.Null, nil
		}
		rb, err := r.AsBool()
		if err != nil {
			return storage.Null, err
		}
		if b.Op == OpAnd {
			return storage.Bool(rb), nil // l already known true
		}
		return storage.Bool(rb), nil // l already known false
	}
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
	case OpLt, OpLe, OpGt, OpGe:
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
	case OpAdd, OpSub, OpMul, OpDiv:
		lf, err := l.AsFloat()
		if err != nil {
			return storage.Null, err
		}
		rf, err := r.AsFloat()
		if err != nil {
			return storage.Null, err
		}
		var out float64
		switch b.Op {
		case OpAdd:
			out = lf + rf
		case OpSub:
			out = lf - rf
		case OpMul:
			out = lf * rf
		default:
			if rf == 0 {
				return storage.Null, fmt.Errorf("sqlx: division by zero")
			}
			out = lf / rf
		}
		if l.Kind == storage.KindInt && r.Kind == storage.KindInt && b.Op != OpDiv {
			return storage.Int(int64(out)), nil
		}
		return storage.Float(out), nil
	}
	return storage.Null, fmt.Errorf("sqlx: unsupported operator %v", b.Op)
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

// Spatial and scalar builtins. The spatial set mirrors the predicates and
// functions Sya adds to DDlog rule bodies (paper Section III): distance,
// within, overlaps, plus union and buffer helpers, named in their PostGIS
// forms since the translator emits PostGIS-style SQL (Fig. 5).
func (e *env) evalCall(c Call) (storage.Value, error) {
	// Up to four arguments (every spatial builtin) stay on the stack.
	var buf [4]storage.Value
	args := buf[:0]
	if len(c.Args) > len(buf) {
		args = make([]storage.Value, 0, len(c.Args))
	}
	for _, a := range c.Args {
		v, err := e.eval(a)
		if err != nil {
			return storage.Null, err
		}
		args = append(args, v)
	}
	// NULL in, NULL out for all builtins.
	for _, a := range args {
		if a.IsNull() {
			return storage.Null, nil
		}
	}
	switch c.Name {
	case "ST_DISTANCE":
		if err := arity(c, 2, 3); err != nil {
			return storage.Null, err
		}
		ga, gb, err := twoGeoms(c.Name, args)
		if err != nil {
			return storage.Null, err
		}
		m, err := metricArg(c, args, 2)
		if err != nil {
			return storage.Null, err
		}
		return storage.Float(stDistance(ga, gb, m)), nil
	case "ST_DWITHIN":
		if err := arity(c, 3, 4); err != nil {
			return storage.Null, err
		}
		ga, gb, err := twoGeoms(c.Name, args)
		if err != nil {
			return storage.Null, err
		}
		d, err := args[2].AsFloat()
		if err != nil {
			return storage.Null, err
		}
		m, err := metricArg(c, args, 3)
		if err != nil {
			return storage.Null, err
		}
		return storage.Bool(geom.DWithin(ga, gb, d, m)), nil
	case "ST_WITHIN":
		if err := arity(c, 2, 2); err != nil {
			return storage.Null, err
		}
		ga, gb, err := twoGeoms(c.Name, args)
		if err != nil {
			return storage.Null, err
		}
		return storage.Bool(geom.Within(ga, gb)), nil
	case "ST_CONTAINS":
		if err := arity(c, 2, 2); err != nil {
			return storage.Null, err
		}
		ga, gb, err := twoGeoms(c.Name, args)
		if err != nil {
			return storage.Null, err
		}
		return storage.Bool(geom.Contains(ga, gb)), nil
	case "ST_OVERLAPS":
		if err := arity(c, 2, 2); err != nil {
			return storage.Null, err
		}
		ga, gb, err := twoGeoms(c.Name, args)
		if err != nil {
			return storage.Null, err
		}
		return storage.Bool(geom.Overlaps(ga, gb)), nil
	case "ST_INTERSECTS":
		if err := arity(c, 2, 2); err != nil {
			return storage.Null, err
		}
		ga, gb, err := twoGeoms(c.Name, args)
		if err != nil {
			return storage.Null, err
		}
		return storage.Bool(geom.Intersects(ga, gb)), nil
	case "ST_GEOMFROMTEXT":
		if err := arity(c, 1, 1); err != nil {
			return storage.Null, err
		}
		if args[0].Kind != storage.KindString {
			return storage.Null, fmt.Errorf("sqlx: ST_GEOMFROMTEXT wants a WKT string")
		}
		g, err := geom.ParseWKT(args[0].S)
		if err != nil {
			return storage.Null, err
		}
		return storage.Geom(g), nil
	case "ST_POINT", "ST_MAKEPOINT":
		if err := arity(c, 2, 2); err != nil {
			return storage.Null, err
		}
		x, err := args[0].AsFloat()
		if err != nil {
			return storage.Null, err
		}
		y, err := args[1].AsFloat()
		if err != nil {
			return storage.Null, err
		}
		return storage.Geom(geom.Pt(x, y)), nil
	case "ST_BUFFER":
		// Rectangular buffer approximation: the grounding queries only use
		// buffers as windows for subsequent containment checks.
		if err := arity(c, 2, 2); err != nil {
			return storage.Null, err
		}
		g, err := args[0].AsGeom()
		if err != nil {
			return storage.Null, err
		}
		d, err := args[1].AsFloat()
		if err != nil {
			return storage.Null, err
		}
		return storage.Geom(g.Bounds().Expand(d)), nil
	case "ST_UNION":
		// Bounding-box union, sufficient for window construction.
		if err := arity(c, 2, 2); err != nil {
			return storage.Null, err
		}
		ga, gb, err := twoGeoms(c.Name, args)
		if err != nil {
			return storage.Null, err
		}
		return storage.Geom(ga.Bounds().Union(gb.Bounds())), nil
	case "ST_X", "ST_Y":
		if err := arity(c, 1, 1); err != nil {
			return storage.Null, err
		}
		g, err := args[0].AsGeom()
		if err != nil {
			return storage.Null, err
		}
		p, ok := g.(geom.Point)
		if !ok {
			return storage.Null, fmt.Errorf("sqlx: %s wants a point", c.Name)
		}
		if c.Name == "ST_X" {
			return storage.Float(p.X), nil
		}
		return storage.Float(p.Y), nil
	case "ABS":
		if err := arity(c, 1, 1); err != nil {
			return storage.Null, err
		}
		f, err := args[0].AsFloat()
		if err != nil {
			return storage.Null, err
		}
		if args[0].Kind == storage.KindInt {
			if args[0].I < 0 {
				return storage.Int(-args[0].I), nil
			}
			return args[0], nil
		}
		return storage.Float(math.Abs(f)), nil
	case "LEAST", "GREATEST":
		if len(args) == 0 {
			return storage.Null, fmt.Errorf("sqlx: %s wants at least one argument", c.Name)
		}
		best := args[0]
		for _, a := range args[1:] {
			cmp, err := a.Compare(best)
			if err != nil {
				return storage.Null, err
			}
			if (c.Name == "LEAST" && cmp < 0) || (c.Name == "GREATEST" && cmp > 0) {
				best = a
			}
		}
		return best, nil
	default:
		return storage.Null, fmt.Errorf("sqlx: unknown function %s", c.Name)
	}
}

func arity(c Call, min, max int) error {
	if len(c.Args) < min || len(c.Args) > max {
		return fmt.Errorf("sqlx: %s takes %d..%d arguments, got %d", c.Name, min, max, len(c.Args))
	}
	return nil
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
// planner's typed spatial conjunct (conjunct.holds) share this definition;
// ST_DWITHIN's shared definition is geom.DWithin.
func stDistance(a, b geom.Geometry, m geom.Metric) float64 {
	pa, aPt := a.(geom.Point)
	pb, bPt := b.(geom.Point)
	if aPt && bPt {
		return m.Dist(pa, pb)
	}
	return geom.DistanceGeometries(a, b)
}

// metricArg reads the optional trailing metric name argument (a
// geom.ParseMetric spelling); Euclidean when absent. A constant one was
// parsed when the plan was bound.
func metricArg(c Call, args []storage.Value, idx int) (geom.Metric, error) {
	if len(args) <= idx {
		return geom.Euclidean, nil
	}
	if lit, ok := c.Args[idx].(metricLit); ok {
		return lit.m, nil
	}
	if args[idx].Kind != storage.KindString {
		return 0, fmt.Errorf("sqlx: %s metric argument must be a string", c.Name)
	}
	m, err := geom.ParseMetric(args[idx].S)
	if err != nil {
		return 0, fmt.Errorf("sqlx: %w", err)
	}
	return m, nil
}
