// Package translate implements Sya's spatial rules–queries translator
// (paper Section IV-B, Fig. 5): it compiles the body of a DDlog derivation
// or inference rule into a SQL query over the storage database, mapping
// spatial predicates to their PostGIS-style function forms (distance →
// ST_DISTANCE, within → ST_WITHIN, ...). The heuristic
// re-ordering the paper describes — run range predicates before spatial
// joins — happens downstream in the sqlx planner, which pushes single-table
// predicates into scans and orders joins by filtered cardinality.
//
// The translator assigns one alias per body atom (b0, b1, ...), turns
// repeated variables into equality predicates (implicit equi-joins),
// constant terms into filters, and the bracketed condition list into WHERE
// conjuncts. The SELECT list carries, for every head atom, its term values
// (the variable-key columns the grounding module uses to look up ground
// atoms), plus the derivation label when present.
package translate

import (
	"fmt"
	"strings"

	"repro/internal/ddlog"
	"repro/internal/geom"
	"repro/internal/storage"
)

// Options configures translation.
type Options struct {
	// Metric is the distance metric for the distance predicate when a rule
	// does not name one explicitly; it is written into the SQL by its name.
	Metric geom.Metric
}

// Query is a translated rule body.
type Query struct {
	// SQL is the SELECT statement.
	SQL string
	// Params binds geometry and other non-literal constants.
	Params map[string]storage.Value
	// HeadWidths gives, per head atom, how many leading SELECT columns
	// belong to it (its term count). For derivations a final extra column
	// carries the label value.
	HeadWidths []int
	// HasLabel reports whether the last column is a derivation label.
	HasLabel bool
}

// translator tracks state while compiling one rule body.
type translator struct {
	prog    *ddlog.Program
	opts    Options
	selects []string
	from    []string
	where   []string
	params  map[string]storage.Value
	// binding maps (lower-cased) rule variables to their first source
	// column "bN.col".
	binding map[string]string
}

func newTranslator(prog *ddlog.Program, opts Options) *translator {
	return &translator{
		prog:    prog,
		opts:    opts,
		params:  map[string]storage.Value{},
		binding: map[string]string{},
	}
}

// bindBody sets up FROM aliases, variable bindings, implicit equality
// predicates and constant filters from the body atoms.
func (t *translator) bindBody(body []ddlog.Atom) error {
	for i, atom := range body {
		rel, ok := t.prog.Relation(atom.Rel)
		if !ok {
			return fmt.Errorf("translate: unknown relation %s", atom.Rel)
		}
		alias := fmt.Sprintf("b%d", i)
		t.from = append(t.from, fmt.Sprintf("%s %s", rel.Name, alias))
		for ci, term := range atom.Terms {
			col := fmt.Sprintf("%s.%s", alias, rel.Cols[ci].Name)
			switch term.Kind {
			case ddlog.TermWildcard:
				// no constraint
			case ddlog.TermConst:
				t.where = append(t.where, fmt.Sprintf("%s = %s", col, t.literal(term.Const)))
			case ddlog.TermVar:
				key := strings.ToLower(term.Var)
				if first, bound := t.binding[key]; bound {
					t.where = append(t.where, fmt.Sprintf("%s = %s", first, col))
				} else {
					t.binding[key] = col
				}
			}
		}
	}
	return nil
}

// literal renders a constant value as SQL, diverting geometries and strings
// with quotes into parameters.
func (t *translator) literal(v storage.Value) string {
	switch v.Kind {
	case storage.KindInt, storage.KindFloat:
		return v.String()
	case storage.KindBool:
		return v.String()
	case storage.KindNull:
		return "NULL"
	case storage.KindString:
		return "'" + strings.ReplaceAll(v.S, "'", "''") + "'"
	default:
		name := fmt.Sprintf("p%d", len(t.params))
		t.params[name] = v
		return ":" + name
	}
}

// condExprSQL renders a resolved condition expression.
func (t *translator) condExprSQL(e ddlog.CondExpr) (string, error) {
	if e.Kind == ddlog.CondTermExpr {
		switch e.Term.Kind {
		case ddlog.TermVar:
			col, ok := t.binding[strings.ToLower(e.Term.Var)]
			if !ok {
				return "", fmt.Errorf("translate: unbound variable %s in condition", e.Term.Var)
			}
			return col, nil
		case ddlog.TermConst:
			return t.literal(e.Term.Const), nil
		default:
			return "", fmt.Errorf("translate: wildcard in condition")
		}
	}
	args := make([]string, len(e.Args))
	for i, a := range e.Args {
		s, err := t.condExprSQL(a)
		if err != nil {
			return "", err
		}
		args[i] = s
	}
	switch e.Call {
	case "distance":
		if len(args) == 3 {
			// Explicit metric: distance(a, b, 'miles').
			return fmt.Sprintf("ST_DISTANCE(%s, %s, %s)", args[0], args[1], args[2]), nil
		}
		return fmt.Sprintf("ST_DISTANCE(%s, %s, '%s')", args[0], args[1], t.opts.Metric), nil
	case "within":
		// DDlog follows the paper's argument order within(container, x)
		// (Fig. 3: within(liberia_geom, L1) checks L1 is in Liberia); SQL
		// ST_WITHIN(a, b) is "a within b", so arguments swap.
		return fmt.Sprintf("ST_WITHIN(%s, %s)", args[1], args[0]), nil
	case "contains":
		return fmt.Sprintf("ST_CONTAINS(%s, %s)", args[0], args[1]), nil
	case "overlaps":
		return fmt.Sprintf("ST_OVERLAPS(%s, %s)", args[0], args[1]), nil
	case "intersects":
		return fmt.Sprintf("ST_INTERSECTS(%s, %s)", args[0], args[1]), nil
	case "buffer":
		return fmt.Sprintf("ST_BUFFER(%s, %s)", args[0], args[1]), nil
	case "union":
		return fmt.Sprintf("ST_UNION(%s, %s)", args[0], args[1]), nil
	default:
		return "", fmt.Errorf("translate: unknown predicate %s", e.Call)
	}
}

var condOpSQL = map[ddlog.CondOp]string{
	ddlog.CondEq: "=", ddlog.CondNe: "<>", ddlog.CondLt: "<",
	ddlog.CondLe: "<=", ddlog.CondGt: ">", ddlog.CondGe: ">=",
}

// addConds appends WHERE conjuncts for the rule conditions. A compared
// distance call becomes ST_DISTANCE(...) op d, which the sqlx planner
// recognizes and executes as an R-tree spatial join (for < and <=).
func (t *translator) addConds(conds []ddlog.Cond) error {
	for _, c := range conds {
		l, err := t.condExprSQL(c.L)
		if err != nil {
			return err
		}
		if c.Op == ddlog.CondTrue {
			t.where = append(t.where, l)
			continue
		}
		r, err := t.condExprSQL(c.R)
		if err != nil {
			return err
		}
		t.where = append(t.where, fmt.Sprintf("%s %s %s", l, condOpSQL[c.Op], r))
	}
	return nil
}

// selectTerm renders one head term as a projection.
func (t *translator) selectTerm(term ddlog.Term, what string) (string, error) {
	switch term.Kind {
	case ddlog.TermVar:
		col, ok := t.binding[strings.ToLower(term.Var)]
		if !ok {
			return "", fmt.Errorf("translate: %s variable %s not bound in body", what, term.Var)
		}
		return col, nil
	case ddlog.TermConst:
		return t.literal(term.Const), nil
	default:
		return "", fmt.Errorf("translate: wildcard in %s", what)
	}
}

func (t *translator) build() Query {
	var b strings.Builder
	b.WriteString("SELECT ")
	b.WriteString(strings.Join(t.selects, ", "))
	b.WriteString(" FROM ")
	b.WriteString(strings.Join(t.from, ", "))
	if len(t.where) > 0 {
		b.WriteString(" WHERE ")
		b.WriteString(strings.Join(t.where, " AND "))
	}
	return Query{SQL: b.String(), Params: t.params}
}

// Derivation translates a derivation rule: the SELECT yields the head terms
// followed by the label column.
func Derivation(prog *ddlog.Program, d *ddlog.DerivationRule, opts Options) (Query, error) {
	t := newTranslator(prog, opts)
	if err := t.bindBody(d.Body); err != nil {
		return Query{}, err
	}
	if err := t.addConds(d.Conds); err != nil {
		return Query{}, err
	}
	for _, term := range d.Head.Terms {
		s, err := t.selectTerm(term, "derivation head")
		if err != nil {
			return Query{}, err
		}
		t.selects = append(t.selects, s)
	}
	label, err := t.selectTerm(d.LabelTerm, "derivation label")
	if err != nil {
		return Query{}, err
	}
	t.selects = append(t.selects, label)
	q := t.build()
	q.HeadWidths = []int{len(d.Head.Terms)}
	q.HasLabel = true
	return q, nil
}

// Inference translates an inference rule: the SELECT yields the terms of
// every head atom in order (HeadWidths gives the split).
func Inference(prog *ddlog.Program, r *ddlog.InferenceRule, opts Options) (Query, error) {
	t := newTranslator(prog, opts)
	if err := t.bindBody(r.Body); err != nil {
		return Query{}, err
	}
	if err := t.addConds(r.Conds); err != nil {
		return Query{}, err
	}
	var widths []int
	for _, h := range r.Head {
		for _, term := range h.Atom.Terms {
			s, err := t.selectTerm(term, "inference head")
			if err != nil {
				return Query{}, err
			}
			t.selects = append(t.selects, s)
		}
		widths = append(widths, len(h.Atom.Terms))
	}
	q := t.build()
	q.HeadWidths = widths
	return q, nil
}

// App translates a function application body: the SELECT yields the
// function argument terms in order.
func App(prog *ddlog.Program, a *ddlog.FunctionApp, opts Options) (Query, error) {
	t := newTranslator(prog, opts)
	if err := t.bindBody(a.Body); err != nil {
		return Query{}, err
	}
	if err := t.addConds(a.Conds); err != nil {
		return Query{}, err
	}
	for _, term := range a.Args {
		s, err := t.selectTerm(term, "function argument")
		if err != nil {
			return Query{}, err
		}
		t.selects = append(t.selects, s)
	}
	q := t.build()
	q.HeadWidths = []int{len(a.Args)}
	return q, nil
}

// SchemaFor maps a DDlog relation declaration to a storage schema. Variable
// relations get an extra trailing __vid column holding the ground-atom ID,
// so later rules can join against materialized variable relations.
func SchemaFor(rel *ddlog.RelationDecl) storage.Schema {
	s := storage.Schema{Name: rel.Name}
	for _, c := range rel.Cols {
		s.Cols = append(s.Cols, storage.Column{
			Name:     c.Name,
			Kind:     c.Type.Kind,
			GeomType: c.Type.GeomType,
		})
	}
	if rel.IsVariable {
		s.Cols = append(s.Cols, storage.Column{Name: "__vid", Kind: storage.KindInt})
	}
	return s
}
