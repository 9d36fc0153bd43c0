package sqlx

import (
	"strings"

	"repro/internal/storage"
)

// Expr is a SQL expression node.
type Expr interface {
	// SQL renders the expression back to SQL text (for EXPLAIN and tests).
	SQL() string
}

// ColRef references a column, optionally qualified by a table alias.
type ColRef struct {
	Table string // alias; empty means unqualified
	Col   string
}

// SQL implements Expr.
func (c ColRef) SQL() string {
	if c.Table == "" {
		return c.Col
	}
	return c.Table + "." + c.Col
}

// Lit is a literal value.
type Lit struct {
	Val storage.Value
}

// SQL implements Expr.
func (l Lit) SQL() string {
	switch l.Val.Kind {
	case storage.KindString:
		return "'" + strings.ReplaceAll(l.Val.S, "'", "''") + "'"
	case storage.KindGeom:
		return "ST_GEOMFROMTEXT('" + l.Val.String() + "')"
	default:
		return l.Val.String()
	}
}

// Param is a named query parameter (:name), bound at execution time.
type Param struct {
	Name string
}

// SQL implements Expr.
func (p Param) SQL() string { return ":" + p.Name }

// BinOp enumerates binary operators.
type BinOp uint8

// Binary operators, in no particular precedence order (precedence is a
// parsing concern).
const (
	OpEq BinOp = iota
	OpNe
	OpLt
	OpLe
	OpGt
	OpGe
	OpAnd
	OpOr
	OpAdd
	OpSub
	OpMul
	OpDiv
)

var binOpNames = map[BinOp]string{
	OpEq: "=", OpNe: "<>", OpLt: "<", OpLe: "<=", OpGt: ">", OpGe: ">=",
	OpAnd: "AND", OpOr: "OR", OpAdd: "+", OpSub: "-", OpMul: "*", OpDiv: "/",
}

// Binary is a binary operation.
type Binary struct {
	Op   BinOp
	L, R Expr
}

// SQL implements Expr.
func (b Binary) SQL() string {
	return "(" + b.L.SQL() + " " + binOpNames[b.Op] + " " + b.R.SQL() + ")"
}

// Not negates a boolean expression.
type Not struct {
	E Expr
}

// SQL implements Expr.
func (n Not) SQL() string { return "(NOT " + n.E.SQL() + ")" }

// Neg is unary minus.
type Neg struct {
	E Expr
}

// SQL implements Expr.
func (n Neg) SQL() string { return "(-" + n.E.SQL() + ")" }

// Call is a function invocation, e.g. ST_DWITHIN(a.loc, b.loc, 150).
type Call struct {
	Name string // upper-cased at parse time
	Args []Expr
	// Star marks COUNT(*).
	Star bool
}

// SQL implements Expr.
func (c Call) SQL() string {
	if c.Star {
		return c.Name + "(*)"
	}
	parts := make([]string, len(c.Args))
	for i, a := range c.Args {
		parts[i] = a.SQL()
	}
	return c.Name + "(" + strings.Join(parts, ", ") + ")"
}

// SelectItem is one projection: an expression and an optional output alias.
type SelectItem struct {
	Expr  Expr
	Alias string // empty: derived from the expression
	Star  bool   // SELECT * (Expr nil)
}

// name is the item's output column name: its alias, else the bare column
// name of a plain reference, else the expression's SQL text.
func (it SelectItem) name() string {
	if it.Alias != "" {
		return it.Alias
	}
	if c, ok := it.Expr.(boundCol); ok {
		return c.Col
	}
	return it.Expr.SQL()
}

// TableRef names a FROM table with an optional alias.
type TableRef struct {
	Table string
	Alias string // defaults to Table
}

// EffectiveAlias returns the alias used to qualify the table's columns.
func (t TableRef) EffectiveAlias() string {
	if t.Alias != "" {
		return t.Alias
	}
	return t.Table
}

// OrderItem is one ORDER BY key.
type OrderItem struct {
	Expr Expr
	Desc bool
}

// SelectStmt is a parsed SELECT.
type SelectStmt struct {
	Distinct bool
	Items    []SelectItem
	From     []TableRef
	Where    Expr // nil when absent; JOIN ... ON conditions are folded in
	GroupBy  []Expr
	Having   Expr // nil when absent; evaluated per group after aggregation
	OrderBy  []OrderItem
	Limit    int // -1 when absent
}

// InsertStmt is INSERT INTO table [(cols)] SELECT ... .
type InsertStmt struct {
	Table  string
	Cols   []string // empty: positional
	Select *SelectStmt
}

// Stmt is a parsed statement: exactly one of the fields is set.
type Stmt struct {
	Select  *SelectStmt
	Insert  *InsertStmt
	Explain bool // EXPLAIN prefix: plan only, do not execute
}

// splitConjuncts flattens nested ANDs into a conjunct list.
func splitConjuncts(e Expr, acc []Expr) []Expr {
	if b, ok := e.(Binary); ok && b.Op == OpAnd {
		acc = splitConjuncts(b.L, acc)
		return splitConjuncts(b.R, acc)
	}
	return append(acc, e)
}

// conjoin rebuilds an AND chain from conjuncts; nil for an empty list.
func conjoin(es []Expr) Expr {
	if len(es) == 0 {
		return nil
	}
	out := es[0]
	for _, e := range es[1:] {
		out = Binary{Op: OpAnd, L: out, R: e}
	}
	return out
}

// exprAliases collects the table aliases referenced by an expression.
func exprAliases(e Expr, acc map[string]bool) {
	switch v := e.(type) {
	case ColRef:
		acc[strings.ToLower(v.Table)] = true
	case boundCol:
		acc[v.Table] = true // bindExpr stored the lower-cased alias
	case Binary:
		exprAliases(v.L, acc)
		exprAliases(v.R, acc)
	case Not:
		exprAliases(v.E, acc)
	case Neg:
		exprAliases(v.E, acc)
	case Call:
		for _, a := range v.Args {
			exprAliases(a, acc)
		}
	}
}

// aliasesOf returns the distinct aliases referenced by e. Unqualified column
// references contribute the empty string, which planners treat as "unknown".
func aliasesOf(e Expr) []string {
	acc := map[string]bool{}
	exprAliases(e, acc)
	out := make([]string, 0, len(acc))
	for a := range acc {
		out = append(out, a)
	}
	return out
}
