package sqlx

import (
	"strconv"
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

// Lit is a literal value: a number, a string, a boolean or NULL.
type Lit struct {
	Val storage.Value
}

// SQL implements Expr. A float renders with a decimal point or an exponent,
// so that it parses back as a float.
func (l Lit) SQL() string {
	switch l.Val.Kind {
	case storage.KindString:
		return "'" + strings.ReplaceAll(l.Val.S, "'", "''") + "'"
	case storage.KindFloat:
		s := strconv.FormatFloat(l.Val.F, 'g', -1, 64)
		if !strings.ContainsAny(s, ".e") {
			s += ".0"
		}
		return s
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

// BinOp enumerates the comparison operators.
type BinOp uint8

// Comparison operators.
const (
	OpEq BinOp = iota
	OpNe
	OpLt
	OpLe
	OpGt
	OpGe
)

var binOpNames = map[BinOp]string{
	OpEq: "=", OpNe: "<>", OpLt: "<", OpLe: "<=", OpGt: ">", OpGe: ">=",
}

// Binary is a comparison.
type Binary struct {
	Op   BinOp
	L, R Expr
}

// SQL implements Expr.
func (b Binary) SQL() string {
	return "(" + b.L.SQL() + " " + binOpNames[b.Op] + " " + b.R.SQL() + ")"
}

// Call is a builtin invocation, e.g. ST_DISTANCE(a.loc, b.loc, 'miles').
type Call struct {
	Name string // upper-cased at parse time
	Args []Expr
}

// SQL implements Expr.
func (c Call) SQL() string {
	parts := make([]string, len(c.Args))
	for i, a := range c.Args {
		parts[i] = a.SQL()
	}
	return c.Name + "(" + strings.Join(parts, ", ") + ")"
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

// Stmt is a parsed [EXPLAIN] SELECT items FROM tables [WHERE c1 AND c2 ...].
type Stmt struct {
	Explain bool // plan only, do not execute
	Items   []Expr
	From    []TableRef
	Where   []Expr // the AND-ed conjuncts; empty when absent
}

// exprAliases collects the table aliases referenced by a bound expression.
func exprAliases(e Expr, acc map[string]bool) {
	switch v := e.(type) {
	case boundCol:
		acc[v.Table] = true // bindExpr stored the lower-cased alias
	case Binary:
		exprAliases(v.L, acc)
		exprAliases(v.R, acc)
	case Call:
		for _, a := range v.Args {
			exprAliases(a, acc)
		}
	}
}

// aliasesOf returns the distinct aliases referenced by a bound expression.
func aliasesOf(e Expr) []string {
	acc := map[string]bool{}
	exprAliases(e, acc)
	out := make([]string, 0, len(acc))
	for a := range acc {
		out = append(out, a)
	}
	return out
}
