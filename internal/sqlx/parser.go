package sqlx

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/storage"
)

// Parse parses one SQL statement from src.
func Parse(src string) (*Stmt, error) {
	toks, err := lexAll(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	stmt, err := p.parseStmt()
	if err != nil {
		return nil, err
	}
	if !p.at(tokEOF) {
		return nil, fmt.Errorf("sqlx: trailing input at %s", p.peek())
	}
	return stmt, nil
}

type parser struct {
	toks []token
	i    int
}

func (p *parser) peek() token { return p.toks[p.i] }

func (p *parser) at(k tokenKind) bool { return p.peek().kind == k }

// atKeyword reports whether the current token is the given keyword
// (case-insensitive).
func (p *parser) atKeyword(kw string) bool {
	t := p.peek()
	return t.kind == tokIdent && strings.EqualFold(t.text, kw)
}

func (p *parser) advance() token {
	t := p.toks[p.i]
	if t.kind != tokEOF {
		p.i++
	}
	return t
}

func (p *parser) expectKeyword(kw string) error {
	if !p.atKeyword(kw) {
		return fmt.Errorf("sqlx: expected %s, got %s", strings.ToUpper(kw), p.peek())
	}
	p.advance()
	return nil
}

func (p *parser) expect(k tokenKind, what string) (token, error) {
	if !p.at(k) {
		return token{}, fmt.Errorf("sqlx: expected %s, got %s", what, p.peek())
	}
	return p.advance(), nil
}

// reserved keywords are neither table aliases nor unqualified column names,
// so SQL this package does not implement (JOIN, ORDER BY, DISTINCT, ...)
// fails at its keyword.
var reserved = map[string]bool{
	"select": true, "from": true, "where": true, "and": true, "or": true,
	"not": true, "join": true, "inner": true, "on": true, "insert": true,
	"as": true, "order": true, "group": true, "having": true, "limit": true,
	"distinct": true, "explain": true, "true": true, "false": true, "null": true,
}

func (p *parser) reservedNext() bool {
	return p.at(tokIdent) && reserved[strings.ToLower(p.peek().text)]
}

func (p *parser) parseStmt() (*Stmt, error) {
	stmt := &Stmt{}
	if p.atKeyword("explain") {
		p.advance()
		stmt.Explain = true
	}
	if err := p.expectKeyword("select"); err != nil {
		return nil, err
	}
	for {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		stmt.Items = append(stmt.Items, e)
		if !p.at(tokComma) {
			break
		}
		p.advance()
	}
	if err := p.expectKeyword("from"); err != nil {
		return nil, err
	}
	for {
		name, err := p.expect(tokIdent, "table name")
		if err != nil {
			return nil, err
		}
		ref := TableRef{Table: name.text}
		if p.at(tokIdent) && !p.reservedNext() {
			ref.Alias = p.advance().text
		}
		stmt.From = append(stmt.From, ref)
		if !p.at(tokComma) {
			break
		}
		p.advance()
	}
	if p.atKeyword("where") {
		p.advance()
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			stmt.Where = append(stmt.Where, e)
			if !p.atKeyword("and") {
				break
			}
			p.advance()
		}
	}
	return stmt, nil
}

var compOps = map[string]BinOp{
	"=": OpEq, "<>": OpNe, "!=": OpNe, "<": OpLt, "<=": OpLe, ">": OpGt, ">=": OpGe,
}

// parseExpr parses an operand, optionally compared with a second one.
func (p *parser) parseExpr() (Expr, error) {
	l, err := p.parsePrimary()
	if err != nil {
		return nil, err
	}
	if op, ok := compOps[p.peek().text]; ok && p.at(tokOp) {
		p.advance()
		r, err := p.parsePrimary()
		if err != nil {
			return nil, err
		}
		return Binary{Op: op, L: l, R: r}, nil
	}
	return l, nil
}

// builtinArity is each builtin's [min, max] argument count.
var builtinArity = map[string][2]int{
	"ST_DISTANCE": {2, 3}, "ST_WITHIN": {2, 2}, "ST_CONTAINS": {2, 2},
	"ST_OVERLAPS": {2, 2}, "ST_INTERSECTS": {2, 2}, "ST_BUFFER": {2, 2},
	"ST_UNION": {2, 2},
}

func (p *parser) parsePrimary() (Expr, error) {
	t := p.peek()
	switch {
	case t.kind == tokNumber:
		p.advance()
		return parseNumber(t.text)
	case t.kind == tokOp && t.text == "-":
		// A negative number: the sign folds into the literal.
		p.advance()
		n, err := p.expect(tokNumber, "number after '-'")
		if err != nil {
			return nil, err
		}
		return parseNumber("-" + n.text)
	case t.kind == tokString:
		p.advance()
		return Lit{Val: storage.Str(t.text)}, nil
	case t.kind == tokParam:
		p.advance()
		return Param{Name: t.text}, nil
	case t.kind == tokLParen:
		p.advance()
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokRParen, ")"); err != nil {
			return nil, err
		}
		return e, nil
	case p.atKeyword("true"):
		p.advance()
		return Lit{Val: storage.Bool(true)}, nil
	case p.atKeyword("false"):
		p.advance()
		return Lit{Val: storage.Bool(false)}, nil
	case p.atKeyword("null"):
		p.advance()
		return Lit{Val: storage.Null}, nil
	case t.kind != tokIdent || p.reservedNext():
		return nil, fmt.Errorf("sqlx: unexpected %s in expression", t)
	}
	p.advance()
	switch {
	case p.at(tokLParen):
		return p.parseCall(t)
	case p.at(tokDot):
		p.advance()
		col, err := p.expect(tokIdent, "column name")
		if err != nil {
			return nil, err
		}
		return ColRef{Table: t.text, Col: col.text}, nil
	default:
		return ColRef{Col: t.text}, nil
	}
}

// parseCall parses a builtin's argument list; name is the token before "(".
func (p *parser) parseCall(name token) (Expr, error) {
	call := Call{Name: strings.ToUpper(name.text)}
	arity, ok := builtinArity[call.Name]
	if !ok {
		return nil, fmt.Errorf("sqlx: unknown function %s", name)
	}
	p.advance() // (
	for !p.at(tokRParen) {
		arg, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		call.Args = append(call.Args, arg)
		if !p.at(tokComma) {
			break
		}
		if p.advance(); p.at(tokRParen) { // f(a,)
			return nil, fmt.Errorf("sqlx: unexpected %s in expression", p.peek())
		}
	}
	if _, err := p.expect(tokRParen, ")"); err != nil {
		return nil, err
	}
	if n := len(call.Args); n < arity[0] || n > arity[1] {
		return nil, fmt.Errorf("sqlx: %s takes %d..%d arguments, got %d", call.Name, arity[0], arity[1], n)
	}
	return call, nil
}

// parseNumber reads an integer literal as an Int unless it overflows int64,
// anything else as a Float.
func parseNumber(text string) (Expr, error) {
	if !strings.ContainsAny(text, ".eE") {
		if i, err := strconv.ParseInt(text, 10, 64); err == nil {
			return Lit{Val: storage.Int(i)}, nil
		}
	}
	f, err := strconv.ParseFloat(text, 64)
	if err != nil {
		return nil, fmt.Errorf("sqlx: bad number %q: %w", text, err)
	}
	return Lit{Val: storage.Float(f)}, nil
}
