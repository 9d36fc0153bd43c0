// Package sqlx implements exactly the SQL that Sya's spatial rules–queries
// translator (internal/translate; paper Section IV-B, Fig. 5) writes: one
// conjunctive select–project–join query per rule body,
//
//	[EXPLAIN] SELECT item, ... FROM Table [alias], ... [WHERE c1 AND c2 ...]
//
// where each item and each conjunct is an expression: a column reference
// (alias.col or col), a literal (a number, optionally negative; a 'string',
// doubling a quote inside it; TRUE, FALSE, NULL), a :param, a builtin call,
// or a comparison of two expressions (= <> != < <= > >=, NULL comparing as
// SQL's unknown). The builtins, nested freely, are ST_DISTANCE(a, b
// [, metric]), ST_WITHIN, ST_CONTAINS, ST_OVERLAPS, ST_INTERSECTS,
// ST_BUFFER and ST_UNION. Anything else is a parse error naming the
// offending token.
//
// Queries execute against an internal/storage database; a heuristic planner
// pushes single-table predicates below joins and re-orders spatial range
// queries before spatial joins, reproducing the paper's grounding optimizer.
package sqlx

import "fmt"

// tokenKind enumerates lexical token classes.
type tokenKind uint8

const (
	tokEOF tokenKind = iota
	tokIdent
	tokNumber
	tokString
	tokParam // :name
	tokOp    // = < <= > >= <> != and the sign of a negative number
	tokComma
	tokLParen
	tokRParen
	tokDot
)

type token struct {
	kind tokenKind
	text string
	pos  int // byte offset, for error messages
}

func (t token) String() string {
	switch t.kind {
	case tokEOF:
		return "end of input"
	default:
		return fmt.Sprintf("%q", t.text)
	}
}

// lexer scans a SQL string into tokens.
type lexer struct {
	src string
	pos int
}

func isSpace(c byte) bool  { return c == ' ' || c == '\t' || c == '\n' || c == '\r' }
func isDigit(c byte) bool  { return c >= '0' && c <= '9' }
func isLetter(c byte) bool { return c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') }

func (l *lexer) next() (token, error) {
	for l.pos < len(l.src) && isSpace(l.src[l.pos]) {
		l.pos++
	}
	if l.pos >= len(l.src) {
		return token{kind: tokEOF, pos: l.pos}, nil
	}
	start := l.pos
	c := l.src[l.pos]
	switch {
	case isLetter(c):
		for l.pos < len(l.src) && (isLetter(l.src[l.pos]) || isDigit(l.src[l.pos])) {
			l.pos++
		}
		return token{kind: tokIdent, text: l.src[start:l.pos], pos: start}, nil
	case isDigit(c) || (c == '.' && l.pos+1 < len(l.src) && isDigit(l.src[l.pos+1])):
		l.pos++
		for l.pos < len(l.src) && (isDigit(l.src[l.pos]) || l.src[l.pos] == '.') {
			l.pos++
		}
		// Exponent part.
		if l.pos < len(l.src) && (l.src[l.pos] == 'e' || l.src[l.pos] == 'E') {
			mark := l.pos
			l.pos++
			if l.pos < len(l.src) && (l.src[l.pos] == '+' || l.src[l.pos] == '-') {
				l.pos++
			}
			if l.pos < len(l.src) && isDigit(l.src[l.pos]) {
				for l.pos < len(l.src) && isDigit(l.src[l.pos]) {
					l.pos++
				}
			} else {
				l.pos = mark
			}
		}
		return token{kind: tokNumber, text: l.src[start:l.pos], pos: start}, nil
	case c == '\'':
		l.pos++
		var buf []byte
		for l.pos < len(l.src) {
			if l.src[l.pos] == '\'' {
				// '' escapes a quote.
				if l.pos+1 < len(l.src) && l.src[l.pos+1] == '\'' {
					buf = append(buf, '\'')
					l.pos += 2
					continue
				}
				l.pos++
				return token{kind: tokString, text: string(buf), pos: start}, nil
			}
			buf = append(buf, l.src[l.pos])
			l.pos++
		}
		return token{}, fmt.Errorf("sqlx: unterminated string at offset %d", start)
	case c == ':':
		l.pos++
		if l.pos >= len(l.src) || !isLetter(l.src[l.pos]) {
			return token{}, fmt.Errorf("sqlx: bad parameter at offset %d", start)
		}
		for l.pos < len(l.src) && (isLetter(l.src[l.pos]) || isDigit(l.src[l.pos])) {
			l.pos++
		}
		return token{kind: tokParam, text: l.src[start+1 : l.pos], pos: start}, nil
	case c == ',':
		l.pos++
		return token{kind: tokComma, text: ",", pos: start}, nil
	case c == '(':
		l.pos++
		return token{kind: tokLParen, text: "(", pos: start}, nil
	case c == ')':
		l.pos++
		return token{kind: tokRParen, text: ")", pos: start}, nil
	case c == '.':
		l.pos++
		return token{kind: tokDot, text: ".", pos: start}, nil
	case c == '=' || c == '-':
		l.pos++
		return token{kind: tokOp, text: string(c), pos: start}, nil
	case c == '<':
		l.pos++
		if l.pos < len(l.src) && (l.src[l.pos] == '=' || l.src[l.pos] == '>') {
			l.pos++
		}
		return token{kind: tokOp, text: l.src[start:l.pos], pos: start}, nil
	case c == '>':
		l.pos++
		if l.pos < len(l.src) && l.src[l.pos] == '=' {
			l.pos++
		}
		return token{kind: tokOp, text: l.src[start:l.pos], pos: start}, nil
	case c == '!':
		l.pos++
		if l.pos < len(l.src) && l.src[l.pos] == '=' {
			l.pos++
			return token{kind: tokOp, text: "!=", pos: start}, nil
		}
		return token{}, fmt.Errorf("sqlx: unexpected '!' at offset %d", start)
	default:
		return token{}, fmt.Errorf("sqlx: unexpected character %q at offset %d", string(c), start)
	}
}

// lexAll scans the whole input.
func lexAll(src string) ([]token, error) {
	l := &lexer{src: src}
	var out []token
	for {
		t, err := l.next()
		if err != nil {
			return nil, err
		}
		out = append(out, t)
		if t.kind == tokEOF {
			return out, nil
		}
	}
}
