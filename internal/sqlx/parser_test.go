package sqlx

import (
	"math"
	"strings"
	"testing"

	"repro/internal/storage"
)

func mustParse(t *testing.T, sql string) *Stmt {
	t.Helper()
	stmt, err := Parse(sql)
	if err != nil {
		t.Fatalf("Parse(%q): %v", sql, err)
	}
	return stmt
}

func TestLexer(t *testing.T) {
	toks, err := lexAll("SELECT a.b, 'it''s', 1.5e-3, :p FROM t WHERE x <= 3 AND y <> 4")
	if err != nil {
		t.Fatal(err)
	}
	var kinds []tokenKind
	for _, tk := range toks {
		kinds = append(kinds, tk.kind)
	}
	if toks[len(toks)-1].kind != tokEOF {
		t.Error("missing EOF")
	}
	// Spot checks: SELECT(0) a(1) .(2) b(3).
	if toks[2].kind != tokDot {
		t.Errorf("token 2 = %v", toks[2])
	}
	var str, num, param string
	for _, tk := range toks {
		switch tk.kind {
		case tokString:
			str = tk.text
		case tokParam:
			param = tk.text
		case tokNumber:
			if strings.Contains(tk.text, "e") {
				num = tk.text
			}
		}
	}
	if str != "it's" {
		t.Errorf("string = %q", str)
	}
	if num != "1.5e-3" {
		t.Errorf("number = %q", num)
	}
	if param != "p" {
		t.Errorf("param = %q", param)
	}
}

func TestLexerErrors(t *testing.T) {
	for _, src := range []string{"'unterminated", ":", "!x", "#"} {
		if _, err := lexAll(src); err == nil {
			t.Errorf("lexAll(%q) should fail", src)
		}
	}
}

func TestParseSimpleSelect(t *testing.T) {
	sel := mustParse(t, "SELECT id, name FROM users WHERE id = 3")
	if len(sel.Items) != 2 || len(sel.From) != 1 {
		t.Fatalf("items=%d from=%d", len(sel.Items), len(sel.From))
	}
	if sel.From[0].Table != "users" || sel.From[0].EffectiveAlias() != "users" {
		t.Errorf("from = %+v", sel.From[0])
	}
	if len(sel.Where) != 1 {
		t.Errorf("where = %v", sel.Where)
	}
	// Table aliases follow the table name, comma-separated.
	sel = mustParse(t, "SELECT w1.id, w2.id FROM Well w1, Well w2 WHERE w1.id = w2.id AND w1.x < 5")
	if len(sel.From) != 2 || sel.From[0].Alias != "w1" || sel.From[1].Alias != "w2" {
		t.Errorf("from = %+v", sel.From)
	}
	if len(sel.Where) != 2 {
		t.Errorf("conjuncts = %d, want 2", len(sel.Where))
	}
}

func TestParseExpressionPrecedence(t *testing.T) {
	// AND separates conjuncts; a comparison binds its two operands, and a
	// call's arguments bind inside its parentheses.
	sel := mustParse(t, "SELECT 1 FROM t WHERE a = 1 AND ST_DISTANCE(a.g, b.g) < 2 AND (c >= d)")
	if len(sel.Where) != 3 {
		t.Fatalf("conjuncts = %d, want 3", len(sel.Where))
	}
	cmp, ok := sel.Where[1].(Binary)
	if !ok || cmp.Op != OpLt {
		t.Fatalf("conjunct 1 should be <, got %s", sel.Where[1].SQL())
	}
	if call, ok := cmp.L.(Call); !ok || call.Name != "ST_DISTANCE" {
		t.Fatalf("left of < should be ST_DISTANCE, got %s", cmp.L.SQL())
	}
}

// TestParseNotAndNeg: NOT is not in the grammar, and a minus sign negates
// only a number, folding into its literal.
func TestParseNotAndNeg(t *testing.T) {
	if _, err := Parse("SELECT 1 FROM t WHERE NOT a = -3"); err == nil || !strings.Contains(err.Error(), `"NOT"`) {
		t.Errorf("NOT: err = %v, want it to name NOT", err)
	}
	if _, err := Parse("SELECT 1 FROM t WHERE a = -b"); err == nil {
		t.Error("-b should fail")
	}
	sel := mustParse(t, "SELECT -3, - 2.5e3, -0 FROM t WHERE a = -9223372036854775808")
	for i, want := range []storage.Value{storage.Int(-3), storage.Float(-2500), storage.Int(0)} {
		if got := sel.Items[i]; got != (Lit{Val: want}) {
			t.Errorf("item %d = %#v, want %v", i, got, want)
		}
	}
	if got := sel.Where[0].(Binary).R; got != (Lit{Val: storage.Int(math.MinInt64)}) {
		t.Errorf("MinInt64 = %#v", got)
	}
}

func TestParseFunctionCalls(t *testing.T) {
	sel := mustParse(t, "SELECT st_distance(a.loc, b.loc, 'miles') FROM t a, t b WHERE ST_WITHIN(a.loc, ST_BUFFER(ST_UNION(:r, b.loc), 5))")
	call, ok := sel.Items[0].(Call)
	if !ok || call.Name != "ST_DISTANCE" || len(call.Args) != 3 {
		t.Fatalf("bad call: %+v", sel.Items[0])
	}
	w := sel.Where[0].(Call)
	if w.Name != "ST_WITHIN" || w.Args[1].(Call).Args[0].(Call).Name != "ST_UNION" {
		t.Errorf("where = %s", w.SQL())
	}
}

func TestParseLiterals(t *testing.T) {
	sel := mustParse(t, "SELECT true, false, null, 'it''s', 42, 2.5, -7, -0.25, 3.0 FROM t")
	vals := []storage.Value{
		storage.Bool(true), storage.Bool(false), storage.Null,
		storage.Str("it's"), storage.Int(42), storage.Float(2.5),
		storage.Int(-7), storage.Float(-0.25), storage.Float(3),
	}
	for i, want := range vals {
		lit, ok := sel.Items[i].(Lit)
		if !ok {
			t.Fatalf("item %d not literal: %T", i, sel.Items[i])
		}
		if !lit.Val.Equal(want) && !(lit.Val.IsNull() && want.IsNull()) {
			t.Errorf("item %d = %v, want %v", i, lit.Val, want)
		}
	}
}

func TestParseExplain(t *testing.T) {
	if !mustParse(t, "EXPLAIN SELECT 1 FROM t").Explain {
		t.Error("explain flag missing")
	}
	if mustParse(t, "SELECT 1 FROM t").Explain {
		t.Error("explain flag set without EXPLAIN")
	}
}

func TestParseParams(t *testing.T) {
	call := mustParse(t, "SELECT 1 FROM t WHERE ST_WITHIN(loc, :region)").Where[0].(Call)
	if p, ok := call.Args[1].(Param); !ok || p.Name != "region" {
		t.Errorf("param = %+v", call.Args[1])
	}
}

// TestParseErrors covers malformed input and every construct outside the
// grammar: each fails with an error naming the token it stopped at.
func TestParseErrors(t *testing.T) {
	bad := []struct{ sql, token string }{
		{"", "end of input"},
		{"DELETE FROM t", `"DELETE"`},
		{"SELECT", "end of input"},
		{"SELECT 1", "end of input"},      // missing FROM
		{"SELECT 1 FROM", "end of input"}, // missing table
		{"SELECT 1 FROM t t2 t3", `"t3"`},
		{"SELECT 1 FROM t WHERE", "end of input"},
		{"SELECT f(1, FROM t", `"f"`},
		{"SELECT ST_UNION(a, FROM t", `"FROM"`},
		{"SELECT ST_UNION(a,) FROM t", `")"`},
		{"SELECT (1 FROM t", `"FROM"`},
		{"SELECT a. FROM t", `"t"`}, // a column named FROM
		{"SELECT 1 FROM t extra garbage here", `"garbage"`},
		{"SELECT - a FROM t", `"a"`},
		{"SELECT 1.2.3 FROM t", `"1.2.3"`},
		// INSERT ... SELECT.
		{"INSERT INTO t SELECT 1 FROM u", `"INSERT"`},
		{"EXPLAIN INSERT INTO t SELECT 1 FROM u", `"INSERT"`},
		// GROUP BY, HAVING and the aggregates.
		{"SELECT a FROM t GROUP BY a", `"GROUP"`},
		{"SELECT a FROM t WHERE a = 1 HAVING a > 1", `"HAVING"`},
		{"SELECT COUNT(a) FROM t", `"COUNT"`},
		{"SELECT SUM(a) FROM t", `"SUM"`},
		{"SELECT AVG(a) FROM t", `"AVG"`},
		{"SELECT MIN(a) FROM t", `"MIN"`},
		{"SELECT MAX(a) FROM t", `"MAX"`},
		{"SELECT COUNT(*) FROM t", `"*"`},
		// DISTINCT, ORDER BY, LIMIT.
		{"SELECT DISTINCT a FROM t", `"DISTINCT"`},
		{"SELECT a FROM t ORDER BY a", `"ORDER"`},
		{"SELECT a FROM t LIMIT 1", `"LIMIT"`},
		// SELECT *, AS aliases, JOIN ... ON.
		{"SELECT * FROM t", `"*"`},
		{"SELECT a AS b FROM t", `"AS"`},
		{"SELECT a b FROM t", `"b"`},
		{"SELECT a FROM t AS u", `"AS"`},
		{"SELECT a FROM t JOIN u ON t.x = u.x", `"JOIN"`},
		{"SELECT a FROM t INNER JOIN u ON t.x = u.x", `"INNER"`},
		// OR, NOT, arithmetic.
		{"SELECT a FROM t WHERE a = 1 OR b = 2", `"OR"`},
		{"SELECT a FROM t WHERE NOT a = 1", `"NOT"`},
		{"SELECT a FROM t WHERE (a = 1 AND b = 2)", `"AND"`},
		{"SELECT a + 1 FROM t", `"+"`},
		{"SELECT a - 1 FROM t", `"-"`},
		{"SELECT a * 2 FROM t", `"*"`},
		{"SELECT a / 2 FROM t", `"/"`},
		{"SELECT -a FROM t", `"a"`},
		// ST_DWITHIN and the deleted scalar builtins.
		{"SELECT 1 FROM t a, t b WHERE ST_DWITHIN(a.loc, b.loc, 5)", `"ST_DWITHIN"`},
		{"SELECT ST_GEOMFROMTEXT('POINT (1 2)') FROM t", `"ST_GEOMFROMTEXT"`},
		{"SELECT ST_POINT(1, 2) FROM t", `"ST_POINT"`},
		{"SELECT ST_MAKEPOINT(1, 2) FROM t", `"ST_MAKEPOINT"`},
		{"SELECT ST_X(loc) FROM t", `"ST_X"`},
		{"SELECT ST_Y(loc) FROM t", `"ST_Y"`},
		{"SELECT ABS(a) FROM t", `"ABS"`},
		{"SELECT LEAST(a, 1) FROM t", `"LEAST"`},
		{"SELECT GREATEST(a, 1) FROM t", `"GREATEST"`},
		// Builtin arity.
		{"SELECT ST_DISTANCE(a) FROM t", "ST_DISTANCE takes 2..3 arguments, got 1"},
		{"SELECT ST_WITHIN(a, b, c) FROM t", "ST_WITHIN takes 2..2 arguments, got 3"},
	}
	for _, c := range bad {
		_, err := Parse(c.sql)
		if err == nil {
			t.Errorf("Parse(%q) should fail", c.sql)
		} else if !strings.Contains(err.Error(), c.token) {
			t.Errorf("Parse(%q) = %v, want it to name %s", c.sql, err, c.token)
		}
	}
}

func TestExprSQLRoundTrip(t *testing.T) {
	// SQL() output of a parsed conjunct re-parses to the same SQL.
	srcs := []string{
		"SELECT 1 FROM t WHERE (a = 1) >= (b < -2.5)",
		"SELECT 1 FROM t WHERE ST_DISTANCE(a.loc, b.loc, 'miles') <= 150",
		"SELECT 1 FROM t WHERE ST_CONTAINS(ST_BUFFER(:r, 2), ST_UNION(a.g, b.g))",
		"SELECT 1 FROM t WHERE x <> 1e21 AND y != NULL",
	}
	for _, src := range srcs {
		for _, w := range mustParse(t, src).Where {
			s1 := w.SQL()
			re := mustParse(t, "SELECT 1 FROM t WHERE "+s1).Where
			if len(re) != 1 || re[0].SQL() != s1 {
				t.Errorf("round trip:\n%s\n%v", s1, re)
			}
		}
	}
}
