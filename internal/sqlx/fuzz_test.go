package sqlx

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/datagen"
	"repro/internal/ddlog"
	"repro/internal/deepdive"
	"repro/internal/geom"
	"repro/internal/storage"
	"repro/internal/translate"
)

// This file cross-checks the planner/executor against a naive reference
// evaluator (cross product + every conjunct + projection) on hundreds of
// randomly generated queries. Any divergence between the heuristic join
// ordering, index-assisted spatial joins, or predicate pushdown and the
// obvious semantics fails the test. FuzzParse holds the parser to its
// round trip on the SQL translate writes and on anything a fuzzer mutates
// from it.

// fuzzDB builds random tables A, B, C of minRows..maxRows rows with ints,
// floats and points. Keys, values and locations are each occasionally NULL,
// and every other table sits on a grid of pitch 5, so that distances often
// land exactly on the radii randomSpatial draws (multiples of 5) and < and
// <= tell apart.
func fuzzDB(t *testing.T, rng *rand.Rand, minRows, maxRows int) *storage.DB {
	t.Helper()
	db := storage.NewDB()
	for _, name := range []string{"A", "B", "C"} {
		tbl, err := db.Create(storage.Schema{
			Name: name,
			Cols: []storage.Column{
				{Name: "id", Kind: storage.KindInt},
				{Name: "k", Kind: storage.KindInt},
				{Name: "v", Kind: storage.KindFloat},
				{Name: "loc", Kind: storage.KindGeom, GeomType: geom.TypePoint},
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		n := minRows + rng.Intn(maxRows-minRows+1)
		grid := rng.Intn(2) == 0
		for i := 0; i < n; i++ {
			loc := geom.Pt(rng.Float64()*50, rng.Float64()*50)
			if grid {
				loc = geom.Pt(float64(5*rng.Intn(11)), float64(5*rng.Intn(11)))
			}
			row := storage.Row{
				storage.Int(int64(i)),
				storage.Int(int64(rng.Intn(4))),
				storage.Float(float64(rng.Intn(100)) / 10),
				storage.Geom(loc),
			}
			for _, col := range []int{1, 2, 3} {
				if rng.Intn(12) == 0 {
					row[col] = storage.Null // occasional NULL key, value, geometry
				}
			}
			if err := tbl.Append(row); err != nil {
				t.Fatal(err)
			}
		}
	}
	return db
}

// randomSpatial renders a distance conjunct between two aliases in one of
// the shapes the planner classifies, ST_DISTANCE < or <=, with no metric
// argument, the Euclidean one, or miles (the coordinates then read as
// degrees, a degree being some 69 miles).
func randomSpatial(rng *rand.Rand, a, b string) string {
	r := 5 * (1 + rng.Intn(7))
	metric := ""
	switch rng.Intn(3) {
	case 1:
		metric = ", 'euclidean'"
	case 2:
		metric = ", 'miles'"
		r *= 69
	}
	op := "<"
	if rng.Intn(2) == 0 {
		op = "<="
	}
	return fmt.Sprintf("ST_DISTANCE(%s.loc, %s.loc%s) %s %d", a, b, metric, op, r)
}

// randomQuery builds a random SELECT over nt tables with mixed predicates,
// and the parameters it binds (the ST_WITHIN windows).
func randomQuery(rng *rand.Rand, nt int) (string, map[string]storage.Value) {
	tables := []string{"A", "B", "C"}
	var from, aliases []string
	for i := 0; i < nt; i++ {
		alias := fmt.Sprintf("t%d", i)
		from = append(from, tables[rng.Intn(len(tables))]+" "+alias)
		aliases = append(aliases, alias)
	}
	var conds []string
	params := map[string]storage.Value{}
	pick := func() string { return aliases[rng.Intn(len(aliases))] }
	// pair draws two distinct aliases, when the query has them.
	pair := func() (string, string, bool) {
		a, b := pick(), pick()
		return a, b, a != b
	}
	// 0–4 random conjuncts (the last two cases add two each).
	for i := 0; i < rng.Intn(5); i++ {
		switch rng.Intn(10) {
		case 0:
			conds = append(conds, fmt.Sprintf("%s.k = %d", pick(), rng.Intn(4)))
		case 1:
			conds = append(conds, fmt.Sprintf("%s.v < %d.5", pick(), rng.Intn(10)))
		case 2:
			if a, b, ok := pair(); ok {
				conds = append(conds, fmt.Sprintf("%s.k = %s.k", a, b))
			}
		case 3:
			if a, b, ok := pair(); ok {
				conds = append(conds, fmt.Sprintf("ST_DISTANCE(%s.loc, %s.loc) <= %d", a, b, 5+rng.Intn(30)))
			}
		case 4:
			name := fmt.Sprintf("w%d", len(params))
			conds = append(conds, fmt.Sprintf("ST_WITHIN(%s.loc, :%s)", pick(), name))
			window, err := geom.ParseWKT(fmt.Sprintf("POLYGON((0 0, %d 0, %d %d, 0 %d))",
				10+rng.Intn(40), 10+rng.Intn(40), 10+rng.Intn(40), 10+rng.Intn(40)))
			if err != nil {
				panic(err)
			}
			params[name] = storage.Geom(window)
		case 5:
			if a, b, ok := pair(); ok {
				conds = append(conds, fmt.Sprintf("ST_DISTANCE(%s.loc, %s.loc) < %d", a, b, 5+rng.Intn(30)))
			}
		case 6, 7, 8:
			// An equi and a distance conjunct on the same pair of aliases:
			// whichever the planner makes the access path, the other is
			// fused into its probe loop (the GWDB R10 shape).
			if a, b, ok := pair(); ok {
				conds = append(conds, fmt.Sprintf("%s.k = %s.k", a, b), randomSpatial(rng, a, b))
			}
		case 9:
			// A distance band: one classified conjunct, one theta co-filter
			// (the Fig. 10 step-rule shape).
			if a, b, ok := pair(); ok {
				lo := 3 + rng.Intn(10)
				conds = append(conds,
					fmt.Sprintf("ST_DISTANCE(%s.loc, %s.loc) < %d", a, b, lo+5+rng.Intn(20)),
					fmt.Sprintf("ST_DISTANCE(%s.loc, %s.loc) >= %d", a, b, lo))
			}
		}
	}
	var sel []string
	for _, a := range aliases {
		sel = append(sel, a+".id", a+".k")
	}
	q := "SELECT " + strings.Join(sel, ", ") + " FROM " + strings.Join(from, ", ")
	if len(conds) > 0 {
		q += " WHERE " + strings.Join(conds, " AND ")
	}
	return q, params
}

// naiveEval evaluates a parsed SELECT by brute force: every tuple of the
// cross product, bound by bindExpr, that passes every conjunct.
func naiveEval(t *testing.T, db *storage.DB, stmt *Stmt, params map[string]storage.Value) []string {
	t.Helper()
	nodes := make([]*scanNode, len(stmt.From))
	for i, ref := range stmt.From {
		tbl, err := db.Table(ref.Table)
		if err != nil {
			t.Fatal(err)
		}
		nodes[i] = &scanNode{ref: ref, alias: strings.ToLower(ref.EffectiveAlias()), slot: i, tbl: tbl}
	}
	where, err := bindAll(stmt.Where, nodes, params)
	if err != nil {
		t.Fatalf("naive bind: %v", err)
	}
	items, err := bindAll(stmt.Items, nodes, params)
	if err != nil {
		t.Fatalf("naive bind: %v", err)
	}
	ev := &env{rows: make([]storage.Row, len(nodes)), params: params}
	var out []string
	var walk func(i int)
	walk = func(i int) {
		if i == len(nodes) {
			for _, c := range where {
				ok, err := ev.evalBool(c)
				if err != nil {
					t.Fatalf("naive where: %v", err)
				}
				if !ok {
					return
				}
			}
			var cells []string
			for _, item := range items {
				v, err := ev.eval(item)
				if err != nil {
					t.Fatalf("naive projection: %v", err)
				}
				cells = append(cells, v.Kind.String()+":"+v.String())
			}
			out = append(out, strings.Join(cells, "|"))
			return
		}
		nodes[i].tbl.Scan(func(_ int, r storage.Row) bool {
			ev.rows[i] = r
			walk(i + 1)
			return true
		})
	}
	walk(0)
	sort.Strings(out)
	return out
}

// engineRows runs q at the given worker count and renders the rows in the
// order the engine returned them.
func engineRows(t *testing.T, db *storage.DB, q string, params map[string]storage.Value, workers int) []string {
	t.Helper()
	e := NewEngine(db)
	e.SetParallelism(workers, nil)
	res, err := e.Exec(q, params)
	if err != nil {
		t.Fatalf("engine %q: %v", q, err)
	}
	var out []string
	for _, r := range res.Rows {
		var cells []string
		for _, v := range r {
			cells = append(cells, v.Kind.String()+":"+v.String())
		}
		out = append(out, strings.Join(cells, "|"))
	}
	return out
}

// diffRows fails the test at the first row where got and want differ.
func diffRows(t *testing.T, trial int, q, gotName string, got []string, wantName string, want []string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("trial %d: %q\n%s %d rows, %s %d rows", trial, q, gotName, len(got), wantName, len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("trial %d: %q\nrow %d: %s %q vs %s %q", trial, q, i, gotName, got[i], wantName, want[i])
		}
	}
}

func TestPlannerMatchesNaiveEvaluator(t *testing.T) {
	rng := rand.New(rand.NewSource(12345))
	for trial := 0; trial < 400; trial++ {
		db := fuzzDB(t, rng, 5, 24)
		q, params := randomQuery(rng, 1+rng.Intn(3))
		stmt, err := Parse(q)
		if err != nil {
			t.Fatalf("trial %d: Parse(%q): %v", trial, q, err)
		}
		want := naiveEval(t, db, stmt, params)
		got := engineRows(t, db, q, params, 1)
		sort.Strings(got)
		diffRows(t, trial, q, "engine", got, "naive", want)
	}
}

// TestShardedProbeMatchesNaiveEvaluator is the same oracle on tables large
// enough to cross probeParallelMin, where the small-table family never gets:
// two-table queries (the naive cross product is quadratic) run at one and
// three workers must return the naive multiset, in the same row order for
// both worker counts.
func TestShardedProbeMatchesNaiveEvaluator(t *testing.T) {
	rng := rand.New(rand.NewSource(2718))
	for trial := 0; trial < 16; trial++ {
		db := fuzzDB(t, rng, 150, 300)
		q, params := randomQuery(rng, 2)
		stmt, err := Parse(q)
		if err != nil {
			t.Fatalf("trial %d: Parse(%q): %v", trial, q, err)
		}
		seq := engineRows(t, db, q, params, 1)
		diffRows(t, trial, q, "workers=3", engineRows(t, db, q, params, 3), "workers=1", seq)
		sort.Strings(seq)
		diffRows(t, trial, q, "engine", seq, "naive", naiveEval(t, db, stmt, params))
	}
}

// FuzzParse holds the parser to two properties on any input: it returns
// instead of panicking, and a statement it accepts renders back, through
// Expr.SQL, to text that parses to an equal AST. The seeds are the SQL
// translate writes for every rule of the GWDB, GWDB-categorical, NYCCAS and
// EbolaKB programs and of Fig. 10's step rules, plus randomQuery's shapes.
func FuzzParse(f *testing.F) {
	for _, q := range translatedRules(f) {
		f.Add(q)
		f.Add("EXPLAIN " + q)
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 32; i++ {
		q, _ := randomQuery(rng, 1+rng.Intn(3))
		f.Add(q)
	}
	f.Fuzz(func(t *testing.T, src string) {
		stmt, err := Parse(src)
		if err != nil {
			return
		}
		text := renderStmt(stmt)
		again, err := Parse(text)
		if err != nil {
			t.Fatalf("Parse(%q) accepted, its rendering %q fails: %v", src, text, err)
		}
		if !reflect.DeepEqual(stmt, again) {
			t.Fatalf("Parse(%q) = %#v\nrendered %q parses to %#v", src, stmt, text, again)
		}
	})
}

// renderStmt writes a statement back as SQL from its parts' Expr.SQL.
func renderStmt(s *Stmt) string {
	var b strings.Builder
	if s.Explain {
		b.WriteString("EXPLAIN ")
	}
	b.WriteString("SELECT ")
	for i, it := range s.Items {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(it.SQL())
	}
	b.WriteString(" FROM ")
	for i, ref := range s.From {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(strings.TrimSpace(ref.Table + " " + ref.Alias))
	}
	for i, w := range s.Where {
		if i == 0 {
			b.WriteString(" WHERE ")
		} else {
			b.WriteString(" AND ")
		}
		b.WriteString(w.SQL())
	}
	return b.String()
}

// translatedRules returns the SQL translate writes for every derivation,
// inference rule and function application of the benchmark programs, and of
// GWDB with its proximity rule R11 expanded into Fig. 10's step rules.
func translatedRules(tb testing.TB) []string {
	tb.Helper()
	parse := func(src string) *ddlog.Program {
		p, err := ddlog.ParseAndValidate(src)
		if err != nil {
			tb.Fatal(err)
		}
		return p
	}
	progs := []*ddlog.Program{
		parse(datagen.GWDBProgram), parse(datagen.GWDBCategoricalProgram),
		parse(datagen.NYCCASProgram), parse(datagen.EbolaProgram),
	}
	steps, err := deepdive.ExpandStepRules(progs[0], "R11", 10, 300, 1)
	if err != nil {
		tb.Fatal(err)
	}
	progs = append(progs, steps)
	var out []string
	add := func(q translate.Query, err error) {
		if err != nil {
			tb.Fatal(err)
		}
		out = append(out, q.SQL)
	}
	opts := translate.Options{Metric: geom.Euclidean}
	for _, p := range progs {
		for _, d := range p.Derivations {
			add(translate.Derivation(p, d, opts))
		}
		for _, r := range p.Rules {
			add(translate.Inference(p, r, opts))
		}
		for _, a := range p.Apps {
			add(translate.App(p, a, opts))
		}
	}
	return out
}
