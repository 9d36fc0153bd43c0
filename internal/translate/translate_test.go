package translate

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/ddlog"
	"repro/internal/geom"
	"repro/internal/sqlx"
	"repro/internal/storage"
)

const ebolaProgram = `
const liberia_geom = 'POLYGON((-12 4, -7 4, -7 9, -12 9))'.
S1: County (id bigint, location point, hasLowSanitation bool).
@spatial(exp)
S2: HasEbola? (id bigint, location point).
D1: HasEbola(C1, L1) = NULL :- County(C1, L1, _).
R1: @weight(0.35)
HasEbola(C1, L1) => HasEbola(C2, L2) :-
    County(C1, L1, _), County(C2, L2, S2)
    [distance(L1, L2) < 150, within(liberia_geom, L1), S2 = true].
`

func compile(t *testing.T, src string) *ddlog.Program {
	t.Helper()
	p, err := ddlog.ParseAndValidate(src)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestDerivationSQL(t *testing.T) {
	p := compile(t, ebolaProgram)
	q, err := Derivation(p, p.Derivations[0], Options{Metric: geom.HaversineMiles})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(q.SQL, "SELECT b0.id, b0.location, NULL FROM County b0") {
		t.Errorf("SQL = %s", q.SQL)
	}
	if !q.HasLabel || len(q.HeadWidths) != 1 || q.HeadWidths[0] != 2 {
		t.Errorf("meta = %+v", q)
	}
	// Must parse in the SQL engine.
	if _, err := sqlx.Parse(q.SQL); err != nil {
		t.Errorf("generated SQL does not parse: %v", err)
	}
}

func TestInferenceSQLFig5Shape(t *testing.T) {
	// The translated R1 must contain a spatial join predicate (distance →
	// ST_DISTANCE comparison), a range predicate (within → ST_WITHIN with
	// swapped arguments), and the scalar filter.
	p := compile(t, ebolaProgram)
	q, err := Inference(p, p.Rules[0], Options{Metric: geom.HaversineMiles})
	if err != nil {
		t.Fatal(err)
	}
	sql := q.SQL
	for _, want := range []string{
		"FROM County b0, County b1",
		"ST_DISTANCE(b0.location, b1.location, 'miles') < 150",
		"ST_WITHIN(b0.location, :p0)",
		"b1.hasLowSanitation = true",
	} {
		if !strings.Contains(sql, want) {
			t.Errorf("SQL missing %q:\n%s", want, sql)
		}
	}
	if len(q.HeadWidths) != 2 || q.HeadWidths[0] != 2 || q.HeadWidths[1] != 2 {
		t.Errorf("head widths = %v", q.HeadWidths)
	}
	if g, ok := q.Params["p0"]; !ok || g.Kind != storage.KindGeom {
		t.Errorf("region param = %+v", q.Params)
	}
	if _, err := sqlx.Parse(sql); err != nil {
		t.Errorf("generated SQL does not parse: %v", err)
	}
}

func TestInferenceSQLExecutesWithPlannerReordering(t *testing.T) {
	// End-to-end: translated SQL runs on the engine, and EXPLAIN shows the
	// range filter pushed into a scan before the spatial join (the paper's
	// Fig. 5 re-ordering).
	p := compile(t, ebolaProgram)
	q, err := Inference(p, p.Rules[0], Options{Metric: geom.HaversineMiles})
	if err != nil {
		t.Fatal(err)
	}
	db := storage.NewDB()
	county, err := db.Create(SchemaFor(mustRel(t, p, "County")))
	if err != nil {
		t.Fatal(err)
	}
	rows := []storage.Row{
		{storage.Int(1), storage.Geom(geom.Pt(-10.80, 6.32)), storage.Bool(true)},
		{storage.Int(2), storage.Geom(geom.Pt(-10.45, 6.55)), storage.Bool(true)},
		{storage.Int(3), storage.Geom(geom.Pt(-9.45, 7.05)), storage.Bool(true)},
		{storage.Int(4), storage.Geom(geom.Pt(-8.90, 7.60)), storage.Bool(false)},
		{storage.Int(5), storage.Geom(geom.Pt(20, 50)), storage.Bool(true)}, // outside Liberia
	}
	if err := county.AppendAll(rows); err != nil {
		t.Fatal(err)
	}
	eng := sqlx.NewEngine(db)
	res, err := eng.Exec(q.SQL, q.Params)
	if err != nil {
		t.Fatal(err)
	}
	// Pairs (C1, C2): C1 within Liberia, C2 has sanitation=true, within
	// 150 miles. County 5 excluded (outside region and far); county 4 can
	// appear as C1 only against C3 (~64mi) — sanitation rules C2 to
	// {1,2,3}; county 4 never as C2.
	for _, r := range res.Rows {
		c2, _ := r[2].AsInt()
		if c2 == 4 || c2 == 5 {
			t.Errorf("row %v violates predicates", r)
		}
	}
	if len(res.Rows) == 0 {
		t.Fatal("no groundings produced")
	}
	expl, err := eng.Exec("EXPLAIN "+q.SQL, q.Params)
	if err != nil {
		t.Fatal(err)
	}
	first := expl.Rows[0][0].S
	if !strings.HasPrefix(first, "scan") || !strings.Contains(first, "ST_WITHIN") {
		t.Errorf("range predicate not pushed first: %q", first)
	}
}

func mustRel(t *testing.T, p *ddlog.Program, name string) *ddlog.RelationDecl {
	t.Helper()
	r, ok := p.Relation(name)
	if !ok {
		t.Fatalf("no relation %s", name)
	}
	return r
}

func TestRepeatedVariablesBecomeEquiJoin(t *testing.T) {
	p := compile(t, `
A (id bigint, k bigint).
B (k bigint, v double).
V? (id bigint).
D: V(I) = NULL :- A(I, K), B(K, _).
`)
	q, err := Derivation(p, p.Derivations[0], Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(q.SQL, "b0.k = b1.k") {
		t.Errorf("missing equi-join: %s", q.SQL)
	}
}

func TestConstantTermsBecomeFilters(t *testing.T) {
	p := compile(t, `
A (id bigint, tag text, on bool).
V? (id bigint).
D: V(I) = NULL :- A(I, 'x', true).
`)
	q, err := Derivation(p, p.Derivations[0], Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(q.SQL, "b0.tag = 'x'") || !strings.Contains(q.SQL, "b0.on = true") {
		t.Errorf("missing const filters: %s", q.SQL)
	}
}

func TestLabelVariableSelected(t *testing.T) {
	p := compile(t, `
Obs (id bigint, safe bool).
V? (id bigint).
D: V(I) = S :- Obs(I, S).
`)
	q, err := Derivation(p, p.Derivations[0], Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasSuffix(q.SQL, "SELECT b0.id, b0.safe FROM Obs b0") && !strings.Contains(q.SQL, "b0.safe FROM") {
		t.Errorf("label column missing: %s", q.SQL)
	}
}

func TestExplicitMetricOverride(t *testing.T) {
	p := compile(t, `
A (id bigint, location point).
V? (id bigint, location point).
D: V(I, L) = NULL :- A(I, L).
R: @weight(1) V(I1, L1) => V(I2, L2) :- A(I1, L1), A(I2, L2) [distance(L1, L2, 'km') < 10].
`)
	q, err := Inference(p, p.Rules[0], Options{Metric: geom.HaversineMiles})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(q.SQL, "'km'") {
		t.Errorf("explicit metric lost: %s", q.SQL)
	}
}

// TestMetricNamesRoundTripThroughSQL: for every metric, the name translate
// writes into ST_DISTANCE reads back in sqlx as the same metric, and so does
// every SQL alias of it, so no program's distance predicates change meaning.
// The threshold sits just above, then just below, the pair's distance under
// the metric, which no other metric's distance falls between.
func TestMetricNamesRoundTripThroughSQL(t *testing.T) {
	a, b := geom.Pt(-10.80, 6.32), geom.Pt(-9.45, 7.05)
	aliases := map[geom.Metric][]string{
		geom.Euclidean:      {"", "euclidean", "EUCLIDEAN"},
		geom.HaversineMiles: {"miles", "Miles", "haversine_miles"},
		geom.HaversineKm:    {"km", "haversine_km", "HAVERSINE_KM"},
	}
	for m, names := range aliases {
		for _, scale := range []float64{1 + 1e-6, 1 - 1e-6} {
			p := compile(t, fmt.Sprintf(`
A (id bigint, location point).
V? (id bigint, location point).
D: V(I, L) = NULL :- A(I, L).
R: @weight(1) V(I1, L1) => V(I2, L2) :- A(I1, L1), A(I2, L2) [distance(L1, L2) < %g].
`, m.Dist(a, b)*scale))
			q, err := Inference(p, p.Rules[0], Options{Metric: m})
			if err != nil {
				t.Fatal(err)
			}
			emitted := "'" + m.String() + "'"
			if !strings.Contains(q.SQL, emitted) {
				t.Fatalf("%s: SQL does not name the metric %s: %s", m, emitted, q.SQL)
			}
			db := storage.NewDB()
			tbl, err := db.Create(SchemaFor(mustRel(t, p, "A")))
			if err != nil {
				t.Fatal(err)
			}
			if err := tbl.AppendAll([]storage.Row{
				{storage.Int(1), storage.Geom(a)}, {storage.Int(2), storage.Geom(b)},
			}); err != nil {
				t.Fatal(err)
			}
			// Each atom pairs with itself at distance 0; the two cross pairs
			// pass exactly when the threshold is above their distance.
			want := 2
			if scale > 1 {
				want = 4
			}
			for _, name := range append([]string{m.String()}, names...) {
				sql := strings.Replace(q.SQL, emitted, "'"+name+"'", 1)
				res, err := sqlx.NewEngine(db).Exec(sql, q.Params)
				if err != nil {
					t.Fatalf("%s as %q: %v", m, name, err)
				}
				if len(res.Rows) != want {
					t.Errorf("%s as %q, threshold ×%v: %d rows, want %d", m, name, scale, len(res.Rows), want)
				}
			}
		}
	}
}

func TestOtherSpatialPredicates(t *testing.T) {
	p := compile(t, `
const region = 'POLYGON((0 0, 10 0, 10 10, 0 10))'.
A (id bigint, shape polygon).
V? (id bigint).
D: V(I) = NULL :- A(I, S) [overlaps(S, region), intersects(S, region), contains(region, S)].
`)
	q, err := Derivation(p, p.Derivations[0], Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"ST_OVERLAPS(b0.shape", "ST_INTERSECTS(b0.shape", "ST_CONTAINS("} {
		if !strings.Contains(q.SQL, want) {
			t.Errorf("missing %q in %s", want, q.SQL)
		}
	}
	if _, err := sqlx.Parse(q.SQL); err != nil {
		t.Errorf("generated SQL does not parse: %v", err)
	}
}

func TestAppTranslation(t *testing.T) {
	p := compile(t, `
Docs (id bigint, body text).
Places (name text, location point).
function extract over (body text) returns (name text, location point) implementation "geoner".
Places += extract(B) :- Docs(_, B).
`)
	q, err := App(p, p.Apps[0], Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(q.SQL, "SELECT b0.body FROM Docs b0") {
		t.Errorf("SQL = %s", q.SQL)
	}
}

func TestSchemaFor(t *testing.T) {
	p := compile(t, `
A (id bigint, location point, r double, s text, b bool).
V? (id bigint, location point).
`)
	a := SchemaFor(mustRel(t, p, "A"))
	if len(a.Cols) != 5 || a.Cols[1].Kind != storage.KindGeom {
		t.Errorf("schema A = %+v", a)
	}
	v := SchemaFor(mustRel(t, p, "V"))
	if len(v.Cols) != 3 || v.Cols[2].Name != "__vid" {
		t.Errorf("variable schema = %+v", v)
	}
}

// TestNegativeConstantsExecute: a negative constant, as a body term and in a
// comparison, renders as -N and the SQL engine reads it back as the same
// number, so exactly the matching rows come out.
func TestNegativeConstantsExecute(t *testing.T) {
	p := compile(t, `
A (id bigint, k bigint, v double).
V? (id bigint).
D: V(I) = NULL :- A(I, -3, X) [X > -2.5].
`)
	q, err := Derivation(p, p.Derivations[0], Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"b0.k = -3", "b0.v > -2.5"} {
		if !strings.Contains(q.SQL, want) {
			t.Errorf("SQL missing %q: %s", want, q.SQL)
		}
	}
	db := storage.NewDB()
	a, err := db.Create(SchemaFor(mustRel(t, p, "A")))
	if err != nil {
		t.Fatal(err)
	}
	if err := a.AppendAll([]storage.Row{
		{storage.Int(1), storage.Int(-3), storage.Float(-2)},   // passes
		{storage.Int(2), storage.Int(-3), storage.Float(-3)},   // v too small
		{storage.Int(3), storage.Int(3), storage.Float(0)},     // k is +3
		{storage.Int(4), storage.Int(-3), storage.Float(-2.5)}, // > is strict
		{storage.Int(5), storage.Int(-3), storage.Null},        // NULL v
		{storage.Int(6), storage.Int(-3), storage.Float(7)},    // passes
	}); err != nil {
		t.Fatal(err)
	}
	res, err := sqlx.NewEngine(db).Exec(q.SQL, q.Params)
	if err != nil {
		t.Fatal(err)
	}
	var ids []string
	for _, r := range res.Rows {
		ids = append(ids, r[0].String())
	}
	if got := strings.Join(ids, " "); got != "1 6" {
		t.Errorf("ids = %q, want \"1 6\" (SQL %s)", got, q.SQL)
	}
}
