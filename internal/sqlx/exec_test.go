package sqlx

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/geom"
	"repro/internal/storage"
)

// testDB builds a small database with a wells table resembling the paper's
// GWDB relation (Fig. 7) and a counties table resembling EbolaKB.
func testDB(t *testing.T) *storage.DB {
	t.Helper()
	db := storage.NewDB()
	wells, err := db.Create(storage.Schema{
		Name: "Well",
		Cols: []storage.Column{
			{Name: "id", Kind: storage.KindInt},
			{Name: "location", Kind: storage.KindGeom, GeomType: geom.TypePoint},
			{Name: "arsenic_ratio", Kind: storage.KindFloat},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	rows := []storage.Row{
		{storage.Int(1), storage.Geom(geom.Pt(0, 0)), storage.Float(0.1)},
		{storage.Int(2), storage.Geom(geom.Pt(10, 0)), storage.Float(0.15)},
		{storage.Int(3), storage.Geom(geom.Pt(100, 100)), storage.Float(0.4)},
		{storage.Int(4), storage.Geom(geom.Pt(12, 5)), storage.Float(0.05)},
		{storage.Int(5), storage.Geom(geom.Pt(200, 0)), storage.Float(0.1)},
	}
	if err := wells.AppendAll(rows); err != nil {
		t.Fatal(err)
	}
	counties, err := db.Create(storage.Schema{
		Name: "County",
		Cols: []storage.Column{
			{Name: "id", Kind: storage.KindInt},
			{Name: "name", Kind: storage.KindString},
			{Name: "location", Kind: storage.KindGeom, GeomType: geom.TypePoint},
			{Name: "sanitation", Kind: storage.KindBool},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	crows := []storage.Row{
		{storage.Int(1), storage.Str("Montserrado"), storage.Geom(geom.Pt(-10.80, 6.32)), storage.Bool(true)},
		{storage.Int(2), storage.Str("Margibi"), storage.Geom(geom.Pt(-10.30, 6.52)), storage.Bool(true)},
		{storage.Int(3), storage.Str("Bong"), storage.Geom(geom.Pt(-9.47, 7.00)), storage.Bool(true)},
		// Synthetic coordinate placed ~158 miles from Montserrado to match
		// the paper's narrative (Gbarpolu "only 160 miles" away).
		{storage.Int(4), storage.Str("Gbarpolu"), storage.Geom(geom.Pt(-8.90, 7.60)), storage.Bool(false)},
	}
	if err := counties.AppendAll(crows); err != nil {
		t.Fatal(err)
	}
	return db
}

func exec(t *testing.T, e *Engine, sql string) *Result {
	t.Helper()
	res, err := e.Exec(sql, nil)
	if err != nil {
		t.Fatalf("Exec(%q): %v", sql, err)
	}
	return res
}

func TestSelectFilterProjection(t *testing.T) {
	e := NewEngine(testDB(t))
	res := exec(t, e, "SELECT id, arsenic_ratio FROM Well WHERE arsenic_ratio < 0.2 ORDER BY id")
	if len(res.Rows) != 4 {
		t.Fatalf("rows = %d, want 4", len(res.Rows))
	}
	if res.Cols[0] != "id" || res.Cols[1] != "arsenic_ratio" {
		t.Errorf("cols = %v", res.Cols)
	}
	if v, _ := res.Rows[0][0].AsInt(); v != 1 {
		t.Errorf("first id = %v", res.Rows[0][0])
	}
}

func TestSelectStar(t *testing.T) {
	e := NewEngine(testDB(t))
	res := exec(t, e, "SELECT * FROM County ORDER BY id")
	if len(res.Cols) != 4 || len(res.Rows) != 4 {
		t.Fatalf("cols=%v rows=%d", res.Cols, len(res.Rows))
	}
	if res.Cols[0] != "County.id" {
		t.Errorf("col 0 = %q", res.Cols[0])
	}
	if res.Rows[0][1].S != "Montserrado" {
		t.Errorf("row 0 name = %v", res.Rows[0][1])
	}
}

func TestExpressionsInProjection(t *testing.T) {
	e := NewEngine(testDB(t))
	res := exec(t, e, "SELECT id * 2 + 1 AS x FROM Well WHERE id = 3")
	if len(res.Rows) != 1 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	if v, _ := res.Rows[0][0].AsInt(); v != 7 {
		t.Errorf("x = %v", res.Rows[0][0])
	}
	if res.Cols[0] != "x" {
		t.Errorf("col = %q", res.Cols[0])
	}
}

func TestEquiJoin(t *testing.T) {
	e := NewEngine(testDB(t))
	res := exec(t, e, `SELECT w1.id, w2.id FROM Well w1, Well w2
		WHERE w1.arsenic_ratio = w2.arsenic_ratio AND w1.id < w2.id ORDER BY w1.id`)
	// arsenic 0.1 shared by wells 1 and 5.
	if len(res.Rows) != 1 {
		t.Fatalf("rows = %d, want 1", len(res.Rows))
	}
	a, _ := res.Rows[0][0].AsInt()
	b, _ := res.Rows[0][1].AsInt()
	if a != 1 || b != 5 {
		t.Errorf("join = (%d, %d)", a, b)
	}

	// Hash-join keys agree with Value.Equal: -0 meets +0, a bigint meets the
	// double of the same value, NaN and NULL join nothing (not even
	// themselves).
	db := storage.NewDB()
	f, _ := db.Create(storage.Schema{Name: "F", Cols: []storage.Column{
		{Name: "id", Kind: storage.KindInt},
		{Name: "x", Kind: storage.KindFloat},
	}})
	_ = f.AppendAll([]storage.Row{
		{storage.Int(1), storage.Float(0)},
		{storage.Int(2), storage.Float(math.Copysign(0, -1))},
		{storage.Int(3), storage.Float(3)},
		{storage.Int(4), storage.Float(math.NaN())},
		{storage.Int(5), storage.Null},
	})
	n, _ := db.Create(storage.Schema{Name: "N", Cols: []storage.Column{
		{Name: "id", Kind: storage.KindInt},
		{Name: "x", Kind: storage.KindInt},
	}})
	_ = n.AppendAll([]storage.Row{
		{storage.Int(1), storage.Int(0)},
		{storage.Int(2), storage.Int(3)},
		{storage.Int(3), storage.Null},
	})
	pairs := func(q string) string {
		t.Helper()
		var out []string
		for _, r := range exec(t, NewEngine(db), q).Rows {
			out = append(out, r[0].String()+"-"+r[1].String())
		}
		return strings.Join(out, " ")
	}
	if got, want := pairs("SELECT a.id, b.id FROM F a, F b WHERE a.x = b.x ORDER BY a.id, b.id"), "1-1 1-2 2-1 2-2 3-3"; got != want {
		t.Errorf("double self-join = %q, want %q", got, want)
	}
	if got, want := pairs("SELECT f.id, n.id FROM F f, N n WHERE f.x = n.x ORDER BY f.id, n.id"), "1-1 2-1 3-2"; got != want {
		t.Errorf("double-bigint join = %q, want %q", got, want)
	}
}

func TestSpatialJoinDWithin(t *testing.T) {
	e := NewEngine(testDB(t))
	res := exec(t, e, `SELECT w1.id, w2.id FROM Well w1, Well w2
		WHERE ST_DWITHIN(w1.location, w2.location, 15) AND w1.id < w2.id
		ORDER BY w1.id, w2.id`)
	// Pairs within distance 15: (1,2) d=10, (2,4) d=sqrt(4+25)=5.39, (1,4) d=13.
	want := [][2]int64{{1, 2}, {1, 4}, {2, 4}}
	if len(res.Rows) != len(want) {
		t.Fatalf("rows = %d, want %d", len(res.Rows), len(want))
	}
	for i, w := range want {
		a, _ := res.Rows[i][0].AsInt()
		b, _ := res.Rows[i][1].AsInt()
		if a != w[0] || b != w[1] {
			t.Errorf("row %d = (%d,%d), want %v", i, a, b, w)
		}
	}
}

func TestSpatialJoinDistanceComparison(t *testing.T) {
	// ST_DISTANCE(a,b) < d must plan as a spatial join and agree with the
	// ST_DWITHIN formulation.
	e := NewEngine(testDB(t))
	r1 := exec(t, e, `SELECT w1.id, w2.id FROM Well w1, Well w2
		WHERE ST_DISTANCE(w1.location, w2.location) < 15 AND w1.id < w2.id
		ORDER BY w1.id, w2.id`)
	r2 := exec(t, e, `SELECT w1.id, w2.id FROM Well w1, Well w2
		WHERE ST_DWITHIN(w1.location, w2.location, 15) AND w1.id < w2.id
		ORDER BY w1.id, w2.id`)
	// DWithin is inclusive, < is strict; no pair sits exactly at 15 here.
	if len(r1.Rows) != len(r2.Rows) {
		t.Fatalf("distance %d vs dwithin %d", len(r1.Rows), len(r2.Rows))
	}
}

func TestSpatialJoinHaversineMetric(t *testing.T) {
	e := NewEngine(testDB(t))
	// Counties within 150 miles of Montserrado: Margibi (~36 mi), Bong
	// (~110 mi); Gbarpolu ~155 mi is out.
	res := exec(t, e, `SELECT c2.name FROM County c1, County c2
		WHERE c1.name = 'Montserrado' AND c2.id <> c1.id
		AND ST_DWITHIN(c1.location, c2.location, 150, 'miles')
		ORDER BY c2.id`)
	var names []string
	for _, r := range res.Rows {
		names = append(names, r[0].S)
	}
	if len(names) != 2 || names[0] != "Margibi" || names[1] != "Bong" {
		t.Errorf("names = %v", names)
	}
}

func TestWithinPolygonParam(t *testing.T) {
	e := NewEngine(testDB(t))
	region := geom.Polygon{Ring: []geom.Point{
		geom.Pt(-5, -5), geom.Pt(15, -5), geom.Pt(15, 10), geom.Pt(-5, 10),
	}}
	res, err := e.Exec(`SELECT id FROM Well WHERE ST_WITHIN(location, :region) ORDER BY id`,
		map[string]storage.Value{"region": storage.Geom(region)})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 { // wells 1, 2, 4
		t.Fatalf("rows = %d, want 3", len(res.Rows))
	}
}

func TestUnboundParam(t *testing.T) {
	e := NewEngine(testDB(t))
	if _, err := e.Exec("SELECT id FROM Well WHERE ST_WITHIN(location, :nope)", nil); err == nil {
		t.Error("unbound parameter should fail")
	}
}

func TestExplainReordersRangeBeforeSpatialJoin(t *testing.T) {
	// The paper's Fig. 5 optimization: a single-table range predicate
	// (ST_WITHIN against a constant region) must be pushed into the scan so
	// it runs before the spatial join, even though the rule listed the
	// distance predicate first.
	e := NewEngine(testDB(t))
	region := geom.NewRect(geom.Pt(-20, -20), geom.Pt(50, 50))
	res, err := e.Exec(`EXPLAIN SELECT w1.id, w2.id FROM Well w1, Well w2
		WHERE ST_DWITHIN(w1.location, w2.location, 15)
		AND ST_WITHIN(w1.location, :region)`,
		map[string]storage.Value{"region": storage.Geom(region)})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("plan lines = %d: %v", len(res.Rows), res.Rows)
	}
	first := res.Rows[0][0].S
	second := res.Rows[1][0].S
	if !strings.HasPrefix(first, "scan") || !strings.Contains(first, "ST_WITHIN") {
		t.Errorf("first step should be the filtered range scan, got %q", first)
	}
	if !strings.HasPrefix(second, "spatial-join") {
		t.Errorf("second step should be the spatial join, got %q", second)
	}
}

func TestJoinOrderSmallestFirst(t *testing.T) {
	// The filtered smaller table seeds the join order.
	e := NewEngine(testDB(t))
	res := exec(t, e, `EXPLAIN SELECT * FROM Well w, County c WHERE w.id = c.id AND c.sanitation = true`)
	first := res.Rows[0][0].S
	if !strings.Contains(first, "County") {
		t.Errorf("expected County (3 filtered rows) first, got %q", first)
	}
	if !strings.Contains(res.Rows[1][0].S, "hash-join") {
		t.Errorf("expected hash join second, got %q", res.Rows[1][0].S)
	}
}

// TestAccessPathFollowsSelectivity plans one query text over two datasets:
// the conjunct with the smaller estimated output becomes the access path and
// the other rides along as a co-filter, whichever kind each is — the join
// order is a cost, not a fixed rank of kinds.
func TestAccessPathFollowsSelectivity(t *testing.T) {
	const q = `EXPLAIN SELECT a.id, b.id FROM P a, P b
		WHERE a.k = b.k AND ST_DISTANCE(a.loc, b.loc) < 5`
	plan := func(key func(i int) int64, extent float64) string {
		t.Helper()
		db := storage.NewDB()
		tb, _ := db.Create(storage.Schema{Name: "P", Cols: []storage.Column{
			{Name: "id", Kind: storage.KindInt},
			{Name: "k", Kind: storage.KindInt},
			{Name: "loc", Kind: storage.KindGeom, GeomType: geom.TypePoint},
		}})
		rng := rand.New(rand.NewSource(5))
		for i := 0; i < 200; i++ {
			row := storage.Row{storage.Int(int64(i)), storage.Int(key(i)),
				storage.Geom(geom.Pt(rng.Float64()*extent, rng.Float64()*extent))}
			if err := tb.Append(row); err != nil {
				t.Fatal(err)
			}
		}
		res := exec(t, NewEngine(db), q)
		if len(res.Rows) != 2 {
			t.Fatalf("plan lines = %d: %v", len(res.Rows), res.Rows)
		}
		return res.Rows[1][0].S
	}
	// Four key values, a radius that covers 1 % of the extent: ~50 rows per
	// key against ~2 per window.
	step := plan(func(i int) int64 { return int64(i % 4) }, 100)
	if !strings.HasPrefix(step, "spatial-join") || !strings.Contains(step, "then-filter (a.k = b.k)") {
		t.Errorf("low-cardinality key, small radius: want spatial-join ... then-filter (a.k = b.k), got %q", step)
	}
	// A unique key, a radius that covers the whole extent: 1 row per key
	// against all 200 per window.
	step = plan(func(i int) int64 { return int64(i) }, 3)
	if !strings.HasPrefix(step, "hash-join") || !strings.Contains(step, "then-filter (ST_DISTANCE(a.loc, b.loc) < 5)") {
		t.Errorf("unique key, covering radius: want hash-join ... then-filter (ST_DISTANCE(...) < 5), got %q", step)
	}
}

func TestDistinctAndLimit(t *testing.T) {
	e := NewEngine(testDB(t))
	res := exec(t, e, "SELECT DISTINCT arsenic_ratio FROM Well ORDER BY arsenic_ratio")
	if len(res.Rows) != 4 { // 0.05 0.1 0.15 0.4
		t.Fatalf("distinct rows = %d", len(res.Rows))
	}
	res2 := exec(t, e, "SELECT id FROM Well ORDER BY id DESC LIMIT 2")
	if len(res2.Rows) != 2 {
		t.Fatalf("limit rows = %d", len(res2.Rows))
	}
	if v, _ := res2.Rows[0][0].AsInt(); v != 5 {
		t.Errorf("desc first = %v", v)
	}
}

func TestInsertSelect(t *testing.T) {
	db := testDB(t)
	if _, err := db.Create(storage.Schema{
		Name: "Pairs",
		Cols: []storage.Column{
			{Name: "a", Kind: storage.KindInt},
			{Name: "b", Kind: storage.KindInt},
			{Name: "w", Kind: storage.KindFloat},
		},
	}); err != nil {
		t.Fatal(err)
	}
	e := NewEngine(db)
	res := exec(t, e, `INSERT INTO Pairs (a, b, w) SELECT w1.id, w2.id, 0.7 FROM Well w1, Well w2
		WHERE ST_DWITHIN(w1.location, w2.location, 15) AND w1.id < w2.id`)
	if n, _ := res.Rows[0][0].AsInt(); n != 3 {
		t.Fatalf("inserted = %d, want 3", n)
	}
	check := exec(t, e, "SELECT a, b, w FROM Pairs ORDER BY a, b")
	if len(check.Rows) != 3 {
		t.Fatalf("pairs rows = %d", len(check.Rows))
	}
	if w, _ := check.Rows[0][2].AsFloat(); w != 0.7 {
		t.Errorf("weight = %v", w)
	}
	// Positional insert with mismatched arity fails.
	if _, err := e.Exec("INSERT INTO Pairs SELECT id FROM Well", nil); err == nil {
		t.Error("arity mismatch should fail")
	}
	// Unknown column fails.
	if _, err := e.Exec("INSERT INTO Pairs (nope) SELECT id FROM Well", nil); err == nil {
		t.Error("unknown column should fail")
	}
}

func TestThreeWayJoin(t *testing.T) {
	e := NewEngine(testDB(t))
	res := exec(t, e, `SELECT w1.id, w2.id, w3.id FROM Well w1, Well w2, Well w3
		WHERE ST_DWITHIN(w1.location, w2.location, 15)
		AND ST_DWITHIN(w2.location, w3.location, 15)
		AND w1.id < w2.id AND w2.id < w3.id ORDER BY w1.id, w2.id, w3.id`)
	// Chains: 1-2-4 (1~2 d10, 2~4 d5.4); 1-4-? none beyond; so expect (1,2,4).
	if len(res.Rows) != 1 {
		t.Fatalf("rows = %d: %v", len(res.Rows), res.Rows)
	}
	a, _ := res.Rows[0][0].AsInt()
	b, _ := res.Rows[0][1].AsInt()
	c, _ := res.Rows[0][2].AsInt()
	if a != 1 || b != 2 || c != 4 {
		t.Errorf("triple = (%d,%d,%d)", a, b, c)
	}
}

func TestCrossJoinWithConstFalse(t *testing.T) {
	e := NewEngine(testDB(t))
	res := exec(t, e, "SELECT w.id, c.id FROM Well w, County c WHERE 1 = 2")
	if len(res.Rows) != 0 {
		t.Errorf("const-false rows = %d", len(res.Rows))
	}
	res2 := exec(t, e, "SELECT w.id, c.id FROM Well w, County c")
	if len(res2.Rows) != 20 {
		t.Errorf("cross join rows = %d, want 20", len(res2.Rows))
	}
}

func TestNullSemantics(t *testing.T) {
	db := storage.NewDB()
	tb, _ := db.Create(storage.Schema{Name: "T", Cols: []storage.Column{
		{Name: "id", Kind: storage.KindInt},
		{Name: "v", Kind: storage.KindFloat},
	}})
	_ = tb.AppendAll([]storage.Row{
		{storage.Int(1), storage.Float(1)},
		{storage.Int(2), storage.Null},
	})
	e := NewEngine(db)
	// NULL comparisons are not true: only row 1 passes either way.
	if res := exec(t, e, "SELECT id FROM T WHERE v < 10"); len(res.Rows) != 1 {
		t.Errorf("v < 10 rows = %d", len(res.Rows))
	}
	if res := exec(t, e, "SELECT id FROM T WHERE NOT v < 10"); len(res.Rows) != 0 {
		t.Errorf("NOT v < 10 rows = %d", len(res.Rows))
	}
	// NULLs never equi-join.
	if res := exec(t, e, "SELECT a.id FROM T a, T b WHERE a.v = b.v AND a.id <> b.id"); len(res.Rows) != 0 {
		t.Errorf("null equi-join rows = %d", len(res.Rows))
	}
}

func TestAmbiguousAndUnknownColumns(t *testing.T) {
	e := NewEngine(testDB(t))
	if _, err := e.Exec("SELECT id FROM Well w1, Well w2", nil); err == nil {
		t.Error("ambiguous column should fail")
	}
	if _, err := e.Exec("SELECT nope FROM Well", nil); err == nil {
		t.Error("unknown column should fail")
	}
	if _, err := e.Exec("SELECT w1.id FROM Well w1, Well w1", nil); err == nil {
		t.Error("duplicate alias should fail")
	}
	if _, err := e.Exec("SELECT id FROM Missing", nil); err == nil {
		t.Error("missing table should fail")
	}
}

func TestScalarFunctions(t *testing.T) {
	e := NewEngine(testDB(t))
	res := exec(t, e, "SELECT ABS(-3), LEAST(2, 1, 3), GREATEST(2.5, 1.0) FROM Well WHERE id = 1")
	if v, _ := res.Rows[0][0].AsInt(); v != 3 {
		t.Errorf("ABS = %v", v)
	}
	if v, _ := res.Rows[0][1].AsInt(); v != 1 {
		t.Errorf("LEAST = %v", v)
	}
	if v, _ := res.Rows[0][2].AsFloat(); v != 2.5 {
		t.Errorf("GREATEST = %v", v)
	}
}

func TestGeomFunctions(t *testing.T) {
	e := NewEngine(testDB(t))
	res := exec(t, e, `SELECT ST_X(location), ST_Y(location),
		ST_DISTANCE(location, ST_POINT(3, 4)) FROM Well WHERE id = 1`)
	if x, _ := res.Rows[0][0].AsFloat(); x != 0 {
		t.Errorf("ST_X = %v", x)
	}
	if d, _ := res.Rows[0][2].AsFloat(); d != 5 {
		t.Errorf("distance = %v", d)
	}
	res2 := exec(t, e, `SELECT id FROM Well WHERE ST_WITHIN(location, ST_GEOMFROMTEXT('POLYGON((-1 -1, 11 -1, 11 1, -1 1))')) ORDER BY id`)
	if len(res2.Rows) != 2 { // wells 1 and 2
		t.Errorf("WKT region rows = %d", len(res2.Rows))
	}
}

// Spatial join must agree with nested-loop evaluation on random data.
func TestSpatialJoinMatchesNestedLoopProperty(t *testing.T) {
	db := storage.NewDB()
	tb, _ := db.Create(storage.Schema{Name: "P", Cols: []storage.Column{
		{Name: "id", Kind: storage.KindInt},
		{Name: "loc", Kind: storage.KindGeom, GeomType: geom.TypePoint},
	}})
	rng := rand.New(rand.NewSource(13))
	n := 200
	pts := make([]geom.Point, n)
	for i := 0; i < n; i++ {
		pts[i] = geom.Pt(rng.Float64()*100, rng.Float64()*100)
		if err := tb.Append(storage.Row{storage.Int(int64(i)), storage.Geom(pts[i])}); err != nil {
			t.Fatal(err)
		}
	}
	e := NewEngine(db)
	res := exec(t, e, `SELECT a.id, b.id FROM P a, P b
		WHERE ST_DWITHIN(a.loc, b.loc, 7) AND a.id < b.id ORDER BY a.id, b.id`)
	// Brute force.
	var want [][2]int64
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if geom.Distance(pts[i], pts[j]) <= 7 {
				want = append(want, [2]int64{int64(i), int64(j)})
			}
		}
	}
	if len(res.Rows) != len(want) {
		t.Fatalf("rows = %d, want %d", len(res.Rows), len(want))
	}
	for i, w := range want {
		a, _ := res.Rows[i][0].AsInt()
		b, _ := res.Rows[i][1].AsInt()
		if a != w[0] || b != w[1] {
			t.Fatalf("row %d = (%d,%d), want %v", i, a, b, w)
		}
	}
}

func TestAggregatesGlobal(t *testing.T) {
	e := NewEngine(testDB(t))
	res := exec(t, e, "SELECT COUNT(*), SUM(arsenic_ratio), AVG(arsenic_ratio), MIN(id), MAX(id) FROM Well")
	if len(res.Rows) != 1 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	r := res.Rows[0]
	if n, _ := r[0].AsInt(); n != 5 {
		t.Errorf("COUNT = %v", r[0])
	}
	if s, _ := r[1].AsFloat(); math.Abs(s-0.8) > 1e-12 {
		t.Errorf("SUM = %v", r[1])
	}
	if a, _ := r[2].AsFloat(); math.Abs(a-0.16) > 1e-12 {
		t.Errorf("AVG = %v", r[2])
	}
	if mn, _ := r[3].AsInt(); mn != 1 {
		t.Errorf("MIN = %v", r[3])
	}
	if mx, _ := r[4].AsInt(); mx != 5 {
		t.Errorf("MAX = %v", r[4])
	}
}

func TestAggregatesGroupBy(t *testing.T) {
	e := NewEngine(testDB(t))
	res := exec(t, e, `SELECT sanitation, COUNT(*) AS n FROM County GROUP BY sanitation ORDER BY n DESC`)
	if len(res.Rows) != 2 {
		t.Fatalf("groups = %d", len(res.Rows))
	}
	if n, _ := res.Rows[0][1].AsInt(); n != 3 {
		t.Errorf("majority group = %v", res.Rows[0][1])
	}
	if n, _ := res.Rows[1][1].AsInt(); n != 1 {
		t.Errorf("minority group = %v", res.Rows[1][1])
	}
}

func TestAggregatesEmptyAndNulls(t *testing.T) {
	db := storage.NewDB()
	tb, _ := db.Create(storage.Schema{Name: "T", Cols: []storage.Column{
		{Name: "k", Kind: storage.KindInt},
		{Name: "v", Kind: storage.KindFloat},
	}})
	_ = tb.AppendAll([]storage.Row{
		{storage.Int(1), storage.Float(2)},
		{storage.Int(1), storage.Null},
		{storage.Int(2), storage.Float(4)},
	})
	e := NewEngine(db)
	// NULLs are skipped by COUNT(expr)/SUM/AVG.
	res := exec(t, e, "SELECT COUNT(v), SUM(v), AVG(v) FROM T WHERE k = 1")
	if n, _ := res.Rows[0][0].AsInt(); n != 1 {
		t.Errorf("COUNT(v) = %v", res.Rows[0][0])
	}
	if s, _ := res.Rows[0][1].AsFloat(); s != 2 {
		t.Errorf("SUM(v) = %v", res.Rows[0][1])
	}
	// Zero matching tuples: COUNT(*) = 0, SUM NULL.
	res2 := exec(t, e, "SELECT COUNT(*), SUM(v) FROM T WHERE k = 9")
	if n, _ := res2.Rows[0][0].AsInt(); n != 0 {
		t.Errorf("empty COUNT = %v", res2.Rows[0][0])
	}
	if !res2.Rows[0][1].IsNull() {
		t.Errorf("empty SUM = %v", res2.Rows[0][1])
	}
}

func TestAggregateInExpression(t *testing.T) {
	e := NewEngine(testDB(t))
	res := exec(t, e, "SELECT SUM(arsenic_ratio) / COUNT(*) AS mean FROM Well")
	if v, _ := res.Rows[0][0].AsFloat(); math.Abs(v-0.16) > 1e-12 {
		t.Errorf("mean = %v", res.Rows[0][0])
	}
	if res.Cols[0] != "mean" {
		t.Errorf("col = %q", res.Cols[0])
	}
}

func TestAggregateWithJoin(t *testing.T) {
	e := NewEngine(testDB(t))
	res := exec(t, e, `SELECT w1.id, COUNT(*) AS neighbors FROM Well w1, Well w2
		WHERE ST_DWITHIN(w1.location, w2.location, 15) AND w1.id <> w2.id
		GROUP BY w1.id ORDER BY w1.id`)
	// Wells 1, 2, 4 form a near-cluster: 1-(2,4), 2-(1,4), 4-(1,2).
	if len(res.Rows) != 3 {
		t.Fatalf("groups = %d: %v", len(res.Rows), res.Rows)
	}
	for _, r := range res.Rows {
		if n, _ := r[1].AsInt(); n != 2 {
			t.Errorf("row %v", r)
		}
	}
}

func TestAggregateStarError(t *testing.T) {
	e := NewEngine(testDB(t))
	if _, err := e.Exec("SELECT *, COUNT(*) FROM Well", nil); err == nil {
		t.Error("star + aggregate should fail")
	}
	if _, err := e.Exec("SELECT SUM(id, id) FROM Well", nil); err == nil {
		t.Error("two-arg SUM should fail")
	}
}

func TestHaving(t *testing.T) {
	e := NewEngine(testDB(t))
	res := exec(t, e, `SELECT sanitation, COUNT(*) AS n FROM County
		GROUP BY sanitation HAVING COUNT(*) > 1`)
	if len(res.Rows) != 1 {
		t.Fatalf("rows = %d: %v", len(res.Rows), res.Rows)
	}
	if n, _ := res.Rows[0][1].AsInt(); n != 3 {
		t.Errorf("n = %v", res.Rows[0][1])
	}
	// HAVING with non-boolean expression fails.
	if _, err := e.Exec("SELECT k FROM Well w GROUP BY k HAVING COUNT(*)", nil); err == nil {
		t.Error("non-boolean HAVING should fail")
	}
}

// TestWorkerInvariance pins the determinism contract of every sharded stage
// — join probing, the residual filter after a join step, and projection: the
// same query returns identical columns and identically-ordered rows for any
// worker count, on inputs large enough to cross the parallel threshold. The
// first query deliberately has no ORDER BY, so its row order comes purely
// from the chunk-ordered batch merge.
func TestWorkerInvariance(t *testing.T) {
	db := storage.NewDB()
	tbl, err := db.Create(storage.Schema{
		Name: "P",
		Cols: []storage.Column{
			{Name: "id", Kind: storage.KindInt},
			{Name: "v", Kind: storage.KindFloat},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 48; i++ {
		row := storage.Row{storage.Int(int64(i)), storage.Float(float64(i%17) / 16.0)}
		if err := tbl.Append(row); err != nil {
			t.Fatal(err)
		}
	}
	queries := []string{
		// Theta join + residual predicate + expression projection, no ORDER BY.
		`SELECT a.id * 100 + b.id AS x, a.v + b.v AS s FROM P a, P b
			WHERE a.id < b.id AND a.v + b.v < 1.2`,
		// DISTINCT + ORDER BY + LIMIT on top of the sharded projection.
		`SELECT DISTINCT a.v + b.v AS s FROM P a, P b
			WHERE a.id < b.id AND a.v * b.v > 0.1 ORDER BY s DESC LIMIT 50`,
	}
	render := func(res *Result) string {
		var b strings.Builder
		b.WriteString(strings.Join(res.Cols, ","))
		for _, r := range res.Rows {
			b.WriteByte('\n')
			for i, v := range r {
				if i > 0 {
					b.WriteByte(',')
				}
				b.WriteString(v.Kind.String() + ":" + v.String())
			}
		}
		return b.String()
	}
	for qi, q := range queries {
		// The test only guards the residual stage if the plan has one.
		seq := NewEngine(db)
		plan := exec(t, seq, "EXPLAIN "+q)
		hasResidual := false
		for _, r := range plan.Rows {
			if strings.Contains(r[0].S, "then-filter") {
				hasResidual = true
			}
		}
		if !hasResidual {
			t.Fatalf("query %d plans no residual filter:\n%v", qi, plan.Rows)
		}
		ref := exec(t, seq, q)
		// DISTINCT/LIMIT collapse the output; the sharded stages still see
		// the full join result, so only the plain query checks its own size.
		if qi == 0 && len(ref.Rows) < probeParallelMin {
			t.Fatalf("query %d yields %d rows — below the parallel threshold %d",
				qi, len(ref.Rows), probeParallelMin)
		}
		want := render(ref)
		for _, workers := range []int{2, 3, 8} {
			par := NewEngine(db)
			par.SetParallelism(workers, nil)
			if got := render(exec(t, par, q)); got != want {
				t.Errorf("query %d: workers=%d result differs from sequential\nseq:\n%s\npar:\n%s",
					qi, workers, want, got)
			}
		}
	}
}

// BenchmarkSelectResidualProjection measures the sharded residual-filter +
// projection pipeline on a giant-rule-shaped query: a theta self-join whose
// output passes through a residual predicate and an expression projection —
// the sqlx hot path of a single large grounding rule.
func BenchmarkSelectResidualProjection(b *testing.B) {
	db := storage.NewDB()
	tbl, err := db.Create(storage.Schema{
		Name: "P",
		Cols: []storage.Column{
			{Name: "id", Kind: storage.KindInt},
			{Name: "v", Kind: storage.KindFloat},
		},
	})
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 128; i++ {
		row := storage.Row{storage.Int(int64(i)), storage.Float(float64(i%17) / 16.0)}
		if err := tbl.Append(row); err != nil {
			b.Fatal(err)
		}
	}
	const q = `SELECT a.id * 100 + b.id AS x, a.v + b.v AS s FROM P a, P b
		WHERE a.id < b.id AND a.v + b.v < 1.2`
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			e := NewEngine(db)
			e.SetParallelism(workers, nil)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := e.Exec(q, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
