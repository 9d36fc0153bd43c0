package sqlx

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
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
	res := exec(t, e, "SELECT id, arsenic_ratio FROM Well WHERE arsenic_ratio < 0.2")
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

// TestExpressionsInProjection: a SELECT item is a column, a literal, a
// parameter or a builtin call; a column is named by its column, anything
// else by its SQL.
func TestExpressionsInProjection(t *testing.T) {
	e := NewEngine(testDB(t))
	res, err := e.Exec("SELECT w.id, -2, 'x', :p, ST_DISTANCE(w.location, :p) FROM Well w WHERE w.id = 3",
		map[string]storage.Value{"p": storage.Geom(geom.Pt(103, 104))})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	got := make([]string, len(res.Rows[0]))
	for i, v := range res.Rows[0] {
		got[i] = v.String()
	}
	if want := "3 -2 x POINT (103 104) 5"; strings.Join(got, " ") != want {
		t.Errorf("row = %q, want %q", strings.Join(got, " "), want)
	}
	if want := "id -2 'x' :p ST_DISTANCE(w.location, :p)"; strings.Join(res.Cols, " ") != want {
		t.Errorf("cols = %q, want %q", strings.Join(res.Cols, " "), want)
	}
}

func TestEquiJoin(t *testing.T) {
	e := NewEngine(testDB(t))
	res := exec(t, e, `SELECT w1.id, w2.id FROM Well w1, Well w2
		WHERE w1.arsenic_ratio = w2.arsenic_ratio AND w1.id < w2.id`)
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
		sort.Strings(out)
		return strings.Join(out, " ")
	}
	if got, want := pairs("SELECT a.id, b.id FROM F a, F b WHERE a.x = b.x"), "1-1 1-2 2-1 2-2 3-3"; got != want {
		t.Errorf("double self-join = %q, want %q", got, want)
	}
	if got, want := pairs("SELECT f.id, n.id FROM F f, N n WHERE f.x = n.x"), "1-1 2-1 3-2"; got != want {
		t.Errorf("double-bigint join = %q, want %q", got, want)
	}
}

// TestSpatialJoinDWithin: the within-distance join, ST_DISTANCE(a, b) <= d,
// returns exactly the pairs at most d apart.
func TestSpatialJoinDWithin(t *testing.T) {
	e := NewEngine(testDB(t))
	res := exec(t, e, `SELECT w1.id, w2.id FROM Well w1, Well w2
		WHERE ST_DISTANCE(w1.location, w2.location) <= 15 AND w1.id < w2.id`)
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
	// ST_DISTANCE(a, b) < d and <= d plan as spatial joins; < is strict, <=
	// inclusive, which the pair (1,2) at distance exactly 10 tells apart.
	e := NewEngine(testDB(t))
	for _, c := range []struct {
		cond string
		want string
	}{
		{"<= 10", "1-2 2-4"},
		{"< 10", "2-4"},
	} {
		q := `SELECT w1.id, w2.id FROM Well w1, Well w2
			WHERE ST_DISTANCE(w1.location, w2.location) ` + c.cond + ` AND w1.id < w2.id`
		var got []string
		for _, r := range exec(t, e, q).Rows {
			got = append(got, r[0].String()+"-"+r[1].String())
		}
		if strings.Join(got, " ") != c.want {
			t.Errorf("distance %s: pairs %v, want %s", c.cond, got, c.want)
		}
		if plan := exec(t, e, "EXPLAIN "+q); !strings.HasPrefix(plan.Rows[1][0].S, "spatial-join") {
			t.Errorf("distance %s: second step %q, want a spatial join", c.cond, plan.Rows[1][0].S)
		}
	}
}

func TestSpatialJoinHaversineMetric(t *testing.T) {
	e := NewEngine(testDB(t))
	// Counties within 150 miles of Montserrado: Margibi (~36 mi), Bong
	// (~110 mi); Gbarpolu ~155 mi is out.
	res := exec(t, e, `SELECT c2.name FROM County c1, County c2
		WHERE c1.name = 'Montserrado' AND c2.id <> c1.id
		AND ST_DISTANCE(c1.location, c2.location, 'miles') <= 150`)
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
	res, err := e.Exec(`SELECT id FROM Well WHERE ST_WITHIN(location, :region)`,
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
		WHERE ST_DISTANCE(w1.location, w2.location) <= 15
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
	res := exec(t, e, `EXPLAIN SELECT w.id, c.id FROM Well w, County c WHERE w.id = c.id AND c.sanitation = true`)
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

func TestThreeWayJoin(t *testing.T) {
	e := NewEngine(testDB(t))
	res := exec(t, e, `SELECT w1.id, w2.id, w3.id FROM Well w1, Well w2, Well w3
		WHERE ST_DISTANCE(w1.location, w2.location) <= 15
		AND ST_DISTANCE(w2.location, w3.location) <= 15
		AND w1.id < w2.id AND w2.id < w3.id`)
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
	// NULL comparisons are not true: row 2 passes none of them, not even a
	// comparison with NULL itself.
	for q, want := range map[string]int{
		"SELECT id FROM T WHERE v < 10":    1,
		"SELECT id FROM T WHERE v >= 10":   0,
		"SELECT id FROM T WHERE v = NULL":  0,
		"SELECT id FROM T WHERE v <> NULL": 0,
		"SELECT id FROM T WHERE v <> 1":    0,
	} {
		if res := exec(t, e, q); len(res.Rows) != want {
			t.Errorf("%s: rows = %d, want %d", q, len(res.Rows), want)
		}
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

// TestGeomFunctions evaluates every builtin, nested, on well 1 at (0, 0)
// against p = (3, 4).
func TestGeomFunctions(t *testing.T) {
	e := NewEngine(testDB(t))
	params := map[string]storage.Value{"p": storage.Geom(geom.Pt(3, 4)), "none": storage.Null}
	res, err := e.Exec(`SELECT ST_DISTANCE(location, :p),
		ST_CONTAINS(ST_BUFFER(location, 1), :p), ST_CONTAINS(ST_BUFFER(location, 5), :p),
		ST_INTERSECTS(ST_UNION(location, :p), :p), ST_WITHIN(:p, ST_UNION(location, ST_BUFFER(:p, 1))),
		ST_OVERLAPS(ST_BUFFER(location, 2), ST_BUFFER(:p, 3)), ST_DISTANCE(location, :none)
		FROM Well WHERE id = 1`, params)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]string, len(res.Rows[0]))
	for i, v := range res.Rows[0] {
		got[i] = v.String()
	}
	if want := "5 false true true true true NULL"; strings.Join(got, " ") != want {
		t.Errorf("row = %q, want %q", strings.Join(got, " "), want)
	}
	// A buffered point as the range window: [-1, 11] × [-6, 6] holds wells
	// 1 and 2.
	res2, err := e.Exec(`SELECT id FROM Well WHERE ST_WITHIN(location, ST_BUFFER(:c, 6))`,
		map[string]storage.Value{"c": storage.Geom(geom.Pt(5, 0))})
	if err != nil {
		t.Fatal(err)
	}
	if len(res2.Rows) != 2 {
		t.Errorf("buffer window rows = %d, want 2", len(res2.Rows))
	}
	// A type error surfaces as an error, not a panic.
	if _, err := e.Exec(`SELECT ST_WITHIN(id, location) FROM Well`, nil); err == nil {
		t.Error("ST_WITHIN over an integer should fail")
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
		WHERE ST_DISTANCE(a.loc, b.loc) <= 7 AND a.id < b.id`)
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

// TestWorkerInvariance pins the determinism contract of every sharded stage
// — join probing, the residual filter after a join step, and projection: the
// same query returns identical columns and identically-ordered rows for any
// worker count, on inputs large enough to cross the parallel threshold. Row
// order comes purely from the chunk-ordered batch merge.
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
	for i := 0; i < 64; i++ {
		row := storage.Row{storage.Int(int64(i)), storage.Float(float64(i%17) / 16.0)}
		if err := tbl.Append(row); err != nil {
			t.Fatal(err)
		}
	}
	queries := []string{
		// Theta join + residual predicate.
		`SELECT a.id, b.id, a.v, 0.5 FROM P a, P b WHERE a.id < b.id AND a.v < b.v`,
		// Hash join + residual predicate.
		`SELECT a.id, b.id, b.v FROM P a, P b WHERE a.v = b.v AND a.id <> b.id`,
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
		if len(ref.Rows) < probeParallelMin {
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
// output passes through a residual predicate and the projection — the sqlx
// hot path of a single large grounding rule.
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
	const q = `SELECT a.id, b.id, a.v, b.v FROM P a, P b WHERE a.id < b.id AND a.v < b.v`
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
