package storage

import (
	"testing"

	"repro/internal/geom"
)

func wellSchema() Schema {
	return Schema{
		Name: "Well",
		Cols: []Column{
			{Name: "id", Kind: KindInt},
			{Name: "location", Kind: KindGeom, GeomType: geom.TypePoint},
			{Name: "arsenic_ratio", Kind: KindFloat},
			{Name: "safe", Kind: KindBool},
		},
	}
}

func TestValueConstructorsAndAccessors(t *testing.T) {
	if v, err := Int(5).AsInt(); err != nil || v != 5 {
		t.Errorf("Int: %v %v", v, err)
	}
	if v, err := Float(2.5).AsFloat(); err != nil || v != 2.5 {
		t.Errorf("Float: %v %v", v, err)
	}
	if v, err := Int(5).AsFloat(); err != nil || v != 5 {
		t.Errorf("Int as float: %v %v", v, err)
	}
	if v, err := Float(3).AsInt(); err != nil || v != 3 {
		t.Errorf("integral float as int: %v %v", v, err)
	}
	if _, err := Float(3.5).AsInt(); err == nil {
		t.Error("non-integral float as int should fail")
	}
	if b, err := Bool(true).AsBool(); err != nil || !b {
		t.Errorf("Bool: %v %v", b, err)
	}
	if _, err := Str("x").AsBool(); err == nil {
		t.Error("string as bool should fail")
	}
	if g, err := Geom(geom.Pt(1, 2)).AsGeom(); err != nil || g != geom.Pt(1, 2) {
		t.Errorf("Geom: %v %v", g, err)
	}
	if !Null.IsNull() || Int(0).IsNull() {
		t.Error("IsNull mismatch")
	}
}

func TestValueString(t *testing.T) {
	cases := map[string]Value{
		"NULL":        Null,
		"42":          Int(42),
		"2.5":         Float(2.5),
		"true":        Bool(true),
		"false":       Bool(false),
		"hi":          Str("hi"),
		"POINT (1 2)": Geom(geom.Pt(1, 2)),
	}
	for want, v := range cases {
		if got := v.String(); got != want {
			t.Errorf("String(%v) = %q, want %q", v.Kind, got, want)
		}
	}
}

func TestValueEqualAndCompare(t *testing.T) {
	if !Int(3).Equal(Float(3)) {
		t.Error("numeric cross-kind equality failed")
	}
	if Int(3).Equal(Str("3")) {
		t.Error("int should not equal string")
	}
	if !Null.Equal(Null) || Null.Equal(Int(0)) {
		t.Error("null equality mismatch")
	}
	if !Geom(geom.Pt(1, 2)).Equal(Geom(geom.Pt(1, 2))) {
		t.Error("geom equality failed")
	}
	if c, err := Int(1).Compare(Float(2)); err != nil || c != -1 {
		t.Errorf("Compare = %d %v", c, err)
	}
	if c, err := Str("b").Compare(Str("a")); err != nil || c != 1 {
		t.Errorf("string Compare = %d %v", c, err)
	}
	if _, err := Bool(true).Compare(Bool(false)); err == nil {
		t.Error("bool compare should fail")
	}
}

func TestSchemaValidate(t *testing.T) {
	good := wellSchema()
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Schema{
		{Name: "", Cols: []Column{{Name: "a", Kind: KindInt}}},
		{Name: "x"},
		{Name: "x", Cols: []Column{{Name: "a", Kind: KindInt}, {Name: "A", Kind: KindInt}}},
		{Name: "x", Cols: []Column{{Name: "", Kind: KindInt}}},
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("bad schema %d validated", i)
		}
	}
	if good.ColIndex("LOCATION") != 1 {
		t.Error("ColIndex should be case-insensitive")
	}
	if good.ColIndex("nope") != -1 {
		t.Error("missing column should be -1")
	}
}

func TestTableAppendAndScan(t *testing.T) {
	tb, err := NewTable(wellSchema())
	if err != nil {
		t.Fatal(err)
	}
	rows := []Row{
		{Int(1), Geom(geom.Pt(0, 0)), Float(0.1), Bool(true)},
		{Int(2), Geom(geom.Pt(10, 10)), Float(0.3), Bool(false)},
		{Int(3), Geom(geom.Pt(20, 0)), Null, Null},
	}
	if err := tb.AppendAll(rows); err != nil {
		t.Fatal(err)
	}
	if tb.Len() != 3 {
		t.Fatalf("Len = %d", tb.Len())
	}
	// Type errors.
	if err := tb.Append(Row{Int(4), Str("oops"), Float(0), Bool(false)}); err == nil {
		t.Error("wrong kind should fail")
	}
	if err := tb.Append(Row{Int(4)}); err == nil {
		t.Error("short row should fail")
	}
	// Numeric coercion int->float column.
	if err := tb.Append(Row{Int(4), Geom(geom.Pt(1, 1)), Int(1), Bool(true)}); err != nil {
		t.Errorf("int into double column should be accepted: %v", err)
	}
	count := 0
	tb.Scan(func(id int, r Row) bool { count++; return true })
	if count != 4 {
		t.Errorf("scan visited %d rows", count)
	}
	count = 0
	tb.Scan(func(id int, r Row) bool { count++; return false })
	if count != 1 {
		t.Errorf("early-stop scan visited %d rows", count)
	}
}

func TestDBLifecycle(t *testing.T) {
	db := NewDB()
	if _, err := db.Create(wellSchema()); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Create(wellSchema()); err == nil {
		t.Error("duplicate create should fail")
	}
	tb, err := db.Table("WELL") // case-insensitive
	if err != nil || tb == nil {
		t.Fatalf("Table: %v", err)
	}
	if _, err := db.Table("nope"); err == nil {
		t.Error("missing table should fail")
	}
	if _, err := db.Create(Schema{Name: "Alpha", Cols: []Column{{Name: "a", Kind: KindInt}}}); err != nil {
		t.Fatal(err)
	}
	if tb, err := db.Table("alpha"); err != nil || tb.Schema().Name != "Alpha" {
		t.Errorf("Table(alpha) = %v, %v", tb, err)
	}
}

func TestNullsAllowedInRows(t *testing.T) {
	tb, _ := NewTable(wellSchema())
	if err := tb.Append(Row{Int(1), Null, Null, Null}); err != nil {
		t.Fatalf("nulls should be allowed: %v", err)
	}
	if _, err := tb.Row(0)[1].AsGeom(); err == nil {
		t.Error("a NULL location read back as a geometry")
	}
}
