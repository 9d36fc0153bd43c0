package geom

import (
	"math"
	"testing"
	"testing/quick"
)

func TestTypeString(t *testing.T) {
	cases := map[Type]string{
		TypePoint:      "point",
		TypeRect:       "rectangle",
		TypePolygon:    "polygon",
		TypeLineString: "linestring",
	}
	for ty, want := range cases {
		if got := ty.String(); got != want {
			t.Errorf("Type(%d).String() = %q, want %q", ty, got, want)
		}
	}
	if got := Type(99).String(); got != "geom.Type(99)" {
		t.Errorf("unknown type string = %q", got)
	}
}

func TestParseType(t *testing.T) {
	for _, name := range []string{"point", "rectangle", "rect", "polygon", "linestring"} {
		if _, ok := ParseType(name); !ok {
			t.Errorf("ParseType(%q) failed", name)
		}
	}
	if _, ok := ParseType("circle"); ok {
		t.Error("ParseType(circle) unexpectedly succeeded")
	}
	if ty, _ := ParseType("rect"); ty != TypeRect {
		t.Errorf("ParseType(rect) = %v, want rectangle", ty)
	}
}

func TestNewRectNormalizes(t *testing.T) {
	r := NewRect(Pt(3, 4), Pt(1, 2))
	if r.Min != Pt(1, 2) || r.Max != Pt(3, 4) {
		t.Errorf("NewRect did not normalize: %+v", r)
	}
	if !r.Valid() {
		t.Error("normalized rect should be valid")
	}
}

func TestRectBasics(t *testing.T) {
	r := NewRect(Pt(0, 0), Pt(4, 2))
	if r.Width() != 4 || r.Height() != 2 || r.Area() != 8 {
		t.Errorf("width/height/area = %v/%v/%v", r.Width(), r.Height(), r.Area())
	}
	if c := r.Center(); c != Pt(2, 1) {
		t.Errorf("center = %v", c)
	}
	if !r.ContainsPoint(Pt(4, 2)) {
		t.Error("boundary point should be contained")
	}
	if r.ContainsPoint(Pt(4.001, 2)) {
		t.Error("outside point contained")
	}
}

func TestRectIntersectsAndUnion(t *testing.T) {
	a := NewRect(Pt(0, 0), Pt(2, 2))
	b := NewRect(Pt(2, 2), Pt(3, 3)) // touching corner
	c := NewRect(Pt(2.1, 2.1), Pt(3, 3))
	if !a.Intersects(b) {
		t.Error("touching rects should intersect")
	}
	if a.Intersects(c) {
		t.Error("disjoint rects should not intersect")
	}
	u := a.Union(c)
	if !u.ContainsRect(a) || !u.ContainsRect(c) {
		t.Error("union must contain both inputs")
	}
}

func TestRectExpand(t *testing.T) {
	r := NewRect(Pt(1, 1), Pt(2, 2)).Expand(0.5)
	want := NewRect(Pt(0.5, 0.5), Pt(2.5, 2.5))
	if r != want {
		t.Errorf("Expand = %+v, want %+v", r, want)
	}
}

func TestBounds(t *testing.T) {
	pg := Polygon{Ring: []Point{Pt(0, 0), Pt(4, 1), Pt(2, 5)}}
	if b := pg.Bounds(); b != NewRect(Pt(0, 0), Pt(4, 5)) {
		t.Errorf("polygon bounds = %+v", b)
	}
	ls := LineString{Points: []Point{Pt(-1, 2), Pt(3, -2)}}
	if b := ls.Bounds(); b != NewRect(Pt(-1, -2), Pt(3, 2)) {
		t.Errorf("linestring bounds = %+v", b)
	}
	if b := (Polygon{}).Bounds(); b != (Rect{}) {
		t.Errorf("empty polygon bounds = %+v", b)
	}
	p := Pt(3, 7)
	if b := p.Bounds(); b.Min != p || b.Max != p {
		t.Errorf("point bounds = %+v", b)
	}
}

func TestGeomTypes(t *testing.T) {
	if Pt(0, 0).GeomType() != TypePoint ||
		(Rect{}).GeomType() != TypeRect ||
		(Polygon{}).GeomType() != TypePolygon ||
		(LineString{}).GeomType() != TypeLineString {
		t.Error("GeomType mismatch")
	}
}

func TestDistance(t *testing.T) {
	if d := Distance(Pt(0, 0), Pt(3, 4)); d != 5 {
		t.Errorf("Distance = %v, want 5", d)
	}
	if d := DistanceSq(Pt(0, 0), Pt(3, 4)); d != 25 {
		t.Errorf("DistanceSq = %v, want 25", d)
	}
}

func TestHaversineKnownDistance(t *testing.T) {
	// Monrovia (Montserrado) to Gbarnga (Bong), Liberia: ~110 miles.
	monrovia := Pt(-10.8047, 6.3156)
	gbarnga := Pt(-9.4722, 6.9956)
	d := HaversineMiles.Dist(monrovia, gbarnga)
	if d < 95 || d < 0 || d > 125 {
		t.Errorf("Monrovia-Gbarnga = %.1f mi, want ~110", d)
	}
	dk := HaversineKm.Dist(monrovia, gbarnga)
	if ratio := dk / d; math.Abs(ratio-1.609344) > 0.001 {
		t.Errorf("km/mi ratio = %v", ratio)
	}
	if HaversineMiles.Dist(monrovia, monrovia) != 0 {
		t.Error("self-distance should be 0")
	}
}

func TestMetricEuclideanDefault(t *testing.T) {
	if d := Euclidean.Dist(Pt(0, 0), Pt(3, 4)); d != 5 {
		t.Errorf("Euclidean.Dist = %v", d)
	}
}

// TestMetricUnmarshalText: every accepted spelling reads case-insensitively
// into its metric, an unknown one is an error, and each metric's own name
// reads back to it.
func TestMetricUnmarshalText(t *testing.T) {
	for name, want := range map[string]Metric{
		"":                Euclidean,
		"euclidean":       Euclidean,
		"Miles":           HaversineMiles,
		"haversine_miles": HaversineMiles,
		"km":              HaversineKm,
		"HAVERSINE_KM":    HaversineKm,
	} {
		var got Metric
		if err := got.UnmarshalText([]byte(name)); err != nil || got != want {
			t.Errorf("UnmarshalText(%q) = %v, %v; want %v", name, got, err, want)
		}
	}
	var m Metric
	if err := m.UnmarshalText([]byte("bogus")); err == nil {
		t.Error("bad metric should fail")
	}
	for _, m := range []Metric{Euclidean, HaversineMiles, HaversineKm} {
		text, err := m.MarshalText()
		if err != nil {
			t.Fatal(err)
		}
		if back, err := ParseMetric(string(text)); err != nil || back != m {
			t.Errorf("%v: name %q reads back as %v, %v", uint8(m), text, back, err)
		}
	}
}

func TestDistancePointRect(t *testing.T) {
	r := NewRect(Pt(0, 0), Pt(2, 2))
	if d := DistancePointRect(Pt(1, 1), r); d != 0 {
		t.Errorf("inside point distance = %v", d)
	}
	if d := DistancePointRect(Pt(5, 1), r); d != 3 {
		t.Errorf("side distance = %v", d)
	}
	if d := DistancePointRect(Pt(5, 6), r); d != 5 {
		t.Errorf("corner distance = %v", d)
	}
}

func TestDistanceRects(t *testing.T) {
	a := NewRect(Pt(0, 0), Pt(1, 1))
	b := NewRect(Pt(4, 5), Pt(6, 7))
	if d := DistanceRects(a, b); d != 5 {
		t.Errorf("rect-rect corner distance = %v, want 5", d)
	}
	if d := DistanceRects(a, NewRect(Pt(0.5, 0.5), Pt(2, 2))); d != 0 {
		t.Errorf("overlapping rects distance = %v", d)
	}
}

func TestDistancePointSegment(t *testing.T) {
	if d := DistancePointSegment(Pt(1, 1), Pt(0, 0), Pt(2, 0)); d != 1 {
		t.Errorf("perpendicular distance = %v", d)
	}
	if d := DistancePointSegment(Pt(-3, 4), Pt(0, 0), Pt(2, 0)); d != 5 {
		t.Errorf("endpoint distance = %v", d)
	}
	if d := DistancePointSegment(Pt(1, 1), Pt(2, 2), Pt(2, 2)); math.Abs(d-math.Sqrt2) > 1e-12 {
		t.Errorf("degenerate segment distance = %v", d)
	}
}

func TestDistanceGeometries(t *testing.T) {
	pg := Polygon{Ring: []Point{Pt(0, 0), Pt(4, 0), Pt(4, 4), Pt(0, 4)}}
	if d := DistanceGeometries(Pt(2, 2), pg); d != 0 {
		t.Errorf("point inside polygon distance = %v", d)
	}
	if d := DistanceGeometries(Pt(6, 2), pg); d != 2 {
		t.Errorf("point-polygon distance = %v", d)
	}
	ls := LineString{Points: []Point{Pt(0, 6), Pt(4, 6)}}
	if d := DistanceGeometries(ls, pg); d != 2 {
		t.Errorf("line-polygon distance = %v", d)
	}
	if d := DistanceGeometries(Pt(0, 0), Pt(3, 4)); d != 5 {
		t.Errorf("point-point = %v", d)
	}
	r := NewRect(Pt(10, 0), Pt(11, 1))
	if d := DistanceGeometries(pg, r); d != 6 {
		t.Errorf("polygon-rect distance = %v, want 6", d)
	}
}

// Property: distance is symmetric and non-negative for all geometry pairs.
func TestDistanceGeometriesSymmetricProperty(t *testing.T) {
	f := func(ax, ay, bx, by, cx, cy float64) bool {
		ax, ay = clampCoord(ax), clampCoord(ay)
		bx, by = clampCoord(bx), clampCoord(by)
		cx, cy = clampCoord(cx), clampCoord(cy)
		geoms := []Geometry{
			Pt(ax, ay),
			NewRect(Pt(bx, by), Pt(bx+1, by+1)),
			Polygon{Ring: []Point{Pt(cx, cy), Pt(cx+2, cy), Pt(cx+1, cy+2)}},
			LineString{Points: []Point{Pt(ax, by), Pt(cx, ay)}},
		}
		for _, g1 := range geoms {
			for _, g2 := range geoms {
				d12 := DistanceGeometries(g1, g2)
				d21 := DistanceGeometries(g2, g1)
				if d12 < 0 || math.Abs(d12-d21) > 1e-9 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func clampCoord(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return math.Mod(v, 100)
}

// Property: haversine satisfies the triangle inequality on the sphere.
func TestHaversineTriangleProperty(t *testing.T) {
	f := func(lon1, lat1, lon2, lat2, lon3, lat3 float64) bool {
		p1 := Pt(math.Mod(clampCoord(lon1), 180), math.Mod(clampCoord(lat1), 85))
		p2 := Pt(math.Mod(clampCoord(lon2), 180), math.Mod(clampCoord(lat2), 85))
		p3 := Pt(math.Mod(clampCoord(lon3), 180), math.Mod(clampCoord(lat3), 85))
		d12 := HaversineKm.Dist(p1, p2)
		d23 := HaversineKm.Dist(p2, p3)
		d13 := HaversineKm.Dist(p1, p3)
		return d13 <= d12+d23+1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
