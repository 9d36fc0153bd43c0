package geom

import (
	"math/rand"
	"testing"
	"testing/quick"
)

var unitSquare = Polygon{Ring: []Point{Pt(0, 0), Pt(4, 0), Pt(4, 4), Pt(0, 4)}}

func TestPointInPolygon(t *testing.T) {
	cases := []struct {
		p    Point
		want bool
	}{
		{Pt(2, 2), true},
		{Pt(0, 0), true},  // vertex
		{Pt(2, 0), true},  // edge
		{Pt(4, 4), true},  // vertex
		{Pt(5, 2), false}, // outside right
		{Pt(-0.001, 2), false},
		{Pt(2, 4.001), false},
	}
	for _, c := range cases {
		if got := PointInPolygon(c.p, unitSquare); got != c.want {
			t.Errorf("PointInPolygon(%v) = %v, want %v", c.p, got, c.want)
		}
	}
}

func TestPointInConcavePolygon(t *testing.T) {
	// A "U" shape: notch from above.
	u := Polygon{Ring: []Point{
		Pt(0, 0), Pt(6, 0), Pt(6, 4), Pt(4, 4), Pt(4, 2), Pt(2, 2), Pt(2, 4), Pt(0, 4),
	}}
	if !PointInPolygon(Pt(1, 3), u) {
		t.Error("left arm should be inside")
	}
	if !PointInPolygon(Pt(5, 3), u) {
		t.Error("right arm should be inside")
	}
	if PointInPolygon(Pt(3, 3), u) {
		t.Error("notch should be outside")
	}
	if !PointInPolygon(Pt(3, 1), u) {
		t.Error("base should be inside")
	}
}

func TestPointInPolygonDegenerate(t *testing.T) {
	if PointInPolygon(Pt(0, 0), Polygon{Ring: []Point{Pt(0, 0), Pt(1, 1)}}) {
		t.Error("2-vertex polygon should contain nothing")
	}
}

func TestIntersects(t *testing.T) {
	cases := []struct {
		name string
		a, b Geometry
		want bool
	}{
		{"point-point equal", Pt(1, 1), Pt(1, 1), true},
		{"point-point diff", Pt(1, 1), Pt(1, 2), false},
		{"point-in-rect", Pt(1, 1), NewRect(Pt(0, 0), Pt(2, 2)), true},
		{"point-out-rect", Pt(3, 3), NewRect(Pt(0, 0), Pt(2, 2)), false},
		{"rect-rect overlap", NewRect(Pt(0, 0), Pt(2, 2)), NewRect(Pt(1, 1), Pt(3, 3)), true},
		{"rect-rect disjoint", NewRect(Pt(0, 0), Pt(1, 1)), NewRect(Pt(2, 2), Pt(3, 3)), false},
		{"point-in-poly", Pt(2, 2), unitSquare, true},
		{"poly-poly cross", unitSquare, Polygon{Ring: []Point{Pt(3, 3), Pt(6, 3), Pt(6, 6), Pt(3, 6)}}, true},
		{"poly-poly nested", unitSquare, Polygon{Ring: []Point{Pt(1, 1), Pt(2, 1), Pt(2, 2), Pt(1, 2)}}, true},
		{"poly-poly disjoint", unitSquare, Polygon{Ring: []Point{Pt(10, 10), Pt(12, 10), Pt(11, 12)}}, false},
		{"line-poly cross", LineString{Points: []Point{Pt(-1, 2), Pt(5, 2)}}, unitSquare, true},
		{"line-poly inside", LineString{Points: []Point{Pt(1, 1), Pt(2, 2)}}, unitSquare, true},
		{"line-poly out", LineString{Points: []Point{Pt(5, 5), Pt(6, 6)}}, unitSquare, false},
		{"line-line cross", LineString{Points: []Point{Pt(0, 0), Pt(2, 2)}}, LineString{Points: []Point{Pt(0, 2), Pt(2, 0)}}, true},
		{"line-line parallel", LineString{Points: []Point{Pt(0, 0), Pt(2, 0)}}, LineString{Points: []Point{Pt(0, 1), Pt(2, 1)}}, false},
		{"point-on-line", Pt(1, 1), LineString{Points: []Point{Pt(0, 0), Pt(2, 2)}}, true},
		{"point-off-line", Pt(1, 0), LineString{Points: []Point{Pt(0, 0), Pt(2, 2)}}, false},
		{"rect-poly overlap", NewRect(Pt(3, 3), Pt(5, 5)), unitSquare, true},
		{"line-rect cross", LineString{Points: []Point{Pt(-1, 1), Pt(5, 1)}}, NewRect(Pt(0, 0), Pt(2, 2)), true},
		{"line-rect inside", LineString{Points: []Point{Pt(0.5, 0.5), Pt(1, 1)}}, NewRect(Pt(0, 0), Pt(2, 2)), true},
	}
	for _, c := range cases {
		if got := Intersects(c.a, c.b); got != c.want {
			t.Errorf("%s: Intersects = %v, want %v", c.name, got, c.want)
		}
		if got := Intersects(c.b, c.a); got != c.want {
			t.Errorf("%s (swapped): Intersects = %v, want %v", c.name, got, c.want)
		}
	}
}

func TestWithin(t *testing.T) {
	cases := []struct {
		name string
		a, b Geometry
		want bool
	}{
		{"point-in-poly", Pt(2, 2), unitSquare, true},
		{"point-out-poly", Pt(5, 5), unitSquare, false},
		{"point-in-rect", Pt(1, 1), NewRect(Pt(0, 0), Pt(2, 2)), true},
		{"rect-in-rect", NewRect(Pt(1, 1), Pt(2, 2)), NewRect(Pt(0, 0), Pt(3, 3)), true},
		{"rect-not-in-rect", NewRect(Pt(1, 1), Pt(4, 4)), NewRect(Pt(0, 0), Pt(3, 3)), false},
		{"poly-in-rect", Polygon{Ring: []Point{Pt(1, 1), Pt(2, 1), Pt(2, 2)}}, NewRect(Pt(0, 0), Pt(3, 3)), true},
		{"poly-in-poly", Polygon{Ring: []Point{Pt(1, 1), Pt(2, 1), Pt(2, 2)}}, unitSquare, true},
		{"poly-partial", Polygon{Ring: []Point{Pt(3, 3), Pt(5, 3), Pt(5, 5)}}, unitSquare, false},
		{"line-in-poly", LineString{Points: []Point{Pt(1, 1), Pt(3, 3)}}, unitSquare, true},
		{"line-exits-poly", LineString{Points: []Point{Pt(1, 1), Pt(5, 5)}}, unitSquare, false},
		{"point-eq-point", Pt(1, 1), Pt(1, 1), true},
		{"point-ne-point", Pt(1, 1), Pt(1, 2), false},
		{"point-on-linestring", Pt(1, 1), LineString{Points: []Point{Pt(0, 0), Pt(2, 2)}}, true},
	}
	for _, c := range cases {
		if got := Within(c.a, c.b); got != c.want {
			t.Errorf("%s: Within = %v, want %v", c.name, got, c.want)
		}
	}
	// Contains is the inverse.
	if !Contains(unitSquare, Pt(2, 2)) || Contains(Pt(2, 2), unitSquare) {
		t.Error("Contains/Within inversion broken")
	}
}

func TestOverlaps(t *testing.T) {
	a := NewRect(Pt(0, 0), Pt(2, 2))
	b := NewRect(Pt(1, 1), Pt(3, 3))
	inner := NewRect(Pt(0.5, 0.5), Pt(1, 1))
	far := NewRect(Pt(5, 5), Pt(6, 6))
	if !Overlaps(a, b) {
		t.Error("partially overlapping rects should overlap")
	}
	if Overlaps(a, inner) {
		t.Error("contained rect should not 'overlap'")
	}
	if Overlaps(a, far) {
		t.Error("disjoint rects should not overlap")
	}
	if !Overlaps(Pt(1, 1), a) {
		t.Error("point intersecting counts as overlap per Sya predicate semantics")
	}
}

// Property: a random point strictly inside the convex hull triangle is
// reported inside, and a far translation of it is reported outside.
func TestPointInPolygonProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 500; i++ {
		tri := Polygon{Ring: []Point{
			Pt(rng.Float64()*10, rng.Float64()*10),
			Pt(10+rng.Float64()*10, rng.Float64()*10),
			Pt(rng.Float64()*20, 10+rng.Float64()*10),
		}}
		// Barycentric interior point.
		w1, w2 := 0.2+0.3*rng.Float64(), 0.2+0.3*rng.Float64()
		w3 := 1 - w1 - w2
		p := Pt(
			w1*tri.Ring[0].X+w2*tri.Ring[1].X+w3*tri.Ring[2].X,
			w1*tri.Ring[0].Y+w2*tri.Ring[1].Y+w3*tri.Ring[2].Y,
		)
		if !PointInPolygon(p, tri) {
			t.Fatalf("interior point %v not inside %v", p, tri)
		}
		if PointInPolygon(Pt(p.X+1000, p.Y+1000), tri) {
			t.Fatalf("far point inside %v", tri)
		}
	}
}

// Property: Within implies Intersects for point/rect/polygon combinations.
func TestWithinImpliesIntersectsProperty(t *testing.T) {
	f := func(x, y, w, h float64) bool {
		x, y = clampCoord(x), clampCoord(y)
		w, h = 1+mod1(w)*5, 1+mod1(h)*5
		inner := Pt(x+w/2, y+h/2)
		outer := NewRect(Pt(x, y), Pt(x+w, y+h))
		if Within(inner, outer) && !Intersects(inner, outer) {
			return false
		}
		pg := Polygon{Ring: []Point{Pt(x, y), Pt(x+w, y), Pt(x+w, y+h), Pt(x, y+h)}}
		return !Within(inner, pg) || Intersects(inner, pg)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func mod1(v float64) float64 {
	v = clampCoord(v)
	if v < 0 {
		v = -v
	}
	for v > 1 {
		v /= 10
	}
	return v
}
