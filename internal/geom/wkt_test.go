package geom

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
)

func TestWKTPointRoundTrip(t *testing.T) {
	p := Pt(-10.8047, 6.3156)
	s := MarshalWKT(p)
	if s != "POINT (-10.8047 6.3156)" {
		t.Errorf("MarshalWKT = %q", s)
	}
	g, err := ParseWKT(s)
	if err != nil {
		t.Fatal(err)
	}
	if g != p {
		t.Errorf("round trip = %v, want %v", g, p)
	}
}

func TestWKTPolygonRoundTrip(t *testing.T) {
	pg := Polygon{Ring: []Point{Pt(0, 0), Pt(4, 0), Pt(4, 4), Pt(0, 4)}}
	s := MarshalWKT(pg)
	g, err := ParseWKT(s)
	if err != nil {
		t.Fatal(err)
	}
	got, ok := g.(Polygon)
	if !ok {
		t.Fatalf("parsed %T, want Polygon", g)
	}
	if len(got.Ring) != len(pg.Ring) {
		t.Fatalf("ring size = %d, want %d", len(got.Ring), len(pg.Ring))
	}
	for i := range pg.Ring {
		if got.Ring[i] != pg.Ring[i] {
			t.Errorf("vertex %d = %v, want %v", i, got.Ring[i], pg.Ring[i])
		}
	}
}

func TestWKTLineStringRoundTrip(t *testing.T) {
	ls := LineString{Points: []Point{Pt(0, 0), Pt(1, 2), Pt(3, -1)}}
	g, err := ParseWKT(MarshalWKT(ls))
	if err != nil {
		t.Fatal(err)
	}
	got, ok := g.(LineString)
	if !ok || len(got.Points) != 3 {
		t.Fatalf("parsed %v", g)
	}
}

func TestWKTRectMarshalsAsPolygon(t *testing.T) {
	r := NewRect(Pt(0, 0), Pt(2, 3))
	g, err := ParseWKT(MarshalWKT(r))
	if err != nil {
		t.Fatal(err)
	}
	pg, ok := g.(Polygon)
	if !ok {
		t.Fatalf("rect should round-trip as polygon, got %T", g)
	}
	if b := pg.Bounds(); b != r {
		t.Errorf("bounds = %+v, want %+v", b, r)
	}
}

func TestWKTCaseInsensitiveAndErrors(t *testing.T) {
	if _, err := ParseWKT("point (1 2)"); err != nil {
		t.Errorf("lowercase point: %v", err)
	}
	bad := []string{
		"",
		"CIRCLE (1 2 3)",
		"POINT (1)",
		"POINT (1 2, 3 4)",
		"POINT (a b)",
		"LINESTRING (1 1)",
		"POLYGON ((0 0, 1 1))",
	}
	for _, s := range bad {
		if _, err := ParseWKT(s); err == nil {
			t.Errorf("ParseWKT(%q) should fail", s)
		}
	}
}

func TestWKTFuzzRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 200; i++ {
		p := Pt(rng.NormFloat64()*100, rng.NormFloat64()*100)
		g, err := ParseWKT(MarshalWKT(p))
		if err != nil {
			t.Fatalf("point %v: %v", p, err)
		}
		if g != p {
			t.Fatalf("round trip %v != %v", g, p)
		}
	}
}

// FuzzWKT holds the WKT codec to two properties. ParseWKT(AppendWKT(g))
// returns g for every geometry built from the fuzzed float bits: a point or
// line string as is, a polygon whose ring does not already end on its first
// vertex (WKT cannot tell such a ring's last vertex from the closing one),
// and a rectangle as its ring polygon. Ring coordinates exclude NaN, which
// never equals itself, so ring closure cannot see it. And ParseWKT never
// panics on arbitrary text, nor does rendering what it parsed. The point
// round trip is what makes point rendering injective up to NaN payload —
// two points with one WKT parse back to one point — and the grounding
// module's identity keys rest on that.
func FuzzWKT(f *testing.F) {
	bits := func(fs ...float64) []byte {
		var out []byte
		for _, x := range fs {
			out = binary.LittleEndian.AppendUint64(out, math.Float64bits(x))
		}
		return out
	}
	negZero := math.Copysign(0, -1)
	f.Add(uint8(0), bits(1.5, -2), "POINT (1 2)")
	f.Add(uint8(0), bits(negZero, math.Float64frombits(0x7ff8000000000001)), "point(-0 NaN)")
	f.Add(uint8(0), bits(math.Inf(1), math.Inf(-1)), "POINT (+Inf -Inf)")
	f.Add(uint8(0), bits(math.Float64frombits(1), math.MaxFloat64), "POINT (5e-324 1.7976931348623157e+308)")
	f.Add(uint8(1), bits(0, 0, 1, 1, 2, 0.25), "LINESTRING (0 0, 1 1, 2 0.25)")
	f.Add(uint8(2), bits(0, 0, 4, 0, 0, 3.5), "POLYGON ((0 0, 4 0, 0 3.5, 0 0))")
	f.Add(uint8(3), bits(2, 1, 0, 0), "POLYGON ((0 0, 1 1, 0 0, 0 0))")
	f.Add(uint8(3), bits(0, 0, 2, 0), "POLYGON ((")
	f.Fuzz(func(t *testing.T, kind uint8, raw []byte, text string) {
		if g, err := ParseWKT(text); err == nil {
			AppendWKT(nil, g)
		}
		var fs []float64
		for len(raw) > 0 && len(fs) < 32 {
			var buf [8]byte
			raw = raw[copy(buf[:], raw):]
			fs = append(fs, math.Float64frombits(binary.LittleEndian.Uint64(buf[:])))
		}
		pts := func(min int, finite bool) []Point {
			for len(fs) < 2*min || len(fs)%2 == 1 {
				fs = append(fs, 0)
			}
			out := make([]Point, len(fs)/2)
			for i := range out {
				out[i] = Pt(fs[2*i], fs[2*i+1])
				if finite && out[i].X != out[i].X {
					out[i].X = 0
				}
				if finite && out[i].Y != out[i].Y {
					out[i].Y = 0
				}
			}
			return out
		}
		var g, want Geometry
		switch kind % 4 {
		case 0:
			p := pts(1, false)[0]
			g, want = p, p
		case 1:
			ls := LineString{Points: pts(2, false)}
			g, want = ls, ls
		case 2:
			ring := pts(3, true)
			if ring[0] == ring[len(ring)-1] {
				return
			}
			g, want = Polygon{Ring: ring}, Polygon{Ring: ring}
		case 3:
			c := pts(2, true)
			r := NewRect(c[0], c[1])
			if r.Min.Y == r.Max.Y {
				return
			}
			g, want = r, Polygon{Ring: rectRing(r)}
		}
		wkt := AppendWKT(nil, g)
		got, err := ParseWKT(string(wkt))
		if err != nil {
			t.Fatalf("ParseWKT(%q) of %#v: %v", wkt, g, err)
		}
		if !sameGeometry(got, want) {
			t.Fatalf("ParseWKT(%q) = %#v, want %#v", wkt, got, want)
		}
	})
}

// sameGeometry is geometry equality with coordinates compared by bits, every
// NaN equal to every other.
func sameGeometry(a, b Geometry) bool {
	sameFloat := func(x, y float64) bool {
		return math.Float64bits(x) == math.Float64bits(y) || (x != x && y != y)
	}
	samePts := func(p, q []Point) bool {
		if len(p) != len(q) {
			return false
		}
		for i := range p {
			if !sameFloat(p[i].X, q[i].X) || !sameFloat(p[i].Y, q[i].Y) {
				return false
			}
		}
		return true
	}
	switch a := a.(type) {
	case Point:
		b, ok := b.(Point)
		return ok && samePts([]Point{a}, []Point{b})
	case LineString:
		b, ok := b.(LineString)
		return ok && samePts(a.Points, b.Points)
	case Polygon:
		b, ok := b.(Polygon)
		return ok && samePts(a.Ring, b.Ring)
	}
	return false
}
