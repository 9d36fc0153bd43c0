package grounding

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"

	"repro/internal/geom"
	"repro/internal/storage"
)

// identAgrees fails t unless the identities of a and b are equal exactly
// when their AtomKeys are.
func identAgrees(t *testing.T, rel string, a, b []storage.Value) {
	t.Helper()
	keyEq := AtomKey(rel, a) == AtomKey(rel, b)
	idEq := bytes.Equal(appendAtomIdent(nil, rel, a), appendAtomIdent(nil, rel, b))
	if keyEq != idEq {
		t.Errorf("AtomKeys %q and %q equal: %v; identities %q and %q equal: %v",
			AtomKey(rel, a), AtomKey(rel, b), keyEq,
			appendAtomIdent(nil, rel, a), appendAtomIdent(nil, rel, b), idEq)
	}
}

// textSpellsPoint reports the one pairing the identity does not follow
// AtomKey on: text at a position where the other atom has a point, spelling
// that point's WKT. A relation's columns are typed, so its atoms never pair
// so.
func textSpellsPoint(a, b []storage.Value) bool {
	spells := func(text, point storage.Value) bool {
		p, ok := point.G.(geom.Point)
		return ok && point.Kind == storage.KindGeom && text.Kind == storage.KindString && text.S == geom.MarshalWKT(p)
	}
	for i := range a {
		if spells(a[i], b[i]) || spells(b[i], a[i]) {
			return true
		}
	}
	return false
}

// pointIdent is the identity bytes appendAtomIdent writes for p.
func pointIdent(p geom.Point) string {
	return string(appendAtomIdent(nil, "r", []storage.Value{storage.Geom(p)})[len("r|"):])
}

// TestAtomIdentMatchesAtomKey checks every pair of a table of values, each
// alone and beside a companion value on either side: two identities are
// equal exactly when the AtomKeys are. The table covers −0 vs 0, NaN
// payloads, ±Inf, integral floats vs ints, text that spells another kind's
// rendering or holds '|', and a Rect vs its ring Polygon.
func TestAtomIdentMatchesAtomKey(t *testing.T) {
	negZero := math.Copysign(0, -1)
	nanA := math.Float64frombits(0x7ff8000000000001)
	nanB := math.Float64frombits(0xfff0000000000002)
	rect := geom.NewRect(geom.Pt(0, 0), geom.Pt(2, 1))
	ring := []geom.Point{geom.Pt(0, 0), geom.Pt(2, 0), geom.Pt(2, 1), geom.Pt(0, 1)}
	pt := func(x, y float64) storage.Value { return storage.Geom(geom.Pt(x, y)) }
	vals := []storage.Value{
		storage.Null,
		storage.Int(0), storage.Int(3), storage.Int(-1), storage.Int(math.MaxInt64),
		storage.Float(0), storage.Float(negZero), storage.Float(3), storage.Float(-1), storage.Float(0.1),
		storage.Float(math.NaN()), storage.Float(nanA), storage.Float(nanB),
		storage.Float(math.Inf(1)), storage.Float(math.Inf(-1)),
		storage.Bool(true), storage.Bool(false),
		storage.Str(""), storage.Str("3"), storage.Str("NULL"), storage.Str("true"), storage.Str("NaN"),
		storage.Str("a|b"), storage.Str("|"), storage.Str("\x00"), storage.Str("\x00\x01|"),
		storage.Str("POLYGON ((0 0, 2 0, 2 1, 0 1, 0 0))"), storage.Str("POINT (1.5 -2)"),
		storage.Str(pointIdent(geom.Pt(1.5, -2))),
		pt(0, 0), pt(negZero, 0), pt(0, negZero), pt(1.5, -2), pt(3, 0.1),
		pt(math.NaN(), 1), pt(nanA, 1), pt(nanB, 1), pt(1, math.NaN()),
		pt(math.Inf(1), math.Inf(-1)), pt(math.Inf(-1), math.Inf(1)),
		pt(math.Float64frombits(1), math.MaxFloat64),
		storage.Geom(rect),
		storage.Geom(geom.Polygon{Ring: ring}),
		storage.Geom(geom.Polygon{Ring: append(append([]geom.Point(nil), ring...), ring[0])}),
		storage.Geom(geom.LineString{Points: ring}),
	}
	companions := [][]storage.Value{
		nil,
		{storage.Int(7)},
		{storage.Str("x|y")},
		{pt(1, 2)},
		{storage.Str("\x00")},
	}
	for _, a := range vals {
		for _, b := range vals {
			for _, c := range companions {
				for _, pair := range [][2][]storage.Value{
					{append([]storage.Value{a}, c...), append([]storage.Value{b}, c...)},
					{append(append([]storage.Value(nil), c...), a), append(append([]storage.Value(nil), c...), b)},
				} {
					if !textSpellsPoint(pair[0], pair[1]) {
						identAgrees(t, "IsSafe", pair[0], pair[1])
					}
				}
			}
		}
	}

	// The pairs the table is there for, stated: which must meet and which
	// must not.
	same := [][2]storage.Value{
		{storage.Int(3), storage.Float(3)},
		{storage.Float(nanA), storage.Float(nanB)},
		{pt(nanA, 1), pt(nanB, 1)},
		{pt(math.NaN(), 1), pt(nanA, 1)},
		{storage.Geom(rect), storage.Geom(geom.Polygon{Ring: ring})},
		{storage.Null, storage.Str("NULL")},
	}
	differ := [][2]storage.Value{
		{storage.Float(0), storage.Float(negZero)},
		{pt(0, 0), pt(negZero, 0)},
		{pt(0, 0), pt(0, negZero)},
		{pt(math.Inf(1), math.Inf(-1)), pt(math.Inf(-1), math.Inf(1))},
		{pt(1.5, -2), pt(1.5, math.Nextafter(-2, 0))},
	}
	for _, p := range same {
		if !bytes.Equal(appendAtomIdent(nil, "r", p[:1]), appendAtomIdent(nil, "r", p[1:])) {
			t.Errorf("%v and %v have different identities", p[0], p[1])
		}
	}
	for _, p := range differ {
		if bytes.Equal(appendAtomIdent(nil, "r", p[:1]), appendAtomIdent(nil, "r", p[1:])) {
			t.Errorf("%v and %v share an identity", p[0], p[1])
		}
	}
	// Text holding '|' moves AtomKey's value boundaries, and two such atoms
	// still meet exactly when their keys do.
	identAgrees(t, "r",
		[]storage.Value{storage.Str("a|b"), storage.Str("c"), pt(1, 2)},
		[]storage.Value{storage.Str("a"), storage.Str("b|c"), pt(1, 2)})
	identAgrees(t, "r",
		[]storage.Value{storage.Str("a"), pt(1, 2), storage.Str("b|\x00")},
		[]storage.Value{storage.Str("a"), pt(1, 2), storage.Str("b")})
	// Text behind a '|' can carry a point's identity bytes, so atoms whose
	// text holds '|' are told apart by their rendered keys alone.
	p, q := geom.Pt(1, 2), geom.Pt(3, 4)
	identAgrees(t, "r",
		[]storage.Value{storage.Str("a"), storage.Geom(p), storage.Str("b|" + pointIdent(q) + "|c")},
		[]storage.Value{storage.Str("a|" + pointIdent(p) + "|b"), storage.Geom(q), storage.Str("c")})
	// Appending leaves what dst held alone.
	if got := appendAtomIdent([]byte("x="), "R", []storage.Value{storage.Int(1)}); string(got) != "x=r|1" {
		t.Errorf("appendAtomIdent(\"x=\", R, 1) = %q", got)
	}
}

// The fuzzed values are encoded as a kind byte and a fixed-width payload, so
// seeds can state exact floats and text; a short input reads as zeros.
const (
	fzNull = iota
	fzInt
	fzFloat
	fzBool
	fzText
	fzPoint
	fzRect
	fzPolygon
	fzLine
	fzKinds
)

// fuzzReader hands out the bytes of one fuzzed tuple.
type fuzzReader []byte

func (r *fuzzReader) byte() byte {
	if len(*r) == 0 {
		return 0
	}
	b := (*r)[0]
	*r = (*r)[1:]
	return b
}

func (r *fuzzReader) u64() uint64 {
	var buf [8]byte
	n := copy(buf[:], *r)
	*r = (*r)[n:]
	return binary.LittleEndian.Uint64(buf[:])
}

func (r *fuzzReader) point() geom.Point {
	return geom.Pt(math.Float64frombits(r.u64()), math.Float64frombits(r.u64()))
}

func (r *fuzzReader) points(n int) []geom.Point {
	pts := make([]geom.Point, n)
	for i := range pts {
		pts[i] = r.point()
	}
	return pts
}

func (r *fuzzReader) value() storage.Value {
	switch r.byte() % fzKinds {
	case fzInt:
		return storage.Int(int64(r.u64()))
	case fzFloat:
		return storage.Float(math.Float64frombits(r.u64()))
	case fzBool:
		return storage.Bool(r.byte()&1 == 1)
	case fzText:
		n := int(r.byte())
		s := make([]byte, 0, n)
		for i := 0; i < n && len(*r) > 0; i++ {
			s = append(s, r.byte())
		}
		return storage.Str(string(s))
	case fzPoint:
		return storage.Geom(r.point())
	case fzRect:
		return storage.Geom(geom.NewRect(r.point(), r.point()))
	case fzPolygon:
		return storage.Geom(geom.Polygon{Ring: r.points(3 + int(r.byte()%3))})
	case fzLine:
		return storage.Geom(geom.LineString{Points: r.points(2 + int(r.byte()%3))})
	default:
		return storage.Null
	}
}

// fuzzEncode is fuzzReader.value's inverse, for seeds.
func fuzzEncode(vals ...storage.Value) []byte {
	var out []byte
	putPts := func(pts ...geom.Point) {
		for _, p := range pts {
			out = binary.LittleEndian.AppendUint64(out, math.Float64bits(p.X))
			out = binary.LittleEndian.AppendUint64(out, math.Float64bits(p.Y))
		}
	}
	for _, v := range vals {
		switch v.Kind {
		case storage.KindInt:
			out = binary.LittleEndian.AppendUint64(append(out, fzInt), uint64(v.I))
		case storage.KindFloat:
			out = binary.LittleEndian.AppendUint64(append(out, fzFloat), math.Float64bits(v.F))
		case storage.KindBool:
			out = append(out, fzBool, byte(v.I))
		case storage.KindString:
			out = append(append(out, fzText, byte(len(v.S))), v.S...)
		case storage.KindGeom:
			switch g := v.G.(type) {
			case geom.Point:
				out = append(out, fzPoint)
				putPts(g)
			case geom.Rect:
				out = append(out, fzRect)
				putPts(g.Min, g.Max)
			case geom.Polygon:
				out = append(out, fzPolygon, byte(len(g.Ring)-3))
				putPts(g.Ring...)
			case geom.LineString:
				out = append(out, fzLine, byte(len(g.Points)-2))
				putPts(g.Points...)
			}
		default:
			out = append(out, fzNull)
		}
	}
	return out
}

// FuzzAtomIdent decodes two tuples of one arity and checks that their
// identities are equal exactly when their AtomKeys are, for any pair of
// value kinds except text spelling the WKT of the point it faces.
func FuzzAtomIdent(f *testing.F) {
	negZero := math.Copysign(0, -1)
	nanA := math.Float64frombits(0x7ff8000000000001)
	nanB := math.Float64frombits(0xfff0000000000002)
	ring := []geom.Point{geom.Pt(0, 0), geom.Pt(2, 0), geom.Pt(2, 1), geom.Pt(0, 1)}
	seeds := [][2][]storage.Value{
		{{storage.Float(0)}, {storage.Float(negZero)}},
		{{storage.Int(3)}, {storage.Float(3)}},
		{{storage.Float(nanA)}, {storage.Float(nanB)}},
		{{storage.Geom(geom.Pt(nanA, 1))}, {storage.Geom(geom.Pt(nanB, 1))}},
		{{storage.Geom(geom.Pt(0, 0))}, {storage.Geom(geom.Pt(negZero, 0))}},
		{{storage.Geom(geom.Pt(math.Inf(1), 2))}, {storage.Geom(geom.Pt(math.Inf(-1), 2))}},
		{{storage.Geom(geom.NewRect(geom.Pt(0, 0), geom.Pt(2, 1)))}, {storage.Geom(geom.Polygon{Ring: ring})}},
		{{storage.Str("a|b"), storage.Str("c")}, {storage.Str("a"), storage.Str("b|c")}},
		{{storage.Int(1), storage.Geom(geom.Pt(1, 2))}, {storage.Int(1), storage.Geom(geom.Pt(1, 2))}},
		{{storage.Null}, {storage.Str("NULL")}},
		{{storage.Str("\x00")}, {storage.Null}},
	}
	for _, s := range seeds {
		f.Add(uint8(len(s[0])), fuzzEncode(s[0]...), fuzzEncode(s[1]...))
	}
	f.Fuzz(func(t *testing.T, arity uint8, ra, rb []byte) {
		n := 1 + int(arity%3)
		a, b := make([]storage.Value, n), make([]storage.Value, n)
		r, s := fuzzReader(ra), fuzzReader(rb)
		for i := 0; i < n; i++ {
			a[i], b[i] = r.value(), s.value()
		}
		if textSpellsPoint(a, b) {
			return
		}
		identAgrees(t, "r", a, b)
	})
}
