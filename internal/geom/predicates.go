package geom

import "math"

// This file implements the spatial predicates Sya adds to DDlog rule bodies
// (paper Section III, "Spatial Predicates"): within, overlaps, intersects,
// contains, and distance checks. The grounding module evaluates these during
// rule translation and execution (Section IV-B).

// segIntersects reports whether segments p1p2 and p3p4 share a point,
// including collinear overlap and endpoint touching.
func segIntersects(p1, p2, p3, p4 Point) bool {
	d1 := cross(p3, p4, p1)
	d2 := cross(p3, p4, p2)
	d3 := cross(p1, p2, p3)
	d4 := cross(p1, p2, p4)
	if ((d1 > 0 && d2 < 0) || (d1 < 0 && d2 > 0)) &&
		((d3 > 0 && d4 < 0) || (d3 < 0 && d4 > 0)) {
		return true
	}
	switch {
	case d1 == 0 && onSegment(p3, p4, p1):
		return true
	case d2 == 0 && onSegment(p3, p4, p2):
		return true
	case d3 == 0 && onSegment(p1, p2, p3):
		return true
	case d4 == 0 && onSegment(p1, p2, p4):
		return true
	}
	return false
}

// cross returns the z-component of (b-a) × (c-a).
func cross(a, b, c Point) float64 {
	return (b.X-a.X)*(c.Y-a.Y) - (b.Y-a.Y)*(c.X-a.X)
}

// onSegment reports whether c, known collinear with ab, lies on segment ab.
func onSegment(a, b, c Point) bool {
	return math.Min(a.X, b.X) <= c.X && c.X <= math.Max(a.X, b.X) &&
		math.Min(a.Y, b.Y) <= c.Y && c.Y <= math.Max(a.Y, b.Y)
}

// PointInPolygon reports whether p is inside the polygon (boundary
// inclusive), by ray casting with an explicit boundary check.
func PointInPolygon(p Point, pg Polygon) bool {
	n := len(pg.Ring)
	if n < 3 {
		return false
	}
	// Boundary counts as inside, matching the OGC "within" convention used
	// by the grounding queries.
	for i := 0; i < n; i++ {
		a, b := pg.Ring[i], pg.Ring[(i+1)%n]
		if cross(a, b, p) == 0 && onSegment(a, b, p) {
			return true
		}
	}
	inside := false
	for i, j := 0, n-1; i < n; j, i = i, i+1 {
		a, b := pg.Ring[i], pg.Ring[j]
		if (a.Y > p.Y) != (b.Y > p.Y) {
			xAtY := a.X + (p.Y-a.Y)*(b.X-a.X)/(b.Y-a.Y)
			if p.X < xAtY {
				inside = !inside
			}
		}
	}
	return inside
}

func ringEdgesIntersect(a, b []Point, aClosed, bClosed bool) bool {
	na, nb := len(a), len(b)
	lastA, lastB := na-1, nb-1
	if aClosed {
		lastA = na
	}
	if bClosed {
		lastB = nb
	}
	for i := 0; i < lastA; i++ {
		for j := 0; j < lastB; j++ {
			if segIntersects(a[i], a[(i+1)%na], b[j], b[(j+1)%nb]) {
				return true
			}
		}
	}
	return false
}

// Intersects reports whether two geometries share at least one point
// (the OGC "intersects" / the paper's overlaps-style predicate for any
// geometry pair).
func Intersects(a, b Geometry) bool {
	if !a.Bounds().Intersects(b.Bounds()) {
		return false
	}
	switch ga := a.(type) {
	case Point:
		return geomCoversPoint(b, ga)
	case Rect:
		switch gb := b.(type) {
		case Point:
			return ga.ContainsPoint(gb)
		case Rect:
			return ga.Intersects(gb)
		case Polygon:
			return polygonIntersectsRect(gb, ga)
		case LineString:
			return lineIntersectsRect(gb, ga)
		}
	case Polygon:
		switch gb := b.(type) {
		case Point:
			return PointInPolygon(gb, ga)
		case Rect:
			return polygonIntersectsRect(ga, gb)
		case Polygon:
			return polygonsIntersect(ga, gb)
		case LineString:
			return lineIntersectsPolygon(gb, ga)
		}
	case LineString:
		switch gb := b.(type) {
		case Point:
			return pointOnLine(gb, ga)
		case Rect:
			return lineIntersectsRect(ga, gb)
		case Polygon:
			return lineIntersectsPolygon(ga, gb)
		case LineString:
			return ringEdgesIntersect(ga.Points, gb.Points, false, false)
		}
	}
	return false
}

func geomCoversPoint(g Geometry, p Point) bool {
	switch gg := g.(type) {
	case Point:
		return gg == p
	case Rect:
		return gg.ContainsPoint(p)
	case Polygon:
		return PointInPolygon(p, gg)
	case LineString:
		return pointOnLine(p, gg)
	}
	return false
}

func pointOnLine(p Point, ls LineString) bool {
	for i := 0; i+1 < len(ls.Points); i++ {
		a, b := ls.Points[i], ls.Points[i+1]
		if cross(a, b, p) == 0 && onSegment(a, b, p) {
			return true
		}
	}
	return len(ls.Points) == 1 && ls.Points[0] == p
}

func polygonIntersectsRect(pg Polygon, r Rect) bool {
	rr := Polygon{Ring: rectRing(r)}
	return polygonsIntersect(pg, rr)
}

func polygonsIntersect(a, b Polygon) bool {
	if len(a.Ring) < 3 || len(b.Ring) < 3 {
		return false
	}
	if ringEdgesIntersect(a.Ring, b.Ring, true, true) {
		return true
	}
	// One polygon fully inside the other.
	return PointInPolygon(b.Ring[0], a) || PointInPolygon(a.Ring[0], b)
}

func lineIntersectsPolygon(ls LineString, pg Polygon) bool {
	if len(ls.Points) == 0 {
		return false
	}
	if ringEdgesIntersect(ls.Points, pg.Ring, false, true) {
		return true
	}
	return PointInPolygon(ls.Points[0], pg)
}

func lineIntersectsRect(ls LineString, r Rect) bool {
	for _, p := range ls.Points {
		if r.ContainsPoint(p) {
			return true
		}
	}
	return ringEdgesIntersect(ls.Points, rectRing(r), false, true)
}

// Within reports whether geometry a lies entirely inside geometry b
// (the paper's "within(liberia_geom, L1)"-style predicate, boundary
// inclusive). Supported containers are Rect and Polygon; a Point container
// contains only an equal Point.
func Within(a, b Geometry) bool {
	switch gb := b.(type) {
	case Point:
		ga, ok := a.(Point)
		return ok && ga == gb
	case Rect:
		switch ga := a.(type) {
		case Point:
			return gb.ContainsPoint(ga)
		case Rect:
			return gb.ContainsRect(ga)
		case Polygon:
			return gb.ContainsRect(ga.Bounds())
		case LineString:
			return gb.ContainsRect(ga.Bounds())
		}
	case Polygon:
		switch ga := a.(type) {
		case Point:
			return PointInPolygon(ga, gb)
		case Rect:
			return polygonContainsPath(gb, rectRing(ga), true)
		case Polygon:
			return polygonContainsPath(gb, ga.Ring, true)
		case LineString:
			return polygonContainsPath(gb, ga.Points, false)
		}
	case LineString:
		ga, ok := a.(Point)
		return ok && pointOnLine(ga, gb)
	}
	return false
}

// polygonContainsPath reports whether every vertex of the path is inside pg
// and no path edge crosses out of pg. For convex pg this is exact; for
// concave pg it is exact except for edges that pass through pg's boundary
// tangentially, which do not arise from the rule workloads in this repo.
func polygonContainsPath(pg Polygon, pts []Point, closed bool) bool {
	if len(pts) == 0 {
		return false
	}
	for _, p := range pts {
		if !PointInPolygon(p, pg) {
			return false
		}
	}
	n := len(pts)
	last := n - 1
	if closed {
		last = n
	}
	for i := 0; i < last; i++ {
		a, b := pts[i], pts[(i+1)%n]
		mid := Point{X: (a.X + b.X) / 2, Y: (a.Y + b.Y) / 2}
		if !PointInPolygon(mid, pg) {
			return false
		}
	}
	return true
}

// Contains reports whether geometry a entirely contains geometry b.
func Contains(a, b Geometry) bool { return Within(b, a) }

// Overlaps reports whether two geometries overlap: they intersect and
// neither contains the other. For point/point it degenerates to equality,
// matching the loose use of "overlaps" in the paper's predicate list.
func Overlaps(a, b Geometry) bool {
	if !Intersects(a, b) {
		return false
	}
	if _, ok := a.(Point); ok {
		return true
	}
	if _, ok := b.(Point); ok {
		return true
	}
	return !Within(a, b) && !Within(b, a)
}
