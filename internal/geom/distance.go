package geom

import (
	"fmt"
	"math"
	"strings"
)

// Metric selects how distances between points are measured.
type Metric uint8

const (
	// Euclidean is planar straight-line distance in coordinate units.
	Euclidean Metric = iota
	// HaversineMiles is great-circle distance in statute miles for points
	// whose X is longitude and Y is latitude, both in degrees. The EbolaKB
	// example in the paper (distance(L1, L2) < 150 miles) uses this metric.
	HaversineMiles
	// HaversineKm is great-circle distance in kilometres.
	HaversineKm
)

// ParseMetric reads a metric name, case-insensitively: "" or "euclidean",
// "miles" or "haversine_miles", "km" or "haversine_km". With String it is
// the one spelling table: the -metric flag, the metric name translate writes
// into SQL and the metric argument sqlx reads all go through it.
func ParseMetric(name string) (Metric, error) {
	switch strings.ToLower(name) {
	case "", "euclidean":
		return Euclidean, nil
	case "miles", "haversine_miles":
		return HaversineMiles, nil
	case "km", "haversine_km":
		return HaversineKm, nil
	default:
		return 0, fmt.Errorf("unknown metric %q", name)
	}
}

// String names the metric the way ParseMetric reads it.
func (m Metric) String() string {
	switch m {
	case HaversineMiles:
		return "miles"
	case HaversineKm:
		return "km"
	default:
		return "euclidean"
	}
}

// MarshalText writes the metric's name.
func (m Metric) MarshalText() ([]byte, error) { return []byte(m.String()), nil }

// UnmarshalText reads a metric name through ParseMetric.
func (m *Metric) UnmarshalText(text []byte) error {
	v, err := ParseMetric(string(text))
	if err != nil {
		return err
	}
	*m = v
	return nil
}

// Earth radii used by the haversine metrics.
const (
	earthRadiusMiles = 3958.7613
	earthRadiusKm    = 6371.0088
)

// Dist returns the distance between a and b under the metric.
func (m Metric) Dist(a, b Point) float64 {
	switch m {
	case HaversineMiles:
		return haversine(a, b, earthRadiusMiles)
	case HaversineKm:
		return haversine(a, b, earthRadiusKm)
	default:
		return Distance(a, b)
	}
}

// Distance returns the planar Euclidean distance between two points.
func Distance(a, b Point) float64 {
	dx, dy := a.X-b.X, a.Y-b.Y
	return math.Hypot(dx, dy)
}

// DistanceSq returns the squared planar Euclidean distance between two
// points. It avoids the square root for comparison-only uses such as index
// pruning.
func DistanceSq(a, b Point) float64 {
	dx, dy := a.X-b.X, a.Y-b.Y
	return dx*dx + dy*dy
}

func haversine(a, b Point, radius float64) float64 {
	lat1 := a.Y * math.Pi / 180
	lat2 := b.Y * math.Pi / 180
	dLat := (b.Y - a.Y) * math.Pi / 180
	dLon := (b.X - a.X) * math.Pi / 180
	s := math.Sin(dLat/2)*math.Sin(dLat/2) +
		math.Cos(lat1)*math.Cos(lat2)*math.Sin(dLon/2)*math.Sin(dLon/2)
	return 2 * radius * math.Asin(math.Min(1, math.Sqrt(s)))
}

// ExpandWindow grows a bounding box by radius d under the metric, for use
// as a filter window in index-assisted spatial joins and range queries. For
// geographic metrics the expansion converts the distance to conservative
// degree deltas (one degree of latitude ≈ 69 miles ≈ 111.19 km; longitude
// degrees shrink by cos(latitude), so the window expands by the widest
// delta needed within its latitude span).
func ExpandWindow(r Rect, d float64, m Metric) Rect {
	switch m {
	case HaversineMiles:
		return expandGeo(r, d/69.0)
	case HaversineKm:
		return expandGeo(r, d/111.19)
	default:
		return r.Expand(d)
	}
}

func expandGeo(r Rect, latDelta float64) Rect {
	maxAbsLat := math.Max(math.Abs(r.Min.Y-latDelta), math.Abs(r.Max.Y+latDelta))
	if maxAbsLat > 89 {
		maxAbsLat = 89
	}
	lonDelta := latDelta / math.Cos(maxAbsLat*math.Pi/180)
	return Rect{
		Min: Pt(r.Min.X-lonDelta, r.Min.Y-latDelta),
		Max: Pt(r.Max.X+lonDelta, r.Max.Y+latDelta),
	}
}

// DistancePointRect returns the smallest planar distance from p to any point
// of r; zero when p is inside r.
func DistancePointRect(p Point, r Rect) float64 {
	dx := math.Max(0, math.Max(r.Min.X-p.X, p.X-r.Max.X))
	dy := math.Max(0, math.Max(r.Min.Y-p.Y, p.Y-r.Max.Y))
	return math.Hypot(dx, dy)
}

// DistanceRects returns the smallest planar distance between any two points
// of a and b; zero when they intersect.
func DistanceRects(a, b Rect) float64 {
	dx := math.Max(0, math.Max(b.Min.X-a.Max.X, a.Min.X-b.Max.X))
	dy := math.Max(0, math.Max(b.Min.Y-a.Max.Y, a.Min.Y-b.Max.Y))
	return math.Hypot(dx, dy)
}

// DistancePointSegment returns the planar distance from p to the segment ab.
func DistancePointSegment(p, a, b Point) float64 {
	abx, aby := b.X-a.X, b.Y-a.Y
	apx, apy := p.X-a.X, p.Y-a.Y
	denom := abx*abx + aby*aby
	if denom == 0 {
		return Distance(p, a)
	}
	t := (apx*abx + apy*aby) / denom
	t = math.Max(0, math.Min(1, t))
	return Distance(p, Point{X: a.X + t*abx, Y: a.Y + t*aby})
}

// DistanceGeometries returns the planar distance between two geometries:
// zero when they intersect, otherwise the minimum separation. Only the
// combinations that arise from Sya's spatial predicates are supported;
// polygon–polygon and linestring combinations fall back to vertex/edge
// distance, which is exact for disjoint simple geometries.
func DistanceGeometries(a, b Geometry) float64 {
	if Intersects(a, b) {
		return 0
	}
	switch ga := a.(type) {
	case Point:
		switch gb := b.(type) {
		case Point:
			return Distance(ga, gb)
		case Rect:
			return DistancePointRect(ga, gb)
		case Polygon:
			return distPointRing(ga, gb.Ring)
		case LineString:
			return distPointPath(ga, gb.Points, false)
		}
	case Rect:
		switch gb := b.(type) {
		case Point:
			return DistancePointRect(gb, ga)
		case Rect:
			return DistanceRects(ga, gb)
		case Polygon:
			return distPathPath(rectRing(ga), gb.Ring, true, true)
		case LineString:
			return distPathPath(rectRing(ga), gb.Points, true, false)
		}
	case Polygon:
		switch gb := b.(type) {
		case Point:
			return distPointRing(gb, ga.Ring)
		case Rect:
			return distPathPath(ga.Ring, rectRing(gb), true, true)
		case Polygon:
			return distPathPath(ga.Ring, gb.Ring, true, true)
		case LineString:
			return distPathPath(ga.Ring, gb.Points, true, false)
		}
	case LineString:
		switch gb := b.(type) {
		case Point:
			return distPointPath(gb, ga.Points, false)
		case Rect:
			return distPathPath(ga.Points, rectRing(gb), false, true)
		case Polygon:
			return distPathPath(ga.Points, gb.Ring, false, true)
		case LineString:
			return distPathPath(ga.Points, gb.Points, false, false)
		}
	}
	return math.Inf(1)
}

func rectRing(r Rect) []Point {
	return []Point{
		r.Min,
		{X: r.Max.X, Y: r.Min.Y},
		r.Max,
		{X: r.Min.X, Y: r.Max.Y},
	}
}

// distPointRing returns the distance from p to the closed ring boundary.
func distPointRing(p Point, ring []Point) float64 {
	return distPointPath(p, ring, true)
}

func distPointPath(p Point, pts []Point, closed bool) float64 {
	if len(pts) == 0 {
		return math.Inf(1)
	}
	if len(pts) == 1 {
		return Distance(p, pts[0])
	}
	best := math.Inf(1)
	n := len(pts)
	last := n - 1
	if closed {
		last = n
	}
	for i := 0; i < last; i++ {
		d := DistancePointSegment(p, pts[i], pts[(i+1)%n])
		if d < best {
			best = d
		}
	}
	return best
}

func distPathPath(a, b []Point, aClosed, bClosed bool) float64 {
	best := math.Inf(1)
	for _, p := range a {
		if d := distPointPath(p, b, bClosed); d < best {
			best = d
		}
	}
	for _, p := range b {
		if d := distPointPath(p, a, aClosed); d < best {
			best = d
		}
	}
	return best
}
