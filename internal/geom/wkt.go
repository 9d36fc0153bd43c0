package geom

import (
	"fmt"
	"strconv"
	"strings"
)

// This file implements a small Well-Known Text (WKT) codec conforming to the
// OGC simple-features syntax for the four types Sya supports. The cmd/sya
// CLI uses it to load spatial attributes from CSV files, and the storage
// layer uses it to print spatial values.

// MarshalWKT renders g in OGC WKT.
func MarshalWKT(g Geometry) string { return string(AppendWKT(nil, g)) }

// AppendWKT appends the OGC WKT rendering of g to dst: the allocation-free
// form of MarshalWKT for callers that reuse a buffer.
func AppendWKT(dst []byte, g Geometry) []byte {
	switch gg := g.(type) {
	case Point:
		dst = append(dst, "POINT ("...)
		dst = appendCoord(dst, gg)
		return append(dst, ')')
	case Rect:
		// WKT has no rectangle type; encode as its ring polygon.
		return appendRing(dst, "POLYGON ((", rectRing(gg), true)
	case Polygon:
		return appendRing(dst, "POLYGON ((", gg.Ring, true)
	case LineString:
		return appendRing(dst, "LINESTRING (", gg.Points, false)
	default:
		return append(dst, "GEOMETRY EMPTY"...)
	}
}

func appendCoord(dst []byte, p Point) []byte {
	dst = strconv.AppendFloat(dst, p.X, 'g', -1, 64)
	dst = append(dst, ' ')
	return strconv.AppendFloat(dst, p.Y, 'g', -1, 64)
}

func appendRing(dst []byte, prefix string, pts []Point, closeRing bool) []byte {
	dst = append(dst, prefix...)
	for i, p := range pts {
		if i > 0 {
			dst = append(dst, ", "...)
		}
		dst = appendCoord(dst, p)
	}
	if closeRing && len(pts) > 0 && pts[0] != pts[len(pts)-1] {
		dst = append(dst, ", "...)
		dst = appendCoord(dst, pts[0])
	}
	if closeRing {
		return append(dst, "))"...)
	}
	return append(dst, ')')
}

// ParseWKT parses a WKT string into a Geometry. POINT, LINESTRING and
// POLYGON (single exterior ring) are supported; a closed 4-corner
// axis-aligned polygon still parses as Polygon (Rect is an internal
// optimization type, produced by NewRect, not by parsing).
func ParseWKT(s string) (Geometry, error) {
	s = strings.TrimSpace(s)
	upper := strings.ToUpper(s)
	switch {
	case strings.HasPrefix(upper, "POINT"):
		coords, err := parseCoordList(s[len("POINT"):])
		if err != nil {
			return nil, fmt.Errorf("geom: bad POINT: %w", err)
		}
		if len(coords) != 1 {
			return nil, fmt.Errorf("geom: POINT needs exactly one coordinate, got %d", len(coords))
		}
		return coords[0], nil
	case strings.HasPrefix(upper, "LINESTRING"):
		coords, err := parseCoordList(s[len("LINESTRING"):])
		if err != nil {
			return nil, fmt.Errorf("geom: bad LINESTRING: %w", err)
		}
		if len(coords) < 2 {
			return nil, fmt.Errorf("geom: LINESTRING needs at least two coordinates, got %d", len(coords))
		}
		return LineString{Points: coords}, nil
	case strings.HasPrefix(upper, "POLYGON"):
		body := strings.TrimSpace(s[len("POLYGON"):])
		body = strings.TrimPrefix(body, "(")
		body = strings.TrimSuffix(body, ")")
		coords, err := parseCoordList(body)
		if err != nil {
			return nil, fmt.Errorf("geom: bad POLYGON: %w", err)
		}
		// Drop the repeated closing vertex, if present.
		if len(coords) > 1 && coords[0] == coords[len(coords)-1] {
			coords = coords[:len(coords)-1]
		}
		if len(coords) < 3 {
			return nil, fmt.Errorf("geom: POLYGON ring needs at least three distinct vertices, got %d", len(coords))
		}
		return Polygon{Ring: coords}, nil
	}
	return nil, fmt.Errorf("geom: unsupported WKT %q", s)
}

func parseCoordList(s string) ([]Point, error) {
	s = strings.TrimSpace(s)
	s = strings.TrimPrefix(s, "(")
	s = strings.TrimSuffix(s, ")")
	parts := strings.Split(s, ",")
	pts := make([]Point, 0, len(parts))
	for _, part := range parts {
		fields := strings.Fields(strings.TrimSpace(part))
		if len(fields) != 2 {
			return nil, fmt.Errorf("coordinate %q is not two numbers", part)
		}
		x, err := strconv.ParseFloat(fields[0], 64)
		if err != nil {
			return nil, fmt.Errorf("bad x %q: %w", fields[0], err)
		}
		y, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			return nil, fmt.Errorf("bad y %q: %w", fields[1], err)
		}
		pts = append(pts, Point{X: x, Y: y})
	}
	return pts, nil
}
