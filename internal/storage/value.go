// Package storage provides the embedded relational substrate that Sya
// grounds against (paper Section IV-B). The paper executes translated rule
// queries on PostgreSQL/PostGIS; this package plays that role: typed
// schemas and append-only in-memory tables. It keeps no indexes: the query
// engine builds the one a query needs on the fly (sqlx's per-query spatial
// join index) and drops it afterwards.
package storage

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/geom"
)

// Kind enumerates the column/value types supported by the store. These
// mirror the DDlog schema types of the paper's language module: bigint,
// double, bool, text, plus the four spatial types (point, rectangle,
// polygon, linestring) carried as Geom values.
type Kind uint8

// Value kinds.
const (
	KindNull Kind = iota
	KindInt
	KindFloat
	KindBool
	KindString
	KindGeom
)

// String returns the SQL-ish name of the kind.
func (k Kind) String() string {
	switch k {
	case KindNull:
		return "null"
	case KindInt:
		return "bigint"
	case KindFloat:
		return "double"
	case KindBool:
		return "bool"
	case KindString:
		return "text"
	case KindGeom:
		return "geometry"
	default:
		return fmt.Sprintf("storage.Kind(%d)", uint8(k))
	}
}

// Value is a tagged-union runtime value. The zero Value is NULL.
type Value struct {
	Kind Kind
	I    int64
	F    float64
	S    string
	G    geom.Geometry
}

// Null is the NULL value.
var Null = Value{}

// Int returns an integer value.
func Int(v int64) Value { return Value{Kind: KindInt, I: v} }

// Float returns a double value.
func Float(v float64) Value { return Value{Kind: KindFloat, F: v} }

// Bool returns a boolean value.
func Bool(v bool) Value {
	if v {
		return Value{Kind: KindBool, I: 1}
	}
	return Value{Kind: KindBool}
}

// Str returns a text value.
func Str(v string) Value { return Value{Kind: KindString, S: v} }

// Geom returns a spatial value.
func Geom(g geom.Geometry) Value { return Value{Kind: KindGeom, G: g} }

// IsNull reports whether v is NULL.
func (v Value) IsNull() bool { return v.Kind == KindNull }

// AsBool reports the value as a boolean; only KindBool values are truthy
// candidates.
func (v Value) AsBool() (bool, error) {
	if v.Kind != KindBool {
		return false, fmt.Errorf("storage: %s is not bool", v.Kind)
	}
	return v.I != 0, nil
}

// AsFloat converts numeric values to float64.
func (v Value) AsFloat() (float64, error) {
	switch v.Kind {
	case KindInt:
		return float64(v.I), nil
	case KindFloat:
		return v.F, nil
	default:
		return 0, fmt.Errorf("storage: %s is not numeric", v.Kind)
	}
}

// AsInt returns the value as int64; floats must be integral.
func (v Value) AsInt() (int64, error) {
	switch v.Kind {
	case KindInt:
		return v.I, nil
	case KindFloat:
		if v.F == float64(int64(v.F)) {
			return int64(v.F), nil
		}
		return 0, fmt.Errorf("storage: non-integral double %v", v.F)
	default:
		return 0, fmt.Errorf("storage: %s is not integer", v.Kind)
	}
}

// AsGeom returns the spatial payload.
func (v Value) AsGeom() (geom.Geometry, error) {
	if v.Kind != KindGeom || v.G == nil {
		return nil, fmt.Errorf("storage: %s is not geometry", v.Kind)
	}
	return v.G, nil
}

// String renders the value for diagnostics and CSV output.
func (v Value) String() string {
	switch v.Kind {
	case KindNull:
		return "NULL"
	case KindBool:
		if v.I != 0 {
			return "true"
		}
		return "false"
	case KindString:
		return v.S
	case KindInt, KindFloat, KindGeom:
		return string(v.AppendString(nil))
	default:
		return "?"
	}
}

// AppendString appends exactly the bytes of String to dst without building
// the intermediate string — for callers that render many values into one
// reused buffer (ground-atom keys).
func (v Value) AppendString(dst []byte) []byte {
	switch v.Kind {
	case KindInt:
		return strconv.AppendInt(dst, v.I, 10)
	case KindFloat:
		return strconv.AppendFloat(dst, v.F, 'g', -1, 64)
	case KindGeom:
		return geom.AppendWKT(dst, v.G)
	default:
		return append(dst, v.String()...) // constants and text: no allocation
	}
}

// Equal reports deep equality of two values. Numeric values compare across
// int/float kinds; geometries compare by WKT rendering (sufficient for the
// exact geometries the grounding pipeline produces).
func (v Value) Equal(o Value) bool {
	if v.Kind == KindNull || o.Kind == KindNull {
		return v.Kind == o.Kind
	}
	if isNumeric(v.Kind) && isNumeric(o.Kind) {
		a, _ := v.AsFloat()
		b, _ := o.AsFloat()
		return a == b
	}
	if v.Kind != o.Kind {
		return false
	}
	switch v.Kind {
	case KindBool:
		return (v.I != 0) == (o.I != 0)
	case KindString:
		return v.S == o.S
	case KindGeom:
		return geom.MarshalWKT(v.G) == geom.MarshalWKT(o.G)
	default:
		return v.I == o.I && v.F == o.F
	}
}

// Compare orders two comparable values: -1, 0, +1. Geometries and booleans
// are not ordered.
func (v Value) Compare(o Value) (int, error) {
	if isNumeric(v.Kind) && isNumeric(o.Kind) {
		a, _ := v.AsFloat()
		b, _ := o.AsFloat()
		switch {
		case a < b:
			return -1, nil
		case a > b:
			return 1, nil
		default:
			return 0, nil
		}
	}
	if v.Kind == KindString && o.Kind == KindString {
		switch {
		case v.S < o.S:
			return -1, nil
		case v.S > o.S:
			return 1, nil
		default:
			return 0, nil
		}
	}
	return 0, fmt.Errorf("storage: cannot order %s against %s", v.Kind, o.Kind)
}

func isNumeric(k Kind) bool { return k == KindInt || k == KindFloat }

// ParseCell converts one textual cell (CSV field, JSON string, query
// parameter) to a Value of the column's kind. Empty cells and the literal
// "null" (any case) load as NULL; spatial columns parse WKT; booleans
// accept true/false/t/f/1/0/yes/no. This is the single text→Value path
// shared by the CLI loaders and the serving API.
func ParseCell(col Column, cell string) (Value, error) {
	cell = strings.TrimSpace(cell)
	if cell == "" || strings.EqualFold(cell, "null") {
		return Null, nil
	}
	switch col.Kind {
	case KindInt:
		v, err := strconv.ParseInt(cell, 10, 64)
		if err != nil {
			return Null, err
		}
		return Int(v), nil
	case KindFloat:
		v, err := strconv.ParseFloat(cell, 64)
		if err != nil {
			return Null, err
		}
		return Float(v), nil
	case KindBool:
		switch strings.ToLower(cell) {
		case "true", "t", "1", "yes":
			return Bool(true), nil
		case "false", "f", "0", "no":
			return Bool(false), nil
		}
		return Null, fmt.Errorf("bad bool %q", cell)
	case KindString:
		return Str(cell), nil
	case KindGeom:
		g, err := geom.ParseWKT(cell)
		if err != nil {
			return Null, err
		}
		return Geom(g), nil
	default:
		return Null, fmt.Errorf("unsupported column kind %v", col.Kind)
	}
}
