package storage

import (
	"fmt"
	"strings"
	"sync"

	"repro/internal/geom"
)

// Column describes one attribute of a relation.
type Column struct {
	Name string
	Kind Kind
	// GeomType refines KindGeom columns with the declared DDlog spatial
	// type (point, rectangle, polygon, linestring).
	GeomType geom.Type
}

// Schema is an ordered set of named, typed columns.
type Schema struct {
	Name string
	Cols []Column
}

// ColIndex returns the position of a column by case-insensitive name, or -1.
func (s Schema) ColIndex(name string) int {
	for i, c := range s.Cols {
		if strings.EqualFold(c.Name, name) {
			return i
		}
	}
	return -1
}

// Validate checks schema well-formedness: non-empty name, at least one
// column, unique column names.
func (s *Schema) Validate() error {
	if s.Name == "" {
		return fmt.Errorf("storage: schema has no name")
	}
	if len(s.Cols) == 0 {
		return fmt.Errorf("storage: relation %s has no columns", s.Name)
	}
	seen := map[string]bool{}
	for _, c := range s.Cols {
		key := strings.ToLower(c.Name)
		if c.Name == "" {
			return fmt.Errorf("storage: relation %s has an unnamed column", s.Name)
		}
		if seen[key] {
			return fmt.Errorf("storage: relation %s: duplicate column %q", s.Name, c.Name)
		}
		seen[key] = true
	}
	return nil
}

// Row is one tuple, positionally matching the schema columns.
type Row []Value

// Table is an in-memory, append-only relation.
type Table struct {
	schema Schema
	rows   []Row
	mu     sync.RWMutex
}

// NewTable creates an empty table for the schema.
func NewTable(s Schema) (*Table, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &Table{schema: s}, nil
}

// Schema returns the table schema.
func (t *Table) Schema() Schema { return t.schema }

// Len returns the row count.
func (t *Table) Len() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return len(t.rows)
}

// Rows returns the current rows slice header under the read lock; the index
// is the row id. Rows are append-only and immutable once appended, so the
// returned prefix stays consistent while concurrent Appends grow the table —
// this is what lets readers (scans, lookups, query plans, the serving layer)
// run against a table that an upsert is extending, paying for the lock once
// rather than per row. Callers must not modify the slice.
func (t *Table) Rows() []Row {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.rows
}

// checkRow validates a row against the schema; NULLs are allowed in any
// column (the paper's derivation rules create variables with NULL labels).
func (t *Table) checkRow(r Row) error {
	if len(r) != len(t.schema.Cols) {
		return fmt.Errorf("storage: %s: row has %d values, schema has %d columns",
			t.schema.Name, len(r), len(t.schema.Cols))
	}
	for i, v := range r {
		c := t.schema.Cols[i]
		if v.IsNull() {
			continue
		}
		ok := v.Kind == c.Kind || (isNumeric(v.Kind) && isNumeric(c.Kind))
		if !ok {
			return fmt.Errorf("storage: %s.%s: value kind %s does not match column kind %s",
				t.schema.Name, c.Name, v.Kind, c.Kind)
		}
	}
	return nil
}

// Append adds a row. The row is stored by reference; callers must not mutate
// it afterwards.
func (t *Table) Append(r Row) error {
	if err := t.checkRow(r); err != nil {
		return err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.rows = append(t.rows, r)
	return nil
}

// AppendAll adds many rows, failing on the first invalid one.
func (t *Table) AppendAll(rows []Row) error {
	for i, r := range rows {
		if err := t.Append(r); err != nil {
			return fmt.Errorf("row %d: %w", i, err)
		}
	}
	return nil
}

// Row returns the i-th row.
func (t *Table) Row(i int) Row {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.rows[i]
}

// Scan calls fn for each row id and row; returning false stops the scan.
// The scan sees a consistent prefix: rows appended concurrently may or may
// not be visited, but fn never observes a torn row.
func (t *Table) Scan(fn func(id int, r Row) bool) {
	for i, r := range t.Rows() {
		if !fn(i, r) {
			return
		}
	}
}

// DB is a named collection of tables: the "database" the grounding module
// evaluates translated rule queries against.
type DB struct {
	mu     sync.RWMutex
	tables map[string]*Table
}

// NewDB returns an empty database.
func NewDB() *DB {
	return &DB{tables: map[string]*Table{}}
}

// Create creates a new table; it fails if the name is taken.
func (db *DB) Create(s Schema) (*Table, error) {
	t, err := NewTable(s)
	if err != nil {
		return nil, err
	}
	key := strings.ToLower(s.Name)
	db.mu.Lock()
	defer db.mu.Unlock()
	if _, exists := db.tables[key]; exists {
		return nil, fmt.Errorf("storage: table %s already exists", s.Name)
	}
	db.tables[key] = t
	return t, nil
}

// Table returns a table by case-insensitive name.
func (db *DB) Table(name string) (*Table, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	t, ok := db.tables[strings.ToLower(name)]
	if !ok {
		return nil, fmt.Errorf("storage: no table %q", name)
	}
	return t, nil
}
