package pyramid

import (
	"math/rand"
	"testing"

	"repro/internal/geom"
)

var testSpace = geom.NewRect(geom.Pt(0, 0), geom.Pt(100, 100))

func randomEntries(rng *rand.Rand, n int) []Entry {
	es := make([]Entry, n)
	for i := range es {
		es[i] = Entry{ID: int64(i), Loc: geom.Pt(rng.Float64()*100, rng.Float64()*100)}
	}
	return es
}

func clusteredEntries(rng *rand.Rand, n int) []Entry {
	// All entries in one quadrant corner, forcing sparse quadrant merges.
	es := make([]Entry, n)
	for i := range es {
		es[i] = Entry{ID: int64(i), Loc: geom.Pt(rng.Float64()*10, rng.Float64()*10)}
	}
	return es
}

// nonEmptyCells returns the maintained, non-empty cells of a level, in
// (Y, X) order.
func nonEmptyCells(idx *Index, level int) []*Cell {
	var out []*Cell
	n := 1 << level
	for y := 0; y < n; y++ {
		for x := 0; x < n; x++ {
			if c := idx.Cell(CellKey{Level: level, X: x, Y: y}); c != nil && len(c.Entries) > 0 {
				out = append(out, c)
			}
		}
	}
	return out
}

func TestBuildValidation(t *testing.T) {
	if _, err := Build(testSpace, nil, Options{Levels: 0}); err == nil {
		t.Error("Levels=0 should fail")
	}
	if _, err := Build(geom.Rect{}, nil, Options{Levels: 3}); err == nil {
		t.Error("zero-area space should fail")
	}
	if _, err := Build(testSpace, []Entry{{ID: 1}, {ID: 1}}, Options{Levels: 3}); err == nil {
		t.Error("duplicate IDs should fail")
	}
}

func TestBuildAndInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	idx, err := Build(testSpace, randomEntries(rng, 500), Options{Levels: 5})
	if err != nil {
		t.Fatal(err)
	}
	if idx.Len() != 500 {
		t.Fatalf("Len = %d", idx.Len())
	}
	if err := idx.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// Root cell holds everything.
	root := idx.Cell(CellKey{Level: 0})
	if root == nil || len(root.Entries) != 500 {
		t.Fatalf("root entries = %v", root)
	}
	// Level 1 cells partition the entries.
	total := 0
	for _, c := range nonEmptyCells(idx, 1) {
		total += len(c.Entries)
	}
	if total != 500 {
		t.Errorf("level-1 cells hold %d entries, want 500", total)
	}
}

func TestSparseQuadrantsMerged(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	idx, err := Build(testSpace, clusteredEntries(rng, 100), Options{Levels: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := idx.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// All entries live in [0,10]², i.e. one level-1 quadrant; the other
	// three level-1 quadrants are empty, so the level-1 quadrant set must
	// have been merged into the root.
	if cells := nonEmptyCells(idx, 1); len(cells) != 0 {
		t.Errorf("sparse level-1 quadrants not merged: %d cells remain", len(cells))
	}
	// Root still answers.
	if c := idx.LowestCell(geom.Pt(5, 5)); c == nil || c.Key.Level != 0 {
		t.Errorf("lowest cell = %+v, want root", c)
	}
}

func TestDenseLevelsRetained(t *testing.T) {
	// Spread entries across all quadrants so no merge should occur at
	// level 1.
	var es []Entry
	id := int64(0)
	for _, x := range []float64{10, 35, 60, 85} {
		for _, y := range []float64{10, 35, 60, 85} {
			for k := 0; k < 3; k++ {
				es = append(es, Entry{ID: id, Loc: geom.Pt(x+float64(k), y)})
				id++
			}
		}
	}
	idx, err := Build(testSpace, es, Options{Levels: 3})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(nonEmptyCells(idx, 1)); got != 4 {
		t.Errorf("level-1 cells = %d, want 4", got)
	}
	if got := len(nonEmptyCells(idx, 2)); got != 16 {
		t.Errorf("level-2 cells = %d, want 16", got)
	}
	if err := idx.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestLowestCell(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	entries := randomEntries(rng, 300)
	idx, err := Build(testSpace, entries, Options{Levels: 4})
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries[:50] {
		c := idx.LowestCell(e.Loc)
		if c == nil {
			t.Fatalf("no cell for %v", e.Loc)
		}
		if !c.Region.ContainsPoint(e.Loc) {
			t.Fatalf("cell %v does not contain %v", c.Key, e.Loc)
		}
	}
}

func TestEntriesOutsideSpaceClamped(t *testing.T) {
	es := []Entry{
		{ID: 0, Loc: geom.Pt(-50, -50)},
		{ID: 1, Loc: geom.Pt(500, 500)},
		{ID: 2, Loc: geom.Pt(50, 50)},
	}
	idx, err := Build(testSpace, es, Options{Levels: 3})
	if err != nil {
		t.Fatal(err)
	}
	if idx.Len() != 3 {
		t.Fatalf("Len = %d", idx.Len())
	}
	if err := idx.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
