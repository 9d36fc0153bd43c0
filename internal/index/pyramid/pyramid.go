// Package pyramid implements the in-memory partial pyramid index of the
// paper's inference module (Section V, "In-memory Spatial Factor Graph
// Index"), after Aref & Samet [3].
//
// The index decomposes a bounding space into L locality levels; level l is a
// 4^l grid. Every maintained cell stores the IDs of the spatial ground atoms
// whose location falls inside its region, so an atom contributes to one
// pointer-based index per level, from level 1 down to the lowest maintained
// cell containing it. The pyramid is *partial*: after the initial complete
// build, quadrants whose four children include at least three empty cells
// are merged into their parent (the paper's merge policy). An index is built
// once, by the sampler that sweeps it, and never mutated afterwards.
package pyramid

import (
	"fmt"
	"sort"

	"repro/internal/geom"
)

// CellKey addresses one pyramid cell: grid coordinates (X, Y) at a level,
// with level 0 being the single root cell.
type CellKey struct {
	Level int
	X, Y  int
}

// Cell is one maintained pyramid cell.
type Cell struct {
	Key     CellKey
	Region  geom.Rect
	Entries []int64 // IDs of atoms located in Region, sorted ascending
}

// Entry is an indexed spatial ground atom: its variable ID and location.
type Entry struct {
	ID  int64
	Loc geom.Point
}

// Index is a partial pyramid index. Create with Build; it is immutable
// afterwards, so concurrent readers need no lock.
type Index struct {
	space  geom.Rect
	levels int
	cells  map[CellKey]*Cell
	locs   map[int64]geom.Point
}

// Options configures Build.
type Options struct {
	// Levels is the pyramid height L (the paper uses L = 8). Must be ≥ 1.
	Levels int
}

// Build constructs a partial pyramid over the given space from the entries:
// a complete pyramid of height L is filled, then quadrants with three or
// more empty children are merged bottom-up (the paper's initial build).
// Entries outside the space are clamped to its boundary cell.
func Build(space geom.Rect, entries []Entry, opts Options) (*Index, error) {
	if opts.Levels < 1 {
		return nil, fmt.Errorf("pyramid: Levels must be >= 1, got %d", opts.Levels)
	}
	if !space.Valid() || space.Width() <= 0 || space.Height() <= 0 {
		return nil, fmt.Errorf("pyramid: invalid space %+v", space)
	}
	idx := &Index{
		space:  space,
		levels: opts.Levels,
		cells:  make(map[CellKey]*Cell),
		locs:   make(map[int64]geom.Point, len(entries)),
	}
	for _, e := range entries {
		if _, dup := idx.locs[e.ID]; dup {
			return nil, fmt.Errorf("pyramid: duplicate entry ID %d", e.ID)
		}
		idx.locs[e.ID] = e.Loc
	}
	// Complete build: place every entry at every level.
	for _, e := range entries {
		for l := 0; l < idx.levels; l++ {
			key := idx.keyAt(e.Loc, l)
			c := idx.cells[key]
			if c == nil {
				c = &Cell{Key: key, Region: idx.cellRegion(key)}
				idx.cells[key] = c
			}
			c.Entries = append(c.Entries, e.ID)
		}
	}
	for _, c := range idx.cells {
		sort.Slice(c.Entries, func(i, j int) bool { return c.Entries[i] < c.Entries[j] })
	}
	idx.mergeSparseQuadrants()
	return idx, nil
}

// Levels returns the pyramid height L.
func (x *Index) Levels() int { return x.levels }

// Space returns the indexed bounding space.
func (x *Index) Space() geom.Rect { return x.space }

// Len returns the number of indexed entries.
func (x *Index) Len() int { return len(x.locs) }

// keyAt returns the cell key containing p at the level, clamping p into the
// space.
func (x *Index) keyAt(p geom.Point, level int) CellKey {
	n := 1 << level // grid is n×n
	fx := (p.X - x.space.Min.X) / x.space.Width()
	fy := (p.Y - x.space.Min.Y) / x.space.Height()
	cx := int(fx * float64(n))
	cy := int(fy * float64(n))
	if cx < 0 {
		cx = 0
	}
	if cx >= n {
		cx = n - 1
	}
	if cy < 0 {
		cy = 0
	}
	if cy >= n {
		cy = n - 1
	}
	return CellKey{Level: level, X: cx, Y: cy}
}

// cellRegion returns the spatial region of a cell key.
func (x *Index) cellRegion(k CellKey) geom.Rect {
	n := float64(int(1) << k.Level)
	w := x.space.Width() / n
	h := x.space.Height() / n
	min := geom.Pt(x.space.Min.X+float64(k.X)*w, x.space.Min.Y+float64(k.Y)*h)
	return geom.Rect{Min: min, Max: geom.Pt(min.X+w, min.Y+h)}
}

// mergeSparseQuadrants scans levels bottom-up and removes all four children
// of a parent when at least three of the quadrant cells are empty
// (the paper's post-build merging step). The parent keeps full coverage
// because every level stores all contained entries.
func (x *Index) mergeSparseQuadrants() {
	for l := x.levels - 1; l >= 1; l-- {
		n := 1 << (l - 1)
		for py := 0; py < n; py++ {
			for px := 0; px < n; px++ {
				x.maybeMergeQuadrant(l, px, py)
			}
		}
	}
}

// maybeMergeQuadrant merges the four level-l children of parent (px, py) at
// level l-1 if at least three are empty or absent. Children that themselves
// still have maintained descendants are not merged.
func (x *Index) maybeMergeQuadrant(l, px, py int) {
	empty := 0
	var present []*Cell
	for dy := 0; dy < 2; dy++ {
		for dx := 0; dx < 2; dx++ {
			k := CellKey{Level: l, X: 2*px + dx, Y: 2*py + dy}
			c := x.cells[k]
			if c == nil || len(c.Entries) == 0 {
				empty++
				if c != nil {
					present = append(present, c)
				}
				continue
			}
			if x.hasMaintainedChildren(k) {
				return // deeper structure exists; keep this quadrant
			}
			present = append(present, c)
		}
	}
	if empty < 3 {
		return
	}
	for _, c := range present {
		delete(x.cells, c.Key)
	}
}

func (x *Index) hasMaintainedChildren(k CellKey) bool {
	if k.Level+1 >= x.levels {
		return false
	}
	for dy := 0; dy < 2; dy++ {
		for dx := 0; dx < 2; dx++ {
			if _, ok := x.cells[CellKey{Level: k.Level + 1, X: 2*k.X + dx, Y: 2*k.Y + dy}]; ok {
				return true
			}
		}
	}
	return false
}

// Cell returns the maintained cell for a key, or nil.
func (x *Index) Cell(k CellKey) *Cell { return x.cells[k] }

// LowestCell returns the lowest maintained cell containing p.
func (x *Index) LowestCell(p geom.Point) *Cell {
	var lowest *Cell
	for l := 0; l < x.levels; l++ {
		c := x.cells[x.keyAt(p, l)]
		if c == nil {
			break
		}
		lowest = c
	}
	return lowest
}

// CheckInvariants verifies structural invariants, for tests: every entry
// appears in a maintained chain from the root to its lowest cell; each
// maintained cell's entries are exactly the indexed entries within its
// region; entry lists are sorted and duplicate-free.
func (x *Index) CheckInvariants() error {
	for id, loc := range x.locs {
		root := x.cells[x.keyAt(loc, 0)]
		if root == nil || !containsID(root.Entries, id) {
			return fmt.Errorf("entry %d missing from root cell", id)
		}
		// Completeness: wherever a maintained cell covers the entry's
		// location, the entry must be indexed in it.
		for l := 0; l < x.levels; l++ {
			c := x.cells[x.keyAt(loc, l)]
			if c == nil {
				break
			}
			if !containsID(c.Entries, id) {
				return fmt.Errorf("entry %d missing from maintained cell %v", id, c.Key)
			}
		}
	}
	for k, c := range x.cells {
		if k != c.Key {
			return fmt.Errorf("cell key mismatch: map %v vs cell %v", k, c.Key)
		}
		for i := 1; i < len(c.Entries); i++ {
			if c.Entries[i-1] >= c.Entries[i] {
				return fmt.Errorf("cell %v entries not strictly sorted", k)
			}
		}
		for _, id := range c.Entries {
			loc, ok := x.locs[id]
			if !ok {
				return fmt.Errorf("cell %v references unknown entry %d", k, id)
			}
			if x.keyAt(loc, k.Level) != k {
				return fmt.Errorf("entry %d at %v stored in wrong cell %v", id, loc, k)
			}
		}
		// Every maintained non-root cell must have a maintained parent that
		// also holds its entries (the level-chain property).
		if k.Level > 0 {
			parent := x.cells[CellKey{Level: k.Level - 1, X: k.X / 2, Y: k.Y / 2}]
			if parent == nil {
				return fmt.Errorf("cell %v has no maintained parent", k)
			}
			for _, id := range c.Entries {
				if !containsID(parent.Entries, id) {
					return fmt.Errorf("entry %d in %v missing from parent", id, k)
				}
			}
		}
	}
	return nil
}

func containsID(s []int64, v int64) bool {
	i := sort.Search(len(s), func(i int) bool { return s[i] >= v })
	return i < len(s) && s[i] == v
}
