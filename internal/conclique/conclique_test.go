package conclique

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/index/pyramid"
)

// The sampler needs only Of; partition, neighbors and validate below are the
// property tests' oracle for it.

// partition groups cells by conclique, preserving the deterministic cell
// order within each group. The result always has Count groups; groups with
// no cells are empty slices.
func partition(cells []*pyramid.Cell) [Count][]*pyramid.Cell {
	var groups [Count][]*pyramid.Cell
	for _, c := range cells {
		q := Of(c.Key)
		groups[q] = append(groups[q], c)
	}
	return groups
}

// neighbors reports whether two cells at the same level are 8-neighbours
// (share an edge or a corner). Cells at different levels are never
// considered neighbours by this predicate.
func neighbors(a, b pyramid.CellKey) bool {
	if a.Level != b.Level || a == b {
		return false
	}
	dx := a.X - b.X
	if dx < 0 {
		dx = -dx
	}
	dy := a.Y - b.Y
	if dy < 0 {
		dy = -dy
	}
	return dx <= 1 && dy <= 1
}

// validate checks the conclique property over a set of cells: no two cells
// with the same conclique ID are 8-neighbours. It returns the offending
// pair, or ok=true.
func validate(cells []*pyramid.Cell) (a, b pyramid.CellKey, ok bool) {
	byID := partition(cells)
	for _, group := range byID {
		sorted := append([]*pyramid.Cell(nil), group...)
		sort.Slice(sorted, func(i, j int) bool {
			if sorted[i].Key.Y != sorted[j].Key.Y {
				return sorted[i].Key.Y < sorted[j].Key.Y
			}
			return sorted[i].Key.X < sorted[j].Key.X
		})
		for i := 0; i < len(sorted); i++ {
			for j := i + 1; j < len(sorted); j++ {
				if neighbors(sorted[i].Key, sorted[j].Key) {
					return sorted[i].Key, sorted[j].Key, false
				}
			}
		}
	}
	return pyramid.CellKey{}, pyramid.CellKey{}, true
}

func cellAt(level, x, y int) *pyramid.Cell {
	return &pyramid.Cell{Key: pyramid.CellKey{Level: level, X: x, Y: y}, Entries: []int64{1}}
}

func TestOfColoring(t *testing.T) {
	// The four cells of any 2×2 block get four distinct concliques.
	seen := map[ID]bool{}
	for dx := 0; dx < 2; dx++ {
		for dy := 0; dy < 2; dy++ {
			seen[Of(pyramid.CellKey{Level: 3, X: 4 + dx, Y: 6 + dy})] = true
		}
	}
	if len(seen) != 4 {
		t.Errorf("2x2 block covers %d concliques, want 4", len(seen))
	}
}

func TestPaperFigure6Concliques(t *testing.T) {
	// The paper's Figure 6 example: level-2 cells C5..C17 laid out on a
	// 4×4 grid partition into four concliques of sizes {3, 3, 4, 3}
	// covering 13 non-empty cells. We verify the partition structure:
	// every group internally non-adjacent and groups cover all cells.
	var cells []*pyramid.Cell
	for y := 0; y < 4; y++ {
		for x := 0; x < 4; x++ {
			if x == 3 && y == 3 {
				continue // leave one empty, mirroring partial pyramids
			}
			cells = append(cells, cellAt(2, x, y))
		}
	}
	groups := partition(cells)
	total := 0
	for _, g := range groups {
		total += len(g)
	}
	if total != len(cells) {
		t.Fatalf("partition covers %d cells, want %d", total, len(cells))
	}
	if _, _, ok := validate(cells); !ok {
		t.Error("grid partition violates conclique property")
	}
}

func TestNeighbors(t *testing.T) {
	a := pyramid.CellKey{Level: 2, X: 1, Y: 1}
	cases := []struct {
		b    pyramid.CellKey
		want bool
	}{
		{pyramid.CellKey{Level: 2, X: 1, Y: 1}, false}, // self
		{pyramid.CellKey{Level: 2, X: 2, Y: 1}, true},  // edge
		{pyramid.CellKey{Level: 2, X: 2, Y: 2}, true},  // corner
		{pyramid.CellKey{Level: 2, X: 3, Y: 1}, false}, // two apart
		{pyramid.CellKey{Level: 3, X: 2, Y: 1}, false}, // different level
		{pyramid.CellKey{Level: 2, X: 0, Y: 0}, true},
	}
	for _, c := range cases {
		if got := neighbors(a, c.b); got != c.want {
			t.Errorf("neighbors(%v, %v) = %v, want %v", a, c.b, got, c.want)
		}
	}
}

// Property: for any pair of same-conclique cells, they are not neighbours.
func TestSameConcliqueNeverNeighborsProperty(t *testing.T) {
	f := func(x1, y1, x2, y2 uint8) bool {
		a := pyramid.CellKey{Level: 5, X: int(x1 % 32), Y: int(y1 % 32)}
		b := pyramid.CellKey{Level: 5, X: int(x2 % 32), Y: int(y2 % 32)}
		if Of(a) != Of(b) {
			return true
		}
		return !neighbors(a, b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// Property: partition of random cell sets always validates and is a
// partition (covers all, no duplicates).
func TestPartitionProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 100; trial++ {
		n := 1 + rng.Intn(40)
		seen := map[pyramid.CellKey]bool{}
		var cells []*pyramid.Cell
		for len(cells) < n {
			k := pyramid.CellKey{Level: 4, X: rng.Intn(16), Y: rng.Intn(16)}
			if seen[k] {
				continue
			}
			seen[k] = true
			cells = append(cells, &pyramid.Cell{Key: k})
		}
		groups := partition(cells)
		total := 0
		for q, g := range groups {
			total += len(g)
			for _, c := range g {
				if Of(c.Key) != ID(q) {
					t.Fatalf("cell %v in wrong group %d", c.Key, q)
				}
			}
		}
		if total != n {
			t.Fatalf("partition size %d, want %d", total, n)
		}
		if a, b, ok := validate(cells); !ok {
			t.Fatalf("conclique violation between %v and %v", a, b)
		}
	}
}

func TestValidateDetectsViolation(t *testing.T) {
	// Hand-build an invalid grouping by lying about keys: two adjacent
	// cells forced into the same conclique id can only happen if Of is
	// broken, so instead check that validate flags genuinely adjacent
	// same-colour keys (impossible under Of — construct via neighbors
	// directly).
	a := pyramid.CellKey{Level: 2, X: 0, Y: 0}
	b := pyramid.CellKey{Level: 2, X: 2, Y: 0}
	if Of(a) != Of(b) {
		t.Fatal("test setup: expected same conclique")
	}
	if neighbors(a, b) {
		t.Error("cells two apart should not be neighbours")
	}
}
