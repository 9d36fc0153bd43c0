package conclique

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/index/pyramid"
)

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
	groups := Partition(cells)
	total := 0
	for _, g := range groups {
		total += len(g)
	}
	if total != len(cells) {
		t.Fatalf("partition covers %d cells, want %d", total, len(cells))
	}
	if _, _, ok := Validate(cells); !ok {
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
		if got := Neighbors(a, c.b); got != c.want {
			t.Errorf("Neighbors(%v, %v) = %v, want %v", a, c.b, got, c.want)
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
		return !Neighbors(a, b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// Property: Partition of random cell sets always validates and is a
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
		groups := Partition(cells)
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
		if a, b, ok := Validate(cells); !ok {
			t.Fatalf("conclique violation between %v and %v", a, b)
		}
	}
}

func TestValidateDetectsViolation(t *testing.T) {
	// Hand-build an invalid grouping by lying about keys: two adjacent
	// cells forced into the same conclique id can only happen if Of is
	// broken, so instead validate that Validate flags genuinely adjacent
	// same-colour keys (impossible under Of — construct via Neighbors
	// directly).
	a := pyramid.CellKey{Level: 2, X: 0, Y: 0}
	b := pyramid.CellKey{Level: 2, X: 2, Y: 0}
	if Of(a) != Of(b) {
		t.Fatal("test setup: expected same conclique")
	}
	if Neighbors(a, b) {
		t.Error("cells two apart should not be neighbours")
	}
}
