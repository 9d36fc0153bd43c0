// Package conclique implements concliques-based partitioning of pyramid
// grid cells (paper Section V, after Kaiser, Lahiri & Nordman [23]).
//
// A conclique is a set of locations no two of which are neighbours. For the
// 4^l grid of a pyramid level, colouring cell (x, y) by (x mod 2, y mod 2)
// yields four concliques: two cells with the same colour differ by at least
// two in x or in y, so they are never 8-neighbours. Cells inside one
// conclique can therefore be Gibbs-sampled in parallel while concliques are
// swept serially, which is the core of the paper's Spatial Gibbs Sampling
// (Algorithm 1) and is what gives the sampler its convergence guarantee
// under a bounded spatial-interaction radius [24].
package conclique

import (
	"sort"

	"repro/internal/index/pyramid"
)

// Count is the number of concliques per grid level under 2×2 colouring.
const Count = 4

// ID identifies a conclique within a level: 0..3.
type ID int

// Of returns the conclique of a grid cell.
func Of(key pyramid.CellKey) ID {
	return ID((key.X&1)<<1 | key.Y&1)
}

// Partition groups cells by conclique, preserving the deterministic cell
// order within each group. The result always has Count groups; groups with
// no cells are empty slices.
func Partition(cells []*pyramid.Cell) [Count][]*pyramid.Cell {
	var groups [Count][]*pyramid.Cell
	for _, c := range cells {
		q := Of(c.Key)
		groups[q] = append(groups[q], c)
	}
	return groups
}

// Neighbors reports whether two cells at the same level are 8-neighbours
// (share an edge or a corner). Cells at different levels are never
// considered neighbours by this predicate.
func Neighbors(a, b pyramid.CellKey) bool {
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

// Validate checks the conclique property over a set of cells: no two cells
// with the same conclique ID are 8-neighbours. It returns the offending
// pair, or ok=true.
func Validate(cells []*pyramid.Cell) (a, b pyramid.CellKey, ok bool) {
	byID := Partition(cells)
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
				if Neighbors(sorted[i].Key, sorted[j].Key) {
					return sorted[i].Key, sorted[j].Key, false
				}
			}
		}
	}
	return pyramid.CellKey{}, pyramid.CellKey{}, true
}
