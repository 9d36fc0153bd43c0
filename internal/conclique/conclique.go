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

import "repro/internal/index/pyramid"

// Count is the number of concliques per grid level under 2×2 colouring.
const Count = 4

// ID identifies a conclique within a level: 0..3.
type ID int

// Of returns the conclique of a grid cell.
func Of(key pyramid.CellKey) ID {
	return ID((key.X&1)<<1 | key.Y&1)
}
