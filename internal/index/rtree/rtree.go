// Package rtree implements an R-tree (Guttman [20] in the paper's
// references) built once by Sort-Tile-Recursive packing and never mutated
// afterwards. The grounding module builds these indexes on the fly over
// relations with spatial attributes to accelerate spatial joins and range
// predicates (paper Section IV-B, optimization 1).
package rtree

import (
	"math"
	"sort"

	"repro/internal/geom"
)

// Item is an indexed entry: a bounding rectangle plus an opaque payload
// (typically a tuple identifier).
type Item struct {
	Rect geom.Rect
	Data int64
}

const maxEntries = 16

type node struct {
	rect     geom.Rect
	leaf     bool
	items    []Item  // leaf payloads
	children []*node // interior children
}

// Tree is an immutable R-tree. The zero value is not usable; call Bulk.
type Tree struct {
	root *node
	size int
}

// Len returns the number of indexed items.
func (t *Tree) Len() int { return t.size }

func recomputeRect(n *node) geom.Rect {
	if n.leaf {
		if len(n.items) == 0 {
			return geom.Rect{}
		}
		r := n.items[0].Rect
		for _, it := range n.items[1:] {
			r = r.Union(it.Rect)
		}
		return r
	}
	if len(n.children) == 0 {
		return geom.Rect{}
	}
	r := n.children[0].rect
	for _, c := range n.children[1:] {
		r = r.Union(c.rect)
	}
	return r
}

// Search calls fn for every item whose rectangle intersects q. Returning
// false from fn stops the search early.
func (t *Tree) Search(q geom.Rect, fn func(Item) bool) {
	if t.size == 0 {
		return
	}
	searchNode(t.root, q, fn)
}

func searchNode(n *node, q geom.Rect, fn func(Item) bool) bool {
	if !n.rect.Intersects(q) {
		return true
	}
	if n.leaf {
		for _, it := range n.items {
			if it.Rect.Intersects(q) {
				if !fn(it) {
					return false
				}
			}
		}
		return true
	}
	for _, c := range n.children {
		if !searchNode(c, q, fn) {
			return false
		}
	}
	return true
}

// SearchAll returns all items intersecting q.
func (t *Tree) SearchAll(q geom.Rect) []Item {
	var out []Item
	t.Search(q, func(it Item) bool {
		out = append(out, it)
		return true
	})
	return out
}

// NearestK returns up to k items closest to p by rectangle distance,
// in increasing distance order, using best-first branch-and-bound.
func (t *Tree) NearestK(p geom.Point, k int) []Item {
	if t.size == 0 || k <= 0 {
		return nil
	}
	type cand struct {
		dist float64
		n    *node
		it   Item
		leaf bool
	}
	// A simple binary heap over cands.
	heap := []cand{{dist: geom.DistancePointRect(p, t.root.rect), n: t.root}}
	push := func(c cand) {
		heap = append(heap, c)
		for i := len(heap) - 1; i > 0; {
			parent := (i - 1) / 2
			if heap[parent].dist <= heap[i].dist {
				break
			}
			heap[parent], heap[i] = heap[i], heap[parent]
			i = parent
		}
	}
	pop := func() cand {
		top := heap[0]
		last := len(heap) - 1
		heap[0] = heap[last]
		heap = heap[:last]
		for i := 0; ; {
			l, r := 2*i+1, 2*i+2
			small := i
			if l < last && heap[l].dist < heap[small].dist {
				small = l
			}
			if r < last && heap[r].dist < heap[small].dist {
				small = r
			}
			if small == i {
				break
			}
			heap[i], heap[small] = heap[small], heap[i]
			i = small
		}
		return top
	}
	var out []Item
	for len(heap) > 0 && len(out) < k {
		c := pop()
		switch {
		case c.leaf:
			out = append(out, c.it)
		case c.n.leaf:
			for _, it := range c.n.items {
				push(cand{dist: geom.DistancePointRect(p, it.Rect), it: it, leaf: true})
			}
		default:
			for _, child := range c.n.children {
				push(cand{dist: geom.DistancePointRect(p, child.rect), n: child})
			}
		}
	}
	return out
}

// Bulk builds an R-tree from items using Sort-Tile-Recursive packing, which
// produces a well-clustered tree in one pass. The input slice is reordered in
// place.
func Bulk(items []Item) *Tree {
	t := &Tree{size: len(items)}
	if len(items) == 0 {
		t.root = &node{leaf: true}
		return t
	}
	leaves := strPack(items)
	level := leaves
	for len(level) > 1 {
		level = packNodes(level)
	}
	t.root = level[0]
	return t
}

func strPack(items []Item) []*node {
	n := len(items)
	leafCount := (n + maxEntries - 1) / maxEntries
	sliceCount := int(math.Ceil(math.Sqrt(float64(leafCount))))
	perSlice := sliceCount * maxEntries
	sort.Slice(items, func(i, j int) bool {
		return items[i].Rect.Center().X < items[j].Rect.Center().X
	})
	var leaves []*node
	for s := 0; s < n; s += perSlice {
		end := s + perSlice
		if end > n {
			end = n
		}
		slice := items[s:end]
		sort.Slice(slice, func(i, j int) bool {
			return slice[i].Rect.Center().Y < slice[j].Rect.Center().Y
		})
		for o := 0; o < len(slice); o += maxEntries {
			e := o + maxEntries
			if e > len(slice) {
				e = len(slice)
			}
			leaf := &node{leaf: true, items: append([]Item(nil), slice[o:e]...)}
			leaf.rect = recomputeRect(leaf)
			leaves = append(leaves, leaf)
		}
	}
	return leaves
}

func packNodes(level []*node) []*node {
	sort.Slice(level, func(i, j int) bool {
		return level[i].rect.Center().X < level[j].rect.Center().X
	})
	var parents []*node
	for o := 0; o < len(level); o += maxEntries {
		e := o + maxEntries
		if e > len(level) {
			e = len(level)
		}
		p := &node{children: append([]*node(nil), level[o:e]...)}
		p.rect = recomputeRect(p)
		parents = append(parents, p)
	}
	return parents
}
