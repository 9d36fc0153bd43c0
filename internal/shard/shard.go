// Package shard implements sharded share-nothing inference (ROADMAP item
// 3): the ground factor graph is partitioned by pyramid subtree into N
// shards, each owning its variables, its own subgraph with private
// compiled score programs, and its own spatial sampler. Factors crossing a
// shard boundary are kept on both sides; the remote endpoints join each
// shard's subgraph as *halo* variables: evidence there (never swept, never
// counted) but marked live, so the compiled kernels read them through the
// assignment instead of folding them. Their assignment values are refreshed
// at every epoch barrier by a halo exchange of sparse deltas over a Transport
// — an in-process channel transport for N "nodes" in one binary, or a
// length-prefixed CRC-framed TCP transport.
//
// Partition rule. Each located query atom already has a home pyramid cell
// (gibbs.HomeCells); its *subtree* is the home cell's ancestor at
// level subtreeLevel (2, the minimum swept level, giving up to 16
// subtrees). Subtrees are ordered by (conclique, Y, X) — the conclique
// ordering spreads same-colour subtrees across shards — and dealt
// round-robin to the N shards; atoms without a home cell (no location, or
// a home above the swept range) are dealt round-robin by variable order.
// Evidence variables belong to no shard: they are static and replicate
// into every subgraph that needs them.
//
// Barrier protocol. All shards run the same epoch count in lockstep: after
// each epoch, every shard sends one halo frame per neighbouring shard
// (the changed boundary-variable values of all K instances, as a sparse
// index/value delta) and blocks until it has received the same epoch's frame from
// every neighbour, then resumes sampling against the refreshed halo copies.
// Because a shard cannot start epoch e+1 before finishing the epoch-e
// barrier, at most two epochs' frames are ever in flight; early frames are
// stashed and replayed.
//
// Failure semantics. A transport error, a halo frame that fails CRC or
// domain validation, an epoch-stamp mismatch, or a barrier timeout
// (ExchangeTimeout) aborts
// the run with an error naming the shard; the coordinator then cancels the
// remaining shards and returns the first error. Cancellation of the run
// context is not an error: each shard stops at its next chunk boundary and
// partial marginals remain readable, like the single-process samplers.
package shard

import (
	"fmt"
	"sort"

	"repro/internal/conclique"
	"repro/internal/factorgraph"
	"repro/internal/geom"
	"repro/internal/gibbs"
	"repro/internal/index/pyramid"
)

// subtreeLevel is the pyramid level whose cells define the dealt subtrees.
const subtreeLevel = 2

// Plan is the deterministic shard assignment of one ground graph: a pure
// function of (graph, options), so every process of a distributed group
// computes the same plan independently.
type Plan struct {
	// Owner maps each full-graph variable to its owning shard, or -1 for
	// evidence variables (static, owned by nobody).
	Owner []int
	// Space is the global pyramid bounding space every shard's sampler
	// shares, so cell geometry — and with it the conclique schedule — is
	// consistent across shards.
	Space geom.Rect
	// Subtrees counts the distinct pyramid subtrees the partition dealt.
	Subtrees int
	// Shards is N.
	Shards int
}

// Partition computes the pyramid-subtree shard assignment from each atom's
// home cell (gibbs.HomeCells: the same placement the per-shard samplers will
// schedule by, computed without building a sampler or compiling kernels).
func Partition(g *factorgraph.Graph, opts Options) (*Plan, error) {
	opts = opts.withDefaults()
	plan := &Plan{Owner: make([]int, g.NumVars()), Shards: opts.Shards}

	var query []factorgraph.VarID
	first := true
	for i := 0; i < g.NumVars(); i++ {
		v := factorgraph.VarID(i)
		meta := g.Var(v)
		if meta.Evidence != factorgraph.NoEvidence {
			plan.Owner[v] = -1
			continue
		}
		query = append(query, v)
		if meta.HasLoc {
			b := meta.Loc.Bounds()
			if first {
				plan.Space, first = b, false
			} else {
				plan.Space = plan.Space.Union(b)
			}
		}
	}
	if !first {
		// The same padding NewSpatial applies, so the partition and the
		// shard pyramids address cells identically.
		pad := 1e-9 + 0.001*(plan.Space.Width()+plan.Space.Height())
		plan.Space = plan.Space.Expand(pad)
	}

	homes, err := gibbs.HomeCells(g, gibbs.SpatialOptions{
		Levels:        opts.Levels,
		LocalityLevel: opts.LocalityLevel,
		Space:         plan.Space,
	})
	if err != nil {
		return nil, fmt.Errorf("shard: partition: %w", err)
	}

	// Group scheduled atoms by subtree; unplaced atoms go to the tail.
	bySubtree := map[pyramid.CellKey][]factorgraph.VarID{}
	var tail []factorgraph.VarID
	for _, v := range query {
		home, ok := homes[v]
		if !ok {
			tail = append(tail, v)
			continue
		}
		sub := home
		if home.Level > subtreeLevel {
			shift := home.Level - subtreeLevel
			sub = pyramid.CellKey{Level: subtreeLevel, X: home.X >> shift, Y: home.Y >> shift}
		}
		bySubtree[sub] = append(bySubtree[sub], v)
	}

	// Deal subtrees round-robin in (conclique, Y, X) order: consecutive
	// subtrees land on different shards, and same-conclique subtrees spread
	// evenly so every shard's serial conclique groups stay loaded.
	subtrees := make([]pyramid.CellKey, 0, len(bySubtree))
	for k := range bySubtree {
		subtrees = append(subtrees, k)
	}
	sort.Slice(subtrees, func(i, j int) bool {
		qi, qj := conclique.Of(subtrees[i]), conclique.Of(subtrees[j])
		if qi != qj {
			return qi < qj
		}
		if subtrees[i].Y != subtrees[j].Y {
			return subtrees[i].Y < subtrees[j].Y
		}
		if subtrees[i].X != subtrees[j].X {
			return subtrees[i].X < subtrees[j].X
		}
		return subtrees[i].Level < subtrees[j].Level
	})
	plan.Subtrees = len(subtrees)
	for i, k := range subtrees {
		shard := i % opts.Shards
		for _, v := range bySubtree[k] {
			plan.Owner[v] = shard
		}
	}
	for i, v := range tail {
		plan.Owner[v] = i % opts.Shards
	}
	return plan, nil
}

// buildSubgraph materializes shard `id`'s share: its interior variables (in
// ascending full-graph order), every factor touching them, and the boundary
// shell — evidence variables plus halo variables owned by other shards. Halo
// variables freeze at init (the full graph's initial assignment), so a fresh
// group starts from exactly the global initial chain state. The halo exchange
// overwrites the halo copies' assignment values from epoch 1 on, so they are
// marked live here, before anything compiles the subgraph: true evidence
// folds into the kernels' biases, halo copies stay read through the
// assignment.
func buildSubgraph(g *factorgraph.Graph, plan *Plan, id int, init factorgraph.Assignment) (*factorgraph.Subgraph, error) {
	var interior []factorgraph.VarID
	for v, owner := range plan.Owner {
		if owner == id {
			interior = append(interior, factorgraph.VarID(v))
		}
	}
	sub, err := factorgraph.Sub(g, interior, func(v factorgraph.VarID) int32 { return init[v] })
	if err != nil {
		return nil, err
	}
	sub.Graph.MarkLive(sub.Halo)
	return sub, nil
}
