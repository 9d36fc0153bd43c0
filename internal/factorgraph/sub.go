package factorgraph

import "sort"

// Subgraph is an interior + frozen-boundary cut of a larger graph, as built
// by Sub. Every factor touching an interior variable is fully contained, so
// the conditionals at interior variables equal the parent graph's whenever
// the boundary holds the parent's values.
type Subgraph struct {
	// Graph is the renumbered subgraph: interior variables occupy local ids
	// 0..len(Interior)-1 in the order given, the boundary follows in
	// ascending parent-id order, and factors and spatial pairs keep their
	// ascending parent-id order.
	Graph *Graph
	// Interior is the list Sub was given (parent ids; local id = index).
	Interior []VarID
	// Boundary lists the frozen variables (parent ids, ascending): every
	// non-interior endpoint of a kept factor, present as evidence.
	Boundary []VarID
	// Halo lists, as ids in Graph (ascending), the boundary variables that
	// are not evidence in the parent and were frozen at freeze(v).
	Halo []VarID
	// LocalID maps parent ids (interior and boundary) to ids in Graph.
	LocalID map[VarID]VarID
	// Factors and Spatials are the kept logical factors and spatial pairs
	// (parent ids, ascending): all those incident to an interior variable.
	Factors, Spatials []int32
}

// Sub materializes the subgraph of g induced by the interior variables plus
// their frozen boundary shell. A boundary variable keeps its evidence value
// when g observes it; otherwise it freezes as evidence at freeze(v).
// Per-relation allowed-pair masks carry over for every relation present.
//
// Every boundary variable is evidence in the subgraph, hence frozen: the
// kernel compiler folds each factor whose other endpoints are all boundary
// into a per-variable bias, which is what a local query wants. A caller that
// will rewrite boundary values while sampling — a shard refreshing its halo
// copies, which are exactly Subgraph.Halo — must say so with
// Graph.MarkLive(sub.Halo) before the subgraph is first sampled.
func Sub(g *Graph, interior []VarID, freeze func(VarID) int32) (*Subgraph, error) {
	in := make(map[VarID]bool, len(interior))
	for _, v := range interior {
		in[v] = true
	}

	factorSet := map[int32]bool{}
	spatialSet := map[int32]bool{}
	boundarySet := map[VarID]bool{}
	for _, v := range interior {
		for _, f := range g.VarLogicalFactors(v) {
			factorSet[f] = true
		}
		for _, sp := range g.VarSpatialPairs(v) {
			spatialSet[sp] = true
		}
	}
	factors := sortedInt32(factorSet)
	spatials := sortedInt32(spatialSet)
	for _, f := range factors {
		vars, _ := g.FactorVars(f)
		for _, u := range vars {
			if !in[u] {
				boundarySet[u] = true
			}
		}
	}
	for _, sp := range spatials {
		a, b, _ := g.SpatialPair(sp)
		if !in[a] {
			boundarySet[a] = true
		}
		if !in[b] {
			boundarySet[b] = true
		}
	}
	boundary := make([]VarID, 0, len(boundarySet))
	for v := range boundarySet {
		boundary = append(boundary, v)
	}
	sort.Slice(boundary, func(i, j int) bool { return boundary[i] < boundary[j] })

	b := NewBuilder()
	seenRel := map[int32]bool{}
	localID := make(map[VarID]VarID, len(interior)+len(boundary))
	add := func(v VarID, meta Variable) error {
		if rel := meta.Relation; !seenRel[rel] {
			seenRel[rel] = true
			if mask, h := g.AllowedPairMask(rel); mask != nil {
				if err := b.SetAllowedPairs(rel, h, mask); err != nil {
					return err
				}
			}
		}
		lid, err := b.AddVariable(meta)
		if err != nil {
			return err
		}
		localID[v] = lid
		return nil
	}
	for _, v := range interior {
		if err := add(v, g.Var(v)); err != nil {
			return nil, err
		}
	}
	var halo []VarID
	for _, v := range boundary {
		meta := g.Var(v)
		if meta.Evidence == NoEvidence {
			meta.Evidence = freeze(v)
			halo = append(halo, VarID(b.NumVars()))
		}
		if err := add(v, meta); err != nil {
			return nil, err
		}
	}
	for _, f := range factors {
		vars, neg := g.FactorVars(f)
		lvars := make([]VarID, len(vars))
		for i, u := range vars {
			lvars[i] = localID[u]
		}
		lneg := append([]bool(nil), neg...)
		if err := b.AddFactor(g.FactorKindOf(f), g.FactorWeightOf(f), lvars, lneg); err != nil {
			return nil, err
		}
	}
	pairs := make([]SpatialPair, 0, len(spatials))
	for _, sp := range spatials {
		a, c, w := g.SpatialPair(sp)
		pairs = append(pairs, SpatialPair{A: localID[a], B: localID[c], W: w})
	}
	if err := b.AddSpatialPairs(pairs); err != nil {
		return nil, err
	}
	sub, err := b.Finalize()
	if err != nil {
		return nil, err
	}
	return &Subgraph{
		Graph: sub, Interior: interior, Boundary: boundary, Halo: halo,
		LocalID: localID, Factors: factors, Spatials: spatials,
	}, nil
}

// sortedInt32 flattens a set into an ascending slice.
func sortedInt32(set map[int32]bool) []int32 {
	out := make([]int32, 0, len(set))
	for x := range set {
		out = append(out, x)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
