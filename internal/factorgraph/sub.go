package factorgraph

import "math/bits"

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
	// local renumbers parent ids: interior first in the order given, the
	// boundary after it; NoVar marks a variable outside the cut.
	local := make([]VarID, g.NumVars())
	for i := range local {
		local[i] = NoVar
	}
	for i, v := range interior {
		local[v] = VarID(i)
	}

	// One bitset over the parent's ids each marks the kept factors, the kept
	// pairs and the boundary; reading a bitset back lists it ascending.
	factorBits := make([]uint64, (g.NumFactors()+63)/64)
	pairBits := make([]uint64, (g.NumSpatialFactors()+63)/64)
	boundaryBits := make([]uint64, (g.NumVars()+63)/64)
	for _, v := range interior {
		for _, f := range g.VarLogicalFactors(v) {
			setBit(factorBits, f)
		}
		for _, sp := range g.VarSpatialPairs(v) {
			setBit(pairBits, sp)
		}
	}
	factors, spatials := setBits(factorBits), setBits(pairBits)
	arity := 0
	for _, f := range factors {
		vars, _ := g.FactorVars(f)
		arity += len(vars)
		for _, u := range vars {
			if local[u] == NoVar {
				setBit(boundaryBits, u)
			}
		}
	}
	for _, sp := range spatials {
		a, b, _ := g.SpatialPair(sp)
		if local[a] == NoVar {
			setBit(boundaryBits, a)
		}
		if local[b] == NoVar {
			setBit(boundaryBits, b)
		}
	}
	boundary := setBits(boundaryBits)

	// Every size is known: the builder's arrays are allocated once.
	b := NewBuilder()
	nv := len(interior) + len(boundary)
	b.vars = make([]Variable, 0, nv)
	b.factorKind = make([]FactorKind, 0, len(factors))
	b.factorWeight = make([]float64, 0, len(factors))
	b.factorOff = append(make([]int64, 0, len(factors)+1), 0)
	b.factorVars = make([]VarID, 0, arity)
	b.factorNeg = make([]bool, 0, arity)
	seenRel := map[int32]bool{}
	localID := make(map[VarID]VarID, nv)
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
		local[v] = lid
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
	var lvars []VarID
	for _, f := range factors {
		vars, neg := g.FactorVars(f)
		lvars = lvars[:0]
		for _, u := range vars {
			lvars = append(lvars, local[u])
		}
		if err := b.AddFactor(g.FactorKindOf(f), g.FactorWeightOf(f), lvars, neg); err != nil {
			return nil, err
		}
	}
	// The pairs are the parent's, renumbered; Finalize validates them.
	b.spatialA = make([]VarID, 0, len(spatials))
	b.spatialB = make([]VarID, 0, len(spatials))
	b.spatialW = make([]float64, 0, len(spatials))
	for _, sp := range spatials {
		a, c, w := g.SpatialPair(sp)
		b.spatialA = append(b.spatialA, local[a])
		b.spatialB = append(b.spatialB, local[c])
		b.spatialW = append(b.spatialW, w)
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

func setBit(set []uint64, id int32) { set[id>>6] |= 1 << (id & 63) }

// setBits lists the ids set in a bitset, ascending.
func setBits(set []uint64) []int32 {
	n := 0
	for _, w := range set {
		n += bits.OnesCount64(w)
	}
	out := make([]int32, 0, n)
	for i, w := range set {
		for ; w != 0; w &= w - 1 {
			out = append(out, int32(i*64+bits.TrailingZeros64(w)))
		}
	}
	return out
}
