package factorgraph

import (
	"fmt"
	"slices"
)

// Builder accumulates variables and factors, then Finalize produces an
// immutable Graph with CSR adjacency. The grounding module is the main
// client.
type Builder struct {
	vars []Variable

	factorKind   []FactorKind
	factorWeight []float64
	factorOff    []int64
	factorVars   []VarID
	factorNeg    []bool

	spatialA, spatialB []VarID
	spatialW           []float64

	allowedPairs map[int32][]bool
	domainOf     map[int32]int32
}

// NewBuilder returns an empty builder.
func NewBuilder() *Builder {
	return &Builder{
		factorOff:    []int64{0},
		allowedPairs: map[int32][]bool{},
		domainOf:     map[int32]int32{},
	}
}

// AddVariable adds a ground atom and returns its ID.
func (b *Builder) AddVariable(v Variable) (VarID, error) {
	if v.Domain < 2 {
		return 0, fmt.Errorf("factorgraph: variable %q domain %d < 2", v.Name, v.Domain)
	}
	if v.Evidence != NoEvidence && (v.Evidence < 0 || v.Evidence >= v.Domain) {
		return 0, fmt.Errorf("factorgraph: variable %q evidence %d outside domain %d", v.Name, v.Evidence, v.Domain)
	}
	id := VarID(len(b.vars))
	b.vars = append(b.vars, v)
	return id, nil
}

// NumVars returns the variables added so far.
func (b *Builder) NumVars() int { return len(b.vars) }

// AddFactor adds a logical factor over vars; neg may be nil (no negations)
// or parallel to vars.
func (b *Builder) AddFactor(kind FactorKind, weight float64, vars []VarID, neg []bool) error {
	if len(vars) == 0 {
		return fmt.Errorf("factorgraph: factor needs at least one variable")
	}
	if neg != nil && len(neg) != len(vars) {
		return fmt.Errorf("factorgraph: negation flags length %d != vars length %d", len(neg), len(vars))
	}
	if kind == FactorIsTrue && len(vars) != 1 {
		return fmt.Errorf("factorgraph: istrue factor must be unary")
	}
	if kind == FactorImply && len(vars) < 2 {
		return fmt.Errorf("factorgraph: imply factor needs at least two variables")
	}
	for _, v := range vars {
		if int(v) >= len(b.vars) || v < 0 {
			return fmt.Errorf("factorgraph: factor references unknown variable %d", v)
		}
	}
	b.factorKind = append(b.factorKind, kind)
	b.factorWeight = append(b.factorWeight, weight)
	b.factorVars = append(b.factorVars, vars...)
	if neg == nil {
		neg = make([]bool, len(vars))
	}
	b.factorNeg = append(b.factorNeg, neg...)
	b.factorOff = append(b.factorOff, int64(len(b.factorVars)))
	return nil
}

// SpatialPair is one spatial factor for AddSpatialPairs: two atoms of the
// same spatial relation and the distance-derived weight.
type SpatialPair struct {
	A, B VarID
	W    float64
}

// AddSpatialPairs appends spatial factors, each between two distinct
// located atoms of the same variable relation with a non-negative weight;
// on an invalid pair it appends none of them. It does not detect duplicates:
// the caller must add each unordered pair at most once. The grounding sweep
// guarantees this structurally (canonical-ordered emission — each pair is
// emitted by exactly one atom's neighbourhood).
func (b *Builder) AddSpatialPairs(pairs []SpatialPair) error {
	for _, p := range pairs {
		if p.A == p.B {
			return fmt.Errorf("factorgraph: spatial self-pair on %d", p.A)
		}
		if int(p.A) >= len(b.vars) || int(p.B) >= len(b.vars) || p.A < 0 || p.B < 0 {
			return fmt.Errorf("factorgraph: spatial pair references unknown variable")
		}
		va, vc := b.vars[p.A], b.vars[p.B]
		if va.Relation != vc.Relation {
			return fmt.Errorf("factorgraph: spatial pair crosses relations")
		}
		if !va.HasLoc || !vc.HasLoc {
			return fmt.Errorf("factorgraph: spatial pair on non-spatial atoms")
		}
		if p.W < 0 {
			return fmt.Errorf("factorgraph: spatial weight must be non-negative, got %v", p.W)
		}
	}
	b.spatialA = slices.Grow(b.spatialA, len(pairs))
	b.spatialB = slices.Grow(b.spatialB, len(pairs))
	b.spatialW = slices.Grow(b.spatialW, len(pairs))
	for _, p := range pairs {
		b.spatialA = append(b.spatialA, p.A)
		b.spatialB = append(b.spatialB, p.B)
		b.spatialW = append(b.spatialW, p.W)
	}
	return nil
}

// SetAllowedPairs installs the co-occurrence pruning mask for a relation's
// categorical domain (Section IV-C): mask[i*h+j] reports whether the
// (i, j) domain-value pair generates a spatial factor. A nil mask allows
// everything.
func (b *Builder) SetAllowedPairs(relation int32, h int32, mask []bool) error {
	if mask != nil && int32(len(mask)) != h*h {
		return fmt.Errorf("factorgraph: mask length %d != h² = %d", len(mask), h*h)
	}
	b.domainOf[relation] = h
	if mask == nil {
		delete(b.allowedPairs, relation)
		return nil
	}
	b.allowedPairs[relation] = mask
	return nil
}

// Finalize builds the immutable graph with adjacency indexes.
func (b *Builder) Finalize() (*Graph, error) {
	nf := len(b.factorWeight)
	weights := make([]float64, nf+len(b.spatialW))
	copy(weights, b.factorWeight)
	copy(weights[nf:], b.spatialW)
	g := &Graph{
		vars:         b.vars,
		weights:      weights,
		factorKind:   b.factorKind,
		factorWeight: weights[:nf:nf],
		factorOff:    b.factorOff,
		factorVars:   b.factorVars,
		factorNeg:    b.factorNeg,
		spatialA:     b.spatialA,
		spatialB:     b.spatialB,
		spatialW:     weights[nf:],
		allowedPairs: b.allowedPairs,
		domainOf:     b.domainOf,
	}
	n := len(g.vars)
	// CSR adjacency for logical factors.
	var scratch []VarID
	counts := make([]int64, n+1)
	for f := int32(0); f < int32(len(g.factorKind)); f++ {
		vars, _ := g.FactorVars(f)
		for _, v := range dedupVars(vars, &scratch) {
			counts[v+1]++
		}
	}
	for i := 1; i <= n; i++ {
		counts[i] += counts[i-1]
	}
	g.varFactorOff = counts
	g.varFactors = make([]int32, counts[n])
	cursor := make([]int64, n)
	for f := int32(0); f < int32(len(g.factorKind)); f++ {
		vars, _ := g.FactorVars(f)
		for _, v := range dedupVars(vars, &scratch) {
			g.varFactors[g.varFactorOff[v]+cursor[v]] = f
			cursor[v]++
		}
	}
	// CSR adjacency for spatial pairs.
	scounts := make([]int64, n+1)
	for s := range g.spatialA {
		scounts[g.spatialA[s]+1]++
		scounts[g.spatialB[s]+1]++
	}
	for i := 1; i <= n; i++ {
		scounts[i] += scounts[i-1]
	}
	g.varSpatialOff = scounts
	g.varSpatial = make([]int32, scounts[n])
	scursor := make([]int64, n)
	for s := range g.spatialA {
		for _, v := range []VarID{g.spatialA[s], g.spatialB[s]} {
			g.varSpatial[g.varSpatialOff[v]+scursor[v]] = int32(s)
			scursor[v]++
		}
	}
	if err := g.Validate(); err != nil {
		return nil, err
	}
	return g, nil
}

// dedupVars returns the distinct variables of a factor edge list (a factor
// may mention a variable twice, e.g. X => X; adjacency should list it once),
// in no particular order: the CSR build only counts membership. An edge list
// of one or two variables (every rule of the datagen KBs) is answered from
// vars itself; a longer one is sorted and compacted in *scratch, which the
// caller reuses across factors, so the build allocates nothing per factor.
func dedupVars(vars []VarID, scratch *[]VarID) []VarID {
	switch {
	case len(vars) <= 1:
		return vars
	case len(vars) == 2:
		if vars[0] == vars[1] {
			return vars[:1]
		}
		return vars
	}
	*scratch = append((*scratch)[:0], vars...)
	slices.Sort(*scratch)
	return slices.Compact(*scratch)
}
