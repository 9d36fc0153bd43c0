// Package factorgraph implements the ground factor graph of MLN-based
// knowledge base construction (paper Section IV) and Sya's spatial
// extension of it: random variables (binary or categorical ground atoms),
// weighted logical factors from inference-rule groundings (Eq. 1), and
// spatial factors between pairs of spatial ground atoms (Eq. 2 for binary
// variables, Eq. 4 for categorical ones) whose weights come from a distance
// weighing function. Together they define the joint distribution of Eq. 3.
//
// Build a graph through Builder, then treat it as immutable: samplers keep
// their own assignment vectors.
package factorgraph

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"repro/internal/geom"
)

// Assignment holds one value per variable. Parallel samplers (the hogwild
// baseline and the conclique-parallel spatial Gibbs sampler) share an
// Assignment across goroutines, so element access goes through atomics:
// use Get/Set rather than direct indexing when the assignment may be
// shared. Purely sequential code may index directly.
type Assignment []int32

// Get atomically reads the value of v.
func (a Assignment) Get(v VarID) int32 { return atomic.LoadInt32(&a[v]) }

// Set atomically writes the value of v.
func (a Assignment) Set(v VarID, x int32) { atomic.StoreInt32(&a[v], x) }

// Clone copies the assignment (non-atomically; callers synchronize).
func (a Assignment) Clone() Assignment { return append(Assignment(nil), a...) }

// VarID indexes a variable in the graph.
type VarID = int32

// NoEvidence marks a query variable (its value must be inferred).
const NoEvidence int32 = -1

// FactorKind enumerates logical factor semantics. A factor's "true
// grounding" count n_f (Eq. 1) is 1 when the factor is satisfied by the
// current assignment and 0 otherwise.
type FactorKind uint8

// Factor kinds, matching the correlations expressible in DDlog heads.
const (
	// FactorImply is satisfied unless all antecedents (all edge variables
	// except the last) are true and the consequent (the last variable) is
	// false: A ∧ ... => B.
	FactorImply FactorKind = iota
	// FactorAnd is satisfied when all edge variables are true.
	FactorAnd
	// FactorOr is satisfied when at least one edge variable is true.
	FactorOr
	// FactorEqual is satisfied when all edge variables agree.
	FactorEqual
	// FactorIsTrue is a unary prior: satisfied when its variable is true.
	FactorIsTrue
)

// String names the kind.
func (k FactorKind) String() string {
	switch k {
	case FactorImply:
		return "imply"
	case FactorAnd:
		return "and"
	case FactorOr:
		return "or"
	case FactorEqual:
		return "equal"
	case FactorIsTrue:
		return "istrue"
	default:
		return fmt.Sprintf("factorgraph.FactorKind(%d)", uint8(k))
	}
}

// Variable describes one ground atom.
type Variable struct {
	// Name is an external key, e.g. "IsSafe(17)".
	Name string
	// Domain is the number of values: 2 for binary, h ≥ 2 for categorical.
	Domain int32
	// Evidence is the observed value, or NoEvidence for query variables.
	Evidence int32
	// Loc is the spatial location (meaningful when HasLoc).
	Loc    geom.Point
	HasLoc bool
	// Relation indexes the variable relation the atom belongs to.
	Relation int32
}

// Graph is a finalized spatial factor graph. All slices are indexed by the
// IDs handed out during building; the graph is immutable after Finalize.
type Graph struct {
	vars []Variable

	// weights is the one live weight table: the logical factor weights, then
	// the spatial pair weights. factorWeight and spatialW are views of it, so
	// a compiled op addresses either kind through one index.
	weights []float64
	// weightGen counts weight updates; compiled kernels compare it with the
	// generation their biases and log-odds entries were baked under.
	weightGen atomic.Uint64

	// live marks evidence variables whose assignment value is rewritten
	// while sampling (see MarkLive); nil when there are none.
	live []bool

	// Logical factors in CSR form.
	factorKind   []FactorKind
	factorWeight []float64
	factorOff    []int64 // len = numFactors+1, into factorVars/factorNeg
	factorVars   []VarID
	factorNeg    []bool

	// Spatial factors: one entry per atom pair.
	spatialA, spatialB []VarID
	spatialW           []float64

	// allowedPairs[rel] is the h×h domain-value mask from the co-occurrence
	// pruning of Section IV-C (nil ⇒ all pairs allowed). Shared per
	// relation because pruning decides per domain-value pair globally.
	allowedPairs map[int32][]bool
	domainOf     map[int32]int32 // relation → h for mask indexing

	// Adjacency: variable → incident logical factors and spatial pairs.
	varFactorOff  []int64
	varFactors    []int32
	varSpatialOff []int64
	varSpatial    []int32

	// Compiled sampling kernels, built lazily on first (*Graph).Kernels call
	// (see kernel.go). The graph structure is immutable after Finalize, so
	// one compilation serves every sampler; weight updates are refolded in.
	kernOnce sync.Once
	kern     *Kernels
}

// NumVars returns the variable count.
func (g *Graph) NumVars() int { return len(g.vars) }

// NumFactors returns the logical factor count.
func (g *Graph) NumFactors() int { return len(g.factorKind) }

// NumSpatialFactors returns the number of spatial atom pairs. In the
// categorical case each pair stands for the h×h (possibly pruned) factors
// of Definition 2; CountGroundSpatialFactors expands that.
func (g *Graph) NumSpatialFactors() int { return len(g.spatialA) }

// CountGroundSpatialFactors returns the total number of ground spatial
// factors per Definition 2: allowed (t_j, t_k) pairs summed over atom pairs.
func (g *Graph) CountGroundSpatialFactors() int64 {
	var total int64
	for i := range g.spatialA {
		rel := g.vars[g.spatialA[i]].Relation
		mask := g.allowedPairs[rel]
		if mask == nil {
			h := int64(g.vars[g.spatialA[i]].Domain)
			total += h * h
			continue
		}
		for _, ok := range mask {
			if ok {
				total++
			}
		}
	}
	return total
}

// AllowedPairMask returns a relation's h×h co-occurrence pruning mask and
// domain size h (Section IV-C). A nil mask means every value pair is
// allowed; h is 0 when the relation has no recorded domain. The returned
// slice is the graph's own — callers must not mutate it.
func (g *Graph) AllowedPairMask(rel int32) ([]bool, int32) {
	return g.allowedPairs[rel], g.domainOf[rel]
}

// Var returns variable metadata.
func (g *Graph) Var(id VarID) Variable { return g.vars[id] }

// DomainOf returns a variable's domain size without copying the full
// metadata struct — the samplers call this once per Gibbs step.
func (g *Graph) DomainOf(id VarID) int32 { return g.vars[id].Domain }

// Vars iterates variable IDs with metadata.
func (g *Graph) Vars(fn func(id VarID, v Variable) bool) {
	for i := range g.vars {
		if !fn(VarID(i), g.vars[i]) {
			return
		}
	}
}

// FactorVars returns the edge variables and negation flags of factor f.
func (g *Graph) FactorVars(f int32) ([]VarID, []bool) {
	lo, hi := g.factorOff[f], g.factorOff[f+1]
	return g.factorVars[lo:hi], g.factorNeg[lo:hi]
}

// FactorKindOf returns a factor's kind.
func (g *Graph) FactorKindOf(f int32) FactorKind { return g.factorKind[f] }

// FactorWeightOf returns a factor's weight.
func (g *Graph) FactorWeightOf(f int32) float64 { return g.factorWeight[f] }

// SetFactorWeight updates a logical factor's weight. Weight learning
// (internal/learn) adjusts weights between sampling sweeps; callers must
// not race this with concurrent samplers. Compiled table ops read the new
// weight directly; the biases and log-odds entries the kernels baked under
// the old one are recomputed before the next binary score.
func (g *Graph) SetFactorWeight(f int32, w float64) {
	g.factorWeight[f] = w
	g.weightGen.Add(1)
}

// SetSpatialWeight updates a spatial pair's weight (used when learning the
// spatial scale). Same concurrency caveat as SetFactorWeight.
func (g *Graph) SetSpatialWeight(s int32, w float64) {
	g.spatialW[s] = w
	g.weightGen.Add(1)
}

// MarkLive declares evidence variables whose assignment value is rewritten
// while sampling — a shard's halo copies of remote variables, refreshed at
// every epoch barrier. The kernel compiler folds only frozen endpoints, so
// this is part of building the graph: call it before anything compiles or
// samples the graph. A call after the kernels were compiled panics, because
// the programs already treat the variables as constants.
func (g *Graph) MarkLive(ids []VarID) {
	if g.kern != nil {
		panic("factorgraph: MarkLive after the graph's kernels were compiled")
	}
	if g.live == nil {
		g.live = make([]bool, len(g.vars))
	}
	for _, v := range ids {
		g.live[v] = true
	}
}

// Live reports whether v was marked live (see MarkLive).
func (g *Graph) Live(v VarID) bool { return g.live != nil && g.live[v] }

// Frozen reports whether v's value can never change while sampling: it is
// evidence in the graph, and not live. Scores treat a frozen variable as the
// constant Variable.Evidence, whatever an assignment holds for it.
func (g *Graph) Frozen(v VarID) bool {
	return g.vars[v].Evidence != NoEvidence && !g.Live(v)
}

// FactorSatisfied reports whether factor f is satisfied (n_f = 1) under
// the assignment.
func (g *Graph) FactorSatisfied(f int32, assign Assignment) bool {
	return g.satisfied(f, assign, -1, 0)
}

// SpatialAgreement returns +1 when a spatial pair's endpoints agree, −1
// when they disagree, and 0 when the categorical value pair is pruned —
// the pair's energy contribution per unit weight (Eq. 3).
func (g *Graph) SpatialAgreement(s int32, assign Assignment) float64 {
	a, b := g.spatialA[s], g.spatialB[s]
	va, vb := assign.Get(a), assign.Get(b)
	if !g.spatialPairAllowed(g.vars[a].Relation, va, vb) {
		return 0
	}
	if va == vb {
		return 1
	}
	return -1
}

// SpatialPair returns the endpoints and weight of spatial pair s.
func (g *Graph) SpatialPair(s int32) (a, b VarID, w float64) {
	return g.spatialA[s], g.spatialB[s], g.spatialW[s]
}

// VarLogicalFactors returns the logical factors incident to v.
func (g *Graph) VarLogicalFactors(v VarID) []int32 {
	return g.varFactors[g.varFactorOff[v]:g.varFactorOff[v+1]]
}

// VarSpatialPairs returns the spatial pairs incident to v.
func (g *Graph) VarSpatialPairs(v VarID) []int32 {
	return g.varSpatial[g.varSpatialOff[v]:g.varSpatialOff[v+1]]
}

// OpInfo is the human-readable decode of one incidence of a variable's score
// program — the score provenance a serving /v1/explain response reports,
// with the live weight (learned weights included).
type OpInfo struct {
	// Kind names the incidence: "istrue", "imply", "and", "or", "equal" or
	// "generic" (arity ≥ 3, v in more than one slot, unary equal) for a
	// logical factor, "spatial" or "spatial_masked" for a spatial pair.
	Kind   string
	Weight float64
	// Other is the other endpoint of a two-slot factor or spatial pair, the
	// one other distinct variable of a generic factor, or NoVar.
	Other VarID
	// ID is the factor id, or the spatial pair id when Spatial — the index
	// grounding's FactorRule maps back to a rule name.
	ID              int32
	Spatial, Masked bool
}

// NoVar is the OpInfo.Other sentinel for ops with no second endpoint.
const NoVar VarID = -1

// VarProgram decodes one variable's score program from the graph's incidence
// lists: every factor and spatial pair contributing to its conditional, in
// the order the samplers accumulate them, folded or not. It compiles nothing,
// so it costs O(degree of v); the result is freshly allocated.
func (g *Graph) VarProgram(v VarID) []OpInfo {
	logical, spatial := g.VarLogicalFactors(v), g.VarSpatialPairs(v)
	out := make([]OpInfo, 0, len(logical)+len(spatial))
	for _, f := range logical {
		out = append(out, g.factorInfo(v, f))
	}
	for _, s := range spatial {
		info := OpInfo{Kind: "spatial", Weight: g.spatialW[s], Other: g.spatialOther(s, v), ID: s, Spatial: true}
		if g.allowedPairs[g.vars[v].Relation] != nil {
			info.Kind, info.Masked = "spatial_masked", true
		}
		out = append(out, info)
	}
	return out
}

// factorInfo names logical factor f at v by kind, arity and v's slots.
func (g *Graph) factorInfo(v VarID, f int32) OpInfo {
	info := OpInfo{Kind: "generic", Weight: g.factorWeight[f], Other: NoVar, ID: f}
	vars, _ := g.FactorVars(f)
	occ, pos := 0, -1
	for i, u := range vars {
		if u == v {
			occ++
			pos = i
		}
	}
	switch kind := g.factorKind[f]; {
	case occ != 1:
	case len(vars) == 1 && (kind == FactorIsTrue || kind == FactorAnd || kind == FactorOr):
		info.Kind = "istrue"
		return info
	case len(vars) == 2 && kind <= FactorEqual:
		info.Kind, info.Other = kind.String(), vars[1-pos]
		return info
	}
	// Report the one other distinct endpoint, if there is exactly one.
	if a, n := liveOther(vars, v, nil); n == 1 {
		info.Other = a
	}
	return info
}

// InitialAssignment returns an assignment with evidence fixed and query
// variables at value 0.
func (g *Graph) InitialAssignment() Assignment {
	a := make(Assignment, len(g.vars))
	for i, v := range g.vars {
		if v.Evidence != NoEvidence {
			a[i] = v.Evidence
		}
	}
	return a
}

// PriorMarginal is a variable's marginal before any sample counts it: a
// point mass on its evidence value, uniform over its domain otherwise.
func (g *Graph) PriorMarginal(id VarID) []float64 {
	v := g.vars[id]
	m := make([]float64, v.Domain)
	if v.Evidence != NoEvidence {
		m[v.Evidence] = 1
		return m
	}
	for x := range m {
		m[x] = 1 / float64(v.Domain)
	}
	return m
}

// valueOf reads a variable's value, applying the candidate override used by
// ConditionalScores so that score evaluation never mutates the shared
// assignment.
func valueOf(assign Assignment, v, ov VarID, ovVal int32) int32 {
	if v == ov {
		return ovVal
	}
	return assign.Get(v)
}

// satisfied reports n_f ∈ {0, 1} for factor f under the assignment, with
// variable ov overridden to ovVal (pass ov = -1 for no override).
func (g *Graph) satisfied(f int32, assign Assignment, ov VarID, ovVal int32) bool {
	vars, neg := g.FactorVars(f)
	truth := func(i int) bool {
		t := valueOf(assign, vars[i], ov, ovVal) != 0
		if neg[i] {
			t = !t
		}
		return t
	}
	switch g.factorKind[f] {
	case FactorImply:
		n := len(vars)
		for i := 0; i < n-1; i++ {
			if !truth(i) {
				return true // a false antecedent satisfies the implication
			}
		}
		return truth(n - 1)
	case FactorAnd:
		for i := range vars {
			if !truth(i) {
				return false
			}
		}
		return true
	case FactorOr:
		for i := range vars {
			if truth(i) {
				return true
			}
		}
		return false
	case FactorEqual:
		first := valueOf(assign, vars[0], ov, ovVal)
		for _, v := range vars[1:] {
			if valueOf(assign, v, ov, ovVal) != first {
				return false
			}
		}
		return true
	case FactorIsTrue:
		return truth(0)
	default:
		return false
	}
}

// spatialPairAllowed reports whether the (tj, tk) domain-value pair survived
// pruning for the pair's relation.
func (g *Graph) spatialPairAllowed(rel int32, tj, tk int32) bool {
	mask := g.allowedPairs[rel]
	if mask == nil {
		return true
	}
	h := g.domainOf[rel]
	return mask[tj*h+tk]
}

// spatialEnergy returns the Eq. 3 contribution of spatial pair s:
// +w when the endpoints agree, −w when they disagree, 0 when the
// categorical value pair was pruned (inactive factor). Variable ov is
// overridden to ovVal (ov = -1 for no override).
func (g *Graph) spatialEnergy(s int32, assign Assignment, ov VarID, ovVal int32) float64 {
	a, b, w := g.spatialA[s], g.spatialB[s], g.spatialW[s]
	va := valueOf(assign, a, ov, ovVal)
	vb := valueOf(assign, b, ov, ovVal)
	rel := g.vars[a].Relation
	if !g.spatialPairAllowed(rel, va, vb) {
		return 0
	}
	if va == vb {
		return w
	}
	return -w
}

// Energy returns the unnormalized log-probability of an assignment
// (the exponent of Eq. 3).
func (g *Graph) Energy(assign Assignment) float64 {
	var e float64
	for f := int32(0); f < int32(len(g.factorKind)); f++ {
		if g.satisfied(f, assign, -1, 0) {
			e += g.factorWeight[f]
		}
	}
	for s := int32(0); s < int32(len(g.spatialA)); s++ {
		e += g.spatialEnergy(s, assign, -1, 0)
	}
	return e
}

// ConditionalScores fills buf (length ≥ the variable's domain) with the
// unnormalized log-probabilities of each candidate value of v given the
// rest of the assignment; it returns buf[:domain]. It never mutates assign,
// so concurrent readers (conclique-parallel and hogwild samplers) observe
// a consistent array. This is the inner step of every Gibbs sampler variant
// in internal/gibbs.
func (g *Graph) ConditionalScores(v VarID, assign Assignment, buf []float64) []float64 {
	domain := int(g.vars[v].Domain)
	buf = buf[:domain]
	for x := 0; x < domain; x++ {
		xv := int32(x)
		var e float64
		for _, f := range g.VarLogicalFactors(v) {
			if g.satisfied(f, assign, v, xv) {
				e += g.factorWeight[f]
			}
		}
		for _, s := range g.VarSpatialPairs(v) {
			e += g.spatialEnergy(s, assign, v, xv)
		}
		buf[x] = e
	}
	return buf
}

// BinaryConditionalScores is the buffer-free fast path of ConditionalScores
// for binary variables: it returns the unnormalized log-probabilities of
// v = 0 and v = 1 given the rest of the assignment, accumulating both
// candidates in one pass so each incident spatial pair reads its other
// endpoint exactly once. It matches ConditionalScores bit-for-bit (same
// accumulation order per candidate) and never mutates assign.
func (g *Graph) BinaryConditionalScores(v VarID, assign Assignment) (s0, s1 float64) {
	for _, f := range g.VarLogicalFactors(v) {
		w := g.factorWeight[f]
		if g.satisfied(f, assign, v, 0) {
			s0 += w
		}
		if g.satisfied(f, assign, v, 1) {
			s1 += w
		}
	}
	for _, s := range g.VarSpatialPairs(v) {
		a, b, w := g.spatialA[s], g.spatialB[s], g.spatialW[s]
		other := a
		if other == v {
			other = b
		}
		ov := assign.Get(other)
		if mask := g.allowedPairs[g.vars[a].Relation]; mask != nil {
			// Pruned candidate pairs contribute nothing (Definition 2).
			h := g.domainOf[g.vars[a].Relation]
			for x := int32(0); x < 2; x++ {
				tj, tk := x, ov
				if v != a {
					tj, tk = ov, x
				}
				if !mask[tj*h+tk] {
					continue
				}
				e := w
				if x != ov {
					e = -w
				}
				if x == 0 {
					s0 += e
				} else {
					s1 += e
				}
			}
			continue
		}
		if ov == 0 {
			s0 += w
			s1 -= w
		} else {
			s0 -= w
			s1 += w
		}
	}
	return s0, s1
}

// Validate checks structural invariants (for tests): edge variables in
// range, weights finite, spatial pairs between same-relation spatial
// variables with matching domains, factor arities consistent with kinds.
func (g *Graph) Validate() error {
	n := VarID(len(g.vars))
	for f := int32(0); f < int32(len(g.factorKind)); f++ {
		vars, neg := g.FactorVars(f)
		if len(vars) == 0 {
			return fmt.Errorf("factor %d has no variables", f)
		}
		if len(vars) != len(neg) {
			return fmt.Errorf("factor %d: vars/neg length mismatch", f)
		}
		if g.factorKind[f] == FactorIsTrue && len(vars) != 1 {
			return fmt.Errorf("factor %d: istrue must be unary, has %d vars", f, len(vars))
		}
		if g.factorKind[f] == FactorImply && len(vars) < 2 {
			return fmt.Errorf("factor %d: imply needs at least 2 vars", f)
		}
		for _, v := range vars {
			if v < 0 || v >= n {
				return fmt.Errorf("factor %d references variable %d out of range", f, v)
			}
		}
		if math.IsNaN(g.factorWeight[f]) || math.IsInf(g.factorWeight[f], 0) {
			return fmt.Errorf("factor %d has non-finite weight %v", f, g.factorWeight[f])
		}
	}
	for s := range g.spatialA {
		a, b := g.spatialA[s], g.spatialB[s]
		if a < 0 || a >= n || b < 0 || b >= n {
			return fmt.Errorf("spatial pair %d out of range", s)
		}
		if a == b {
			return fmt.Errorf("spatial pair %d is a self-loop on %d", s, a)
		}
		va, vb := g.vars[a], g.vars[b]
		if va.Relation != vb.Relation {
			return fmt.Errorf("spatial pair %d crosses relations %d and %d", s, va.Relation, vb.Relation)
		}
		if va.Domain != vb.Domain {
			return fmt.Errorf("spatial pair %d joins mismatched domains %d and %d", s, va.Domain, vb.Domain)
		}
		if !va.HasLoc || !vb.HasLoc {
			return fmt.Errorf("spatial pair %d joins non-spatial atoms", s)
		}
		if g.spatialW[s] < 0 || math.IsNaN(g.spatialW[s]) || math.IsInf(g.spatialW[s], 0) {
			return fmt.Errorf("spatial pair %d has bad weight %v", s, g.spatialW[s])
		}
	}
	for i, v := range g.vars {
		if v.Domain < 2 {
			return fmt.Errorf("variable %d has domain %d < 2", i, v.Domain)
		}
		if v.Evidence != NoEvidence && (v.Evidence < 0 || v.Evidence >= v.Domain) {
			return fmt.Errorf("variable %d evidence %d outside domain %d", i, v.Evidence, v.Domain)
		}
	}
	return nil
}
