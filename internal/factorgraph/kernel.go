package factorgraph

import (
	"math"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"
)

// This file implements the compiled sampling kernels: a compilation pass
// that flattens the graph's CSR adjacency into per-variable score programs,
// so a Gibbs step no longer re-walks the factor var-lists, re-dispatches on
// FactorKind and re-hashes into the allowedPairs map for every incident
// factor and candidate value. One compiler, two program forms:
//
//   - Binary score programs (compiled eagerly; what every sampler schedule,
//     the incremental resample, every shard and every lazy query runs per
//     draw): a constant per-variable bias plus a branch-free program of
//     12-byte pair ops over what can still change. Every incidence none of
//     whose other endpoints can change — unary factors, factors with the
//     variable in every slot, factors and pairs whose other slots are all
//     frozen — is evaluated once, here, and summed into the bias.
//   - The general slab (compiled on first use): one 16-byte op per
//     incidence, nothing folded, for ConditionalScores — categorical
//     variables, and weight learning, whose model chain frees evidence — and
//     for VarProgram, the /v1/explain decode. An all-binary graph that is
//     only sampled never builds it.
//
// Frozen means: evidence in the graph, and not marked live (Graph.Frozen).
// Graph evidence never changes value; a variable pinned after construction
// is a query variable and is read through the assignment like any other;
// the one kind of evidence that does change is a shard's halo copy, which
// the shard marks live before compiling (Graph.MarkLive).
//
// Ops sit in the interpreted accumulation order (VarLogicalFactors, then
// VarSpatialPairs). The general slab equals the interpreted walk bit-for-bit.
// A binary program adds the bias — the in-order sum of the constant
// contributions — then the dynamic ops in their original relative order, each
// adding the value the interpreted walk adds or +0.0: the same terms
// regrouped as (constants) + (dynamics), so a score can differ from the
// interpreted one in the last ulp and not otherwise (kernel_test.go pins both
// statements). Ops store indices into the graph's live weight table, so the
// weight setters reach them with no recompilation; the biases bake weights
// in, so the setters bump the graph's weight generation and the next binary
// score recomputes the biases from the graph.

// Coefficient codes of a pairOp: what one (other's value, candidate) cell
// adds to the candidate's score.
const (
	coefZero  uint8 = 0 // +0.0 (unsatisfied factor, pruned value pair)
	coefPlus  uint8 = 1 // +w
	coefMinus uint8 = 2 // −w (disagreeing spatial pair)

	// opFallback in pairOp.codes marks an incidence no coefficient table can
	// express; it is evaluated by the interpreted evaluators.
	opFallback uint8 = 0xff
)

// pairOp is one dynamic op of a binary score program (12 bytes): an
// incidence whose only endpoint that can still change, besides the variable
// itself, is one binary variable. codes holds four 2-bit coefficient codes,
// the cell for (other's value o, candidate x) at bit 2·(2o+x). A fallback
// record (codes == opFallback) keeps only w.
type pairOp struct {
	a     VarID // the other endpoint, read through the assignment
	w     int32 // index into Graph.weights: factor f, or NumFactors + pair s
	codes uint8
}

// cell returns the shift of the (o, x) coefficient code inside pairOp.codes.
func cell(o, x int32) uint { return uint(o<<1|x) << 1 }

// Kernel opcodes of the general slab. Specialized codes cover the dominant
// ground-graph shapes (unary priors, binary logical factors, spatial pairs);
// everything else falls back to the interpreted evaluators for that one
// factor.
const (
	kopGeneric        uint8 = iota // any logical factor, via Graph.satisfied
	kopIsTrue                      // unary truth factor (istrue, 1-var and/or)
	kopImply2                      // 2-var imply, v on one side
	kopAnd2                        // 2-var and
	kopOr2                         // 2-var or
	kopEqual2                      // 2-var equal (value compare, neg ignored)
	kopSpatial                     // spatial pair, no pruning mask
	kopSpatialMasked               // spatial pair under an h×h allowed mask
	kopSpatialGeneric              // degenerate spatial pair, via spatialEnergy
)

// Flag bits in kop.bits.
const (
	kbNegV       uint8 = 1 << 0 // negation flag on v's slot
	kbNegO       uint8 = 1 << 1 // negation flag on the other endpoint's slot
	kbConsequent uint8 = 1 << 2 // kopImply2: v is the consequent
	kbEndpointB  uint8 = 1 << 2 // kopSpatialMasked: v is endpoint B
)

// kop is one fixed-stride entry of the general slab (16 bytes). Weight reads
// go through w into the graph's live weight slice — logical ops index
// factorWeight, spatial ops index spatialW.
type kop struct {
	code uint8
	bits uint8
	mask int16 // kopSpatialMasked: index into Kernels.masks
	w    int32 // weight index (factor id or spatial pair id)
	a    VarID // other endpoint (binary logical and spatial ops)
	f    int32 // factor / spatial id for the generic fallbacks
}

// kmask is one interned co-occurrence pruning mask, resolved at compile time
// so evaluation never touches the allowedPairs map.
type kmask struct {
	mask []bool
	h    int32
}

// KernelStats describes a compiled program set (for observability).
type KernelStats struct {
	// BuildTime is the wall time of the eager compilation pass (the binary
	// score programs; the general slab compiles on first use).
	BuildTime time.Duration
	// Vars is the number of per-variable programs.
	Vars int
	// Ops is the number of (variable, factor) and (variable, spatial pair)
	// incidences compiled, folded or not.
	Ops int
	// FoldedOps counts the incidences at binary variables that were
	// evaluated at compile time and summed into the variable's bias.
	FoldedOps int
	// GenericOps counts the incidences a sampler evaluates through the
	// interpreted evaluators at run time: fallback records in the binary
	// programs, generic ops at categorical variables.
	GenericOps int
	// SlabBytes is the compiled footprint: binary programs, biases and
	// offsets, plus the general slab (ops, offsets, mask table) once built.
	SlabBytes int64
}

// Kernels holds the compiled per-variable score programs of one graph.
// Programs are immutable after compilation and safe for concurrent use, like
// the graph itself; biases are recomputed (under the same no-concurrent-
// samplers rule as the weight setters) after a weight update.
type Kernels struct {
	g *Graph

	// Binary score programs. prog[v]>>1 is where v's ops start in pairOps
	// (and the previous variable's end); the low bit marks a non-binary
	// variable, whose program is empty.
	prog    []int32
	bias    [][2]float64
	pairOps []pairOp
	// biasGen is the graph weight generation the biases were folded under.
	biasGen atomic.Uint64
	foldMu  sync.Mutex

	// The general slab: program ops[off[v]:off[v+1]] per variable.
	slabOnce  sync.Once
	off       []int32
	ops       []kop
	masks     []kmask
	slabBytes atomic.Int64

	stats KernelStats
}

// Kernels returns the graph's compiled sampling kernels, compiling them on
// first use (subsequent calls return the cached program set). Safe for
// concurrent callers.
func (g *Graph) Kernels() *Kernels {
	g.kernOnce.Do(func() { g.kern = CompileKernels(g) })
	return g.kern
}

// CompileKernels compiles the graph's binary score programs: a counting pass
// sizes the op array exactly, then each binary variable's incidences are
// lowered in score order. Most callers want the cached (*Graph).Kernels
// instead.
func CompileKernels(g *Graph) *Kernels {
	start := time.Now()
	k := &Kernels{g: g}
	k.biasGen.Store(g.weightGen.Load())
	n := g.NumVars()
	st := KernelStats{Vars: n, Ops: len(g.varFactors) + len(g.varSpatial)}
	lw := newLowering(k)
	k.prog = make([]int32, n+1)
	dynamic, atBinary := 0, 0 // incidences at binary variables: kept as ops, all
	for v := VarID(0); int(v) < n; v++ {
		k.prog[v] = int32(dynamic) << 1
		logical, spatial := g.VarLogicalFactors(v), g.VarSpatialPairs(v)
		if g.vars[v].Domain != 2 {
			k.prog[v] |= 1
			for _, f := range logical {
				if compileFactor(g, v, f).code == kopGeneric {
					st.GenericOps++
				}
			}
			continue
		}
		atBinary += len(logical) + len(spatial)
		for _, f := range logical {
			vars, _ := g.FactorVars(f)
			if _, live := liveOther(vars, v, lw.fz); live > 0 {
				dynamic++
			}
		}
		for _, s := range spatial {
			if lw.fz[g.spatialOther(s, v)] < 0 {
				dynamic++
			}
		}
	}
	k.prog[n] = int32(dynamic) << 1
	k.pairOps = make([]pairOp, dynamic)
	k.bias = make([][2]float64, n)
	for v := VarID(0); int(v) < n; v++ {
		if k.Binary(v) {
			k.bias[v] = lw.lower(v, k.pairOps[k.prog[v]>>1:k.prog[v+1]>>1])
		}
	}
	st.FoldedOps = atBinary - dynamic
	st.GenericOps += lw.fallback
	st.SlabBytes = int64(len(k.pairOps))*int64(unsafe.Sizeof(pairOp{})) +
		int64(len(k.bias))*int64(unsafe.Sizeof([2]float64{})) +
		int64(len(k.prog))*int64(unsafe.Sizeof(int32(0)))
	st.BuildTime = time.Since(start)
	k.stats = st
	return k
}

// Stats returns the compilation statistics.
func (k *Kernels) Stats() KernelStats {
	st := k.stats
	st.SlabBytes += k.slabBytes.Load()
	return st
}

// Binary reports whether v has a binary score program (its domain is 2) —
// the samplers' per-draw dispatch, read from the program offsets.
func (k *Kernels) Binary(v VarID) bool { return k.prog[v]&1 == 0 }

// lowering is the state of one pass over the graph's binary variables: the
// compile, or a bias recomputation after a weight update.
type lowering struct {
	k *Kernels
	// fz holds, per variable, its evidence value when it is frozen and −1
	// when its value can still change. It doubles as the assignment constant
	// incidences are evaluated under, and as scratch for tabulate.
	fz Assignment
	// tables memoizes the coefficient table of a two-slot factor, which
	// depends only on its kind, v's slot and the two negation flags
	// (opFallback: not derived yet).
	tables [64]uint8
	// fallback counts the fallback records written.
	fallback int
}

func newLowering(k *Kernels) *lowering {
	g := k.g
	lw := &lowering{k: k, fz: make(Assignment, len(g.vars))}
	for i := range lw.fz {
		lw.fz[i] = -1
		if g.Frozen(VarID(i)) {
			lw.fz[i] = g.vars[i].Evidence
		}
	}
	for i := range lw.tables {
		lw.tables[i] = opFallback
	}
	return lw
}

// liveOther scans a factor's slots for variables other than v that can still
// change: n counts the distinct ones (2 stands for "two or more") and a is
// the first.
func liveOther(vars []VarID, v VarID, fz Assignment) (a VarID, n int) {
	a = NoVar
	for _, u := range vars {
		if u == v || u == a || fz[u] >= 0 {
			continue
		}
		if n++; n > 1 {
			return a, 2
		}
		a = u
	}
	return a, n
}

// spatialOther returns the endpoint of spatial pair s that is not v.
func (g *Graph) spatialOther(s int32, v VarID) VarID {
	if a := g.spatialA[s]; a != v {
		return a
	}
	return g.spatialB[s]
}

// tabulate derives the coefficient table of factor f at v when a is the one
// other endpoint that can still change, whatever the arity: it runs the
// interpreted evaluator over a's two values with every other slot at its
// frozen value.
func (lw *lowering) tabulate(f int32, v, a VarID) uint8 {
	g := lw.k.g
	vars, neg := g.FactorVars(f)
	var memo *uint8
	if len(vars) == 2 {
		key := int(g.factorKind[f]) << 3
		if vars[1] == v {
			key |= 4
		}
		if neg[0] {
			key |= 2
		}
		if neg[1] {
			key |= 1
		}
		if memo = &lw.tables[key]; *memo != opFallback {
			return *memo
		}
	}
	var codes uint8
	for o := int32(0); o < 2; o++ {
		lw.fz[a] = o
		for x := int32(0); x < 2; x++ {
			if g.satisfied(f, lw.fz, v, x) {
				codes |= coefPlus << cell(o, x)
			}
		}
	}
	lw.fz[a] = -1
	if memo != nil {
		*memo = codes
	}
	return codes
}

// pairCoef is the coefficient of a spatial pair's weight in the score of
// candidate x when the other endpoint holds o (Graph.spatialEnergy per unit
// weight): plus when the two agree, minus when they do not, zero when the
// relation's mask prunes the value pair. vIsA says which endpoint v is.
func pairCoef(mask []bool, h int32, vIsA bool, x, o int32) uint8 {
	if mask != nil {
		tj, tk := x, o
		if !vIsA {
			tj, tk = o, x
		}
		if !mask[tj*h+tk] {
			return coefZero
		}
	}
	if x == o {
		return coefPlus
	}
	return coefMinus
}

// addCoef applies one coefficient code at compile time.
func addCoef(acc, w float64, code uint8) float64 {
	switch code & 3 {
	case coefPlus:
		return acc + w
	case coefMinus:
		return acc - w
	}
	return acc
}

// lower walks binary variable v's incidences in score order. The constant
// ones — no other endpoint can still change — are evaluated under fz and
// summed into the returned bias. The dynamic ones are written to ops, which
// is exactly their count long, or skipped when ops is nil (a bias
// recomputation).
func (lw *lowering) lower(v VarID, ops []pairOp) (bias [2]float64) {
	k, g, fz := lw.k, lw.k.g, lw.fz
	n := 0
	for _, f := range g.VarLogicalFactors(v) {
		vars, _ := g.FactorVars(f)
		a, live := liveOther(vars, v, fz)
		switch {
		case live == 0:
			for x := int32(0); x < 2; x++ {
				if g.satisfied(f, fz, v, x) {
					bias[x] += g.factorWeight[f]
				}
			}
		case ops == nil:
			// A bias recomputation: the dynamic ops stand as compiled.
		case live == 1 && k.Binary(a):
			ops[n] = pairOp{a: a, w: f, codes: lw.tabulate(f, v, a)}
			n++
		default:
			ops[n] = pairOp{w: f, codes: opFallback}
			n++
			lw.fallback++
		}
	}
	spatial := g.VarSpatialPairs(v)
	if len(spatial) == 0 {
		return bias
	}
	// Finalize guarantees a pair joins two distinct atoms of one relation and
	// one domain, so every pair of a binary variable folds or is a pair op,
	// under one of two coefficient tables: v as endpoint B, v as endpoint A.
	rel := g.vars[v].Relation
	mask, h := g.allowedPairs[rel], g.domainOf[rel]
	var asB, asA uint8
	for o := int32(0); o < 2; o++ {
		for x := int32(0); x < 2; x++ {
			asB |= pairCoef(mask, h, false, x, o) << cell(o, x)
			asA |= pairCoef(mask, h, true, x, o) << cell(o, x)
		}
	}
	for _, s := range spatial {
		codes := asB
		if g.spatialA[s] == v {
			codes = asA
		}
		other := g.spatialOther(s, v)
		if o := fz[other]; o >= 0 {
			bias[0] = addCoef(bias[0], g.spatialW[s], codes>>cell(o, 0))
			bias[1] = addCoef(bias[1], g.spatialW[s], codes>>cell(o, 1))
		} else if ops != nil {
			ops[n] = pairOp{a: other, w: int32(len(g.factorWeight)) + s, codes: codes}
			n++
		}
	}
	return bias
}

// refold recomputes every bias from the graph after a weight update. The
// folded ops are not retained, so this re-classifies each incidence; only the
// first caller after an update does the work.
func (k *Kernels) refold() {
	k.foldMu.Lock()
	defer k.foldMu.Unlock()
	gen := k.g.weightGen.Load()
	if k.biasGen.Load() == gen {
		return
	}
	lw := newLowering(k)
	for v := range k.bias {
		if k.Binary(VarID(v)) {
			k.bias[v] = lw.lower(VarID(v), nil)
		}
	}
	k.biasGen.Store(gen)
}

// BinaryConditionalScores returns the unnormalized log-probabilities of
// v = 0 and v = 1 given the rest of the assignment: v's bias, then its
// dynamic ops in order. The ops never read a frozen variable from assign — it
// holds its evidence value by definition. Every op is the same load, shift,
// two table selects and two adds, with no branch on the neighbour's value;
// a coefficient is selected, never multiplied (Inf·0 is NaN), and adding the
// +0.0 of an unsatisfied cell is exact because an accumulator that starts at
// +0.0 and is only added to is never −0.0. For a non-binary variable the
// program is empty and the result is (0, 0); use ConditionalScores.
func (k *Kernels) BinaryConditionalScores(v VarID, assign Assignment) (s0, s1 float64) {
	g := k.g
	if k.biasGen.Load() != g.weightGen.Load() {
		k.refold()
	}
	s0, s1 = k.bias[v][0], k.bias[v][1]
	weights := g.weights
	var sel [4]float64
	ops := k.pairOps[k.prog[v]>>1 : k.prog[v+1]>>1]
	for i := range ops {
		op := &ops[i]
		if op.codes == opFallback {
			f0, f1 := k.fallbackScores(v, op.w, assign)
			s0 += f0
			s1 += f1
			continue
		}
		w := weights[op.w]
		sel[coefPlus], sel[coefMinus] = w, -w
		c := op.codes >> (uint(assign.Get(op.a)&1) << 2)
		s0 += sel[c&3]
		s1 += sel[c>>2&3]
	}
	return s0, s1
}

// fallbackScores evaluates one fallback record of v through the interpreted
// evaluators. Only logical factors fall back (arity ≥ 3 with two or more
// endpoints that can still change, or a categorical other endpoint).
func (k *Kernels) fallbackScores(v VarID, f int32, assign Assignment) (s0, s1 float64) {
	g := k.g
	if g.satisfied(f, assign, v, 0) {
		s0 = g.factorWeight[f]
	}
	if g.satisfied(f, assign, v, 1) {
		s1 = g.factorWeight[f]
	}
	return s0, s1
}

// compileSlab builds the general slab: every incidence of every variable,
// nothing folded.
func (k *Kernels) compileSlab() {
	g := k.g
	n := g.NumVars()
	k.off = make([]int32, n+1)
	k.ops = make([]kop, 0, len(g.varFactors)+len(g.varSpatial))
	maskIdx := map[int32]int16{}
	for v := 0; v < n; v++ {
		vid := VarID(v)
		for _, f := range g.VarLogicalFactors(vid) {
			k.ops = append(k.ops, compileFactor(g, vid, f))
		}
		for _, s := range g.VarSpatialPairs(vid) {
			k.ops = append(k.ops, k.compileSpatial(vid, s, maskIdx))
		}
		k.off[v+1] = int32(len(k.ops))
	}
	bytes := int64(len(k.ops))*int64(unsafe.Sizeof(kop{})) +
		int64(len(k.off))*int64(unsafe.Sizeof(int32(0)))
	for i := range k.masks {
		bytes += int64(len(k.masks[i].mask))
	}
	k.slabBytes.Store(bytes)
}

// program returns v's general-slab ops, compiling the slab on first use.
func (k *Kernels) program(v VarID) []kop {
	k.slabOnce.Do(k.compileSlab)
	return k.ops[k.off[v]:k.off[v+1]]
}

// compileFactor lowers one (variable, logical factor) incidence to an op.
// Shapes the specialized kernels cannot represent exactly — arity ≥ 3, v
// appearing in more than one slot, unary equal — keep the generic code,
// which evaluates through Graph.satisfied and is correct for everything.
func compileFactor(g *Graph, v VarID, f int32) kop {
	op := kop{code: kopGeneric, w: f, f: f}
	vars, neg := g.FactorVars(f)
	occ, pos := 0, -1
	for i, u := range vars {
		if u == v {
			occ++
			pos = i
		}
	}
	if occ != 1 {
		return op
	}
	switch len(vars) {
	case 1:
		switch g.factorKind[f] {
		case FactorIsTrue, FactorAnd, FactorOr:
			op.code = kopIsTrue
			if neg[0] {
				op.bits |= kbNegV
			}
		}
	case 2:
		other := vars[1-pos]
		var bits uint8
		if neg[pos] {
			bits |= kbNegV
		}
		if neg[1-pos] {
			bits |= kbNegO
		}
		switch g.factorKind[f] {
		case FactorImply:
			op.code, op.a, op.bits = kopImply2, other, bits
			if pos == 1 {
				op.bits |= kbConsequent
			}
		case FactorAnd:
			op.code, op.a, op.bits = kopAnd2, other, bits
		case FactorOr:
			op.code, op.a, op.bits = kopOr2, other, bits
		case FactorEqual:
			op.code, op.a = kopEqual2, other
		}
	}
	return op
}

// compileSpatial lowers one (variable, spatial pair) incidence to an op,
// interning the relation's pruning mask so evaluation is map-free.
func (k *Kernels) compileSpatial(v VarID, s int32, maskIdx map[int32]int16) kop {
	g := k.g
	a, b := g.spatialA[s], g.spatialB[s]
	op := kop{code: kopSpatialGeneric, w: s, f: s}
	if a == b {
		return op
	}
	other := a
	if other == v {
		other = b
	}
	rel := g.vars[a].Relation
	mask := g.allowedPairs[rel]
	if mask == nil {
		op.code, op.a = kopSpatial, other
		return op
	}
	mi, ok := maskIdx[rel]
	if !ok {
		if len(k.masks) > math.MaxInt16 {
			return op
		}
		mi = int16(len(k.masks))
		k.masks = append(k.masks, kmask{mask: mask, h: g.domainOf[rel]})
		maskIdx[rel] = mi
	}
	op.code, op.a, op.mask = kopSpatialMasked, other, mi
	if v != a {
		op.bits |= kbEndpointB
	}
	return op
}

// OpInfo is the human-readable decode of one compiled op — the score
// provenance a serving /v1/explain response reports. Weight reads go
// through the graph's live weight slices, so an explanation always shows
// the weights inference is actually using (learned weights included).
type OpInfo struct {
	// Kind names the op: "istrue", "imply", "and", "or", "equal",
	// "generic", "spatial", "spatial_masked" or "spatial_generic".
	Kind string
	// Weight is the op's current live weight (logical factor weight, or the
	// spatial pair's distance-derived weight).
	Weight float64
	// Other is the other endpoint of a binary/spatial op, or NoVar.
	Other VarID
	// ID is the factor id (logical ops) or spatial pair id (spatial ops) —
	// the index grounding's FactorRule maps back to a rule name.
	ID int32
	// Spatial marks spatial-pair ops (ID indexes spatial pairs, not
	// factors).
	Spatial bool
	// Generic marks ops evaluated by the interpreted fallback.
	Generic bool
	// Masked marks spatial ops evaluated under a co-occurrence pruning
	// mask.
	Masked bool
}

// NoVar is the OpInfo.Other sentinel for ops with no second endpoint.
const NoVar VarID = -1

// kopNames maps opcodes to their OpInfo.Kind spellings.
var kopNames = [...]string{
	kopGeneric:        "generic",
	kopIsTrue:         "istrue",
	kopImply2:         "imply",
	kopAnd2:           "and",
	kopOr2:            "or",
	kopEqual2:         "equal",
	kopSpatial:        "spatial",
	kopSpatialMasked:  "spatial_masked",
	kopSpatialGeneric: "spatial_generic",
}

// VarProgram decodes one variable's compiled score program: every factor
// and spatial pair contributing to its conditional, in the exact
// accumulation order the samplers use. The result is freshly allocated.
func (k *Kernels) VarProgram(v VarID) []OpInfo {
	g := k.g
	ops := k.program(v)
	out := make([]OpInfo, len(ops))
	for i := range ops {
		op := &ops[i]
		info := OpInfo{Kind: kopNames[op.code], ID: op.f, Other: NoVar}
		switch op.code {
		case kopSpatial, kopSpatialMasked, kopSpatialGeneric:
			info.Spatial = true
			info.Weight = g.spatialW[op.w]
			info.Masked = op.code == kopSpatialMasked
			info.Generic = op.code == kopSpatialGeneric
			if op.code == kopSpatialGeneric {
				// The generic op does not pre-resolve the endpoint; recover
				// it from the pair table.
				a, b := g.spatialA[op.f], g.spatialB[op.f]
				if a == v {
					info.Other = b
				} else {
					info.Other = a
				}
			} else {
				info.Other = op.a
			}
		default:
			info.Weight = g.factorWeight[op.w]
			info.Generic = op.code == kopGeneric
			switch op.code {
			case kopImply2, kopAnd2, kopOr2, kopEqual2:
				info.Other = op.a
			case kopGeneric:
				// Report the first non-v endpoint of the interpreted factor,
				// when it has exactly one other distinct variable.
				vars, _ := g.FactorVars(op.f)
				for _, u := range vars {
					if u != v {
						if info.Other != NoVar && info.Other != u {
							info.Other = NoVar
							break
						}
						info.Other = u
					}
				}
			}
		}
		out[i] = info
	}
	return out
}

// ConditionalScores is the compiled equivalent of Graph.ConditionalScores:
// same signature, same accumulation order, bit-identical results. Like the
// interpreted path it re-reads neighbour values per candidate, so concurrent
// writers (hogwild) are observed with the same granularity.
func (k *Kernels) ConditionalScores(v VarID, assign Assignment, buf []float64) []float64 {
	g := k.g
	domain := int(g.vars[v].Domain)
	buf = buf[:domain]
	ops := k.program(v)
	fw, sw := g.factorWeight, g.spatialW
	for x := 0; x < domain; x++ {
		xv := int32(x)
		var e float64
		for i := range ops {
			op := &ops[i]
			switch op.code {
			case kopIsTrue:
				if (xv != 0) != (op.bits&kbNegV != 0) {
					e += fw[op.w]
				}
			case kopImply2:
				tv := (xv != 0) != (op.bits&kbNegV != 0)
				to := (assign.Get(op.a) != 0) != (op.bits&kbNegO != 0)
				var sat bool
				if op.bits&kbConsequent != 0 {
					sat = !to || tv
				} else {
					sat = !tv || to
				}
				if sat {
					e += fw[op.w]
				}
			case kopAnd2:
				if (xv != 0) != (op.bits&kbNegV != 0) &&
					(assign.Get(op.a) != 0) != (op.bits&kbNegO != 0) {
					e += fw[op.w]
				}
			case kopOr2:
				if (xv != 0) != (op.bits&kbNegV != 0) ||
					(assign.Get(op.a) != 0) != (op.bits&kbNegO != 0) {
					e += fw[op.w]
				}
			case kopEqual2:
				if xv == assign.Get(op.a) {
					e += fw[op.w]
				}
			case kopGeneric:
				if g.satisfied(op.f, assign, v, xv) {
					e += fw[op.w]
				}
			case kopSpatial:
				if xv == assign.Get(op.a) {
					e += sw[op.w]
				} else {
					e -= sw[op.w]
				}
			case kopSpatialMasked:
				m := &k.masks[op.mask]
				ov := assign.Get(op.a)
				tj, tk := xv, ov
				if op.bits&kbEndpointB != 0 {
					tj, tk = ov, xv
				}
				if m.mask[tj*m.h+tk] {
					if xv == ov {
						e += sw[op.w]
					} else {
						e -= sw[op.w]
					}
				}
			case kopSpatialGeneric:
				e += g.spatialEnergy(op.f, assign, v, xv)
			}
		}
		buf[x] = e
	}
	return buf
}
