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
// factor and candidate value. One compiler, one program form: a bias plus a
// run of 12-byte pair ops, each an incidence's weight index, its one other
// endpoint that can still change, and coefficient codes {0, +w, −w} indexed
// by (other's value, candidate). The caller picks one of two program sets:
//
//   - The folded set ((*Graph).Kernels(): every sampler schedule, the
//     incremental resample, every shard, every lazy query). At a binary
//     variable, every incidence none of whose other endpoints can change —
//     unary factors, factors with the variable in every slot, factors and
//     pairs whose other slots are all frozen — is evaluated once, here, and
//     summed into the bias.
//   - The nothing-frozen set (CompileKernels(g, false): weight learning, whose
//     model chain frees evidence).
//
// Categorical variables, and every variable of the nothing-frozen set, fold
// nothing: a constant incidence is an op over the variable itself whose table
// ignores the other endpoint, and the program adds what the interpreted walk
// adds, in its order — bit-identical to Graph.ConditionalScores on any
// assignment. A folded binary program adds the bias, the in-order sum of the
// constant contributions, then the dynamic ops in order: the same terms
// regrouped, so a score can differ from the interpreted one in the last ulp
// and not otherwise (kernel_test.go pins both statements).
//
// Frozen means evidence in the graph and not marked live (Graph.Frozen): a
// variable pinned after construction is a query variable, and a shard's halo
// copies, the one evidence that changes, are marked live (Graph.MarkLive).
//
// Ops store indices into the graph's live weight table, so the weight setters
// reach them with no recompilation; the biases bake weights in, so the
// setters bump the graph's weight generation and the next binary score
// recomputes the biases from the graph.

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

// pairOp is one op of a score program (12 bytes): an incidence whose only
// endpoint that can still change, besides the variable itself, is a (v
// itself for a constant op). At a binary variable over a binary endpoint,
// codes holds four 2-bit coefficient codes, the cell for (other's value o,
// candidate x) at bit 2·(2o+x); at a categorical variable, tab indexes the
// interned table Kernels.tables[tab], cell (o, x) at o·h_v + x. A fallback
// record (codes == opFallback) keeps only w.
type pairOp struct {
	a     VarID // the other endpoint, read through the assignment
	w     int32 // index into Graph.weights: factor f, or NumFactors + pair s
	codes uint8
	tab   uint16
}

// cell returns the shift of the (o, x) coefficient code inside pairOp.codes.
func cell(o, x int32) uint { return uint(o<<1|x) << 1 }

// KernelStats describes a compiled program set (for observability).
type KernelStats struct {
	// BuildTime is the wall time of the compilation pass.
	BuildTime time.Duration
	// Vars is the number of per-variable programs.
	Vars int
	// Ops is the number of (variable, factor) and (variable, spatial pair)
	// incidences compiled, folded or not.
	Ops int
	// FoldedOps counts the incidences at binary variables that were
	// evaluated at compile time and summed into the variable's bias.
	FoldedOps int
	// GenericOps counts the fallback records: incidences a sampler evaluates
	// through the interpreted evaluators at run time.
	GenericOps int
	// SlabBytes is the compiled footprint: ops, biases, offsets and
	// coefficient tables.
	SlabBytes int64
}

// Kernels holds the compiled per-variable score programs of one graph.
// Programs are immutable after compilation and safe for concurrent use, like
// the graph itself; biases are recomputed (under the same no-concurrent-
// samplers rule as the weight setters) after a weight update.
type Kernels struct {
	g *Graph
	// fold says whether binary variables fold their constant incidences into
	// the biases (the samplers' set) or not (the nothing-frozen set).
	fold bool

	// prog[v]>>1 is where v's ops start in pairOps (and the previous
	// variable's end); the low bit marks a categorical variable.
	prog    []int32
	bias    [][2]float64
	pairOps []pairOp
	// tables holds the interned coefficient tables of categorical ops.
	tables [][]uint8
	// biasGen is the graph weight generation the biases were folded under.
	biasGen atomic.Uint64
	foldMu  sync.Mutex

	stats KernelStats
}

// Kernels returns the graph's folded program set, compiling it on first use
// (subsequent calls return the cached set). Safe for concurrent callers.
func (g *Graph) Kernels() *Kernels {
	g.kernOnce.Do(func() { g.kern = CompileKernels(g, true) })
	return g.kern
}

// CompileKernels compiles the graph's score programs: a counting pass sizes
// the op array exactly, then each variable's incidences are lowered in score
// order. With fold, binary variables sum their constant incidences into a
// bias (the set (*Graph).Kernels caches, which is what samplers want); without
// it nothing is frozen and every program equals the interpreted walk on any
// assignment (what weight learning's free model chain needs).
func CompileKernels(g *Graph, fold bool) *Kernels {
	start := time.Now()
	k := &Kernels{g: g, fold: fold}
	k.biasGen.Store(g.weightGen.Load())
	n := g.NumVars()
	st := KernelStats{Vars: n, Ops: len(g.varFactors) + len(g.varSpatial)}
	lw := newLowering(k)
	k.prog = make([]int32, n+1)
	nops := 0
	for v := VarID(0); int(v) < n; v++ {
		k.prog[v] = int32(nops) << 1
		if g.vars[v].Domain != 2 {
			k.prog[v] |= 1
		}
		logical, spatial := g.VarLogicalFactors(v), g.VarSpatialPairs(v)
		if !fold || !k.Binary(v) {
			nops += len(logical) + len(spatial)
			continue
		}
		for _, f := range logical {
			vars, _ := g.FactorVars(f)
			if _, live := liveOther(vars, v, lw.fz); live > 0 {
				nops++
			}
		}
		for _, s := range spatial {
			if lw.fz[g.spatialOther(s, v)] < 0 {
				nops++
			}
		}
	}
	k.prog[n] = int32(nops) << 1
	k.pairOps = make([]pairOp, nops)
	k.bias = make([][2]float64, n)
	for v := VarID(0); int(v) < n; v++ {
		k.bias[v] = lw.lower(v, k.pairOps[k.prog[v]>>1:k.prog[v+1]>>1])
	}
	st.FoldedOps = st.Ops - nops
	st.GenericOps = lw.fallback
	st.SlabBytes = int64(len(k.pairOps))*int64(unsafe.Sizeof(pairOp{})) +
		int64(len(k.bias))*int64(unsafe.Sizeof([2]float64{})) +
		int64(len(k.prog))*int64(unsafe.Sizeof(int32(0)))
	for _, t := range k.tables {
		st.SlabBytes += int64(len(t))
	}
	st.BuildTime = time.Since(start)
	k.stats = st
	return k
}

// Stats returns the compilation statistics.
func (k *Kernels) Stats() KernelStats { return k.stats }

// Binary reports whether v has a binary score program (its domain is 2) —
// the samplers' per-draw dispatch, read from the program offsets.
func (k *Kernels) Binary(v VarID) bool { return k.prog[v]&1 == 0 }

// lowering is the state of one pass over the graph's variables: the compile,
// or a bias recomputation after a weight update.
type lowering struct {
	k *Kernels
	// fz holds, per variable, its evidence value when it is frozen and the
	// set folds, and −1 otherwise: the assignment constant incidences are
	// evaluated under, and scratch for the tabulations.
	fz Assignment
	// codes memoizes the coefficient codes of a two-slot factor between two
	// binary variables, which depend only on its shape (shapeKey; opFallback:
	// not derived yet).
	codes [64]uint8
	// memo maps a categorical table's key to its index in Kernels.tables —
	// {−1, shapeKey, h_a, h_v} for a two-slot factor, {relation, v is
	// endpoint A, h, h} for a spatial pair — and interned maps its cells to
	// it; cells is scratch for one table.
	memo     map[[4]int32]int
	interned map[string]int
	cells    []uint8
	// fallback counts the fallback records written.
	fallback int
}

func newLowering(k *Kernels) *lowering {
	g := k.g
	lw := &lowering{k: k, fz: make(Assignment, len(g.vars))}
	for i := range lw.fz {
		lw.fz[i] = -1
		if k.fold && g.Frozen(VarID(i)) {
			lw.fz[i] = g.vars[i].Evidence
		}
	}
	for i := range lw.codes {
		lw.codes[i] = opFallback
	}
	return lw
}

// liveOther scans a factor's slots for variables other than v that can still
// change under fz (nil: every variable can): n counts the distinct ones (2
// stands for "two or more") and a is the first.
func liveOther(vars []VarID, v VarID, fz Assignment) (a VarID, n int) {
	a = NoVar
	for _, u := range vars {
		if u == v || u == a || fz != nil && fz[u] >= 0 {
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

// shapeKey is what a two-slot factor's coefficient table depends on besides
// the domains: its kind, v's slot and the two negation flags.
func (g *Graph) shapeKey(f int32, v VarID) int32 {
	vars, neg := g.FactorVars(f)
	key := int32(g.factorKind[f]) << 3
	if vars[1] == v {
		key |= 4
	}
	if neg[0] {
		key |= 2
	}
	if neg[1] {
		key |= 1
	}
	return key
}

// tabulate runs the interpreted evaluator of factor f over every (a's value,
// candidate of v) cell with every slot but v's and a's at fz, appending the
// codes to lw.cells row by row. a == v stands for "no other endpoint": every
// row is the same.
func (lw *lowering) tabulate(f int32, v, a VarID) []uint8 {
	g := lw.k.g
	hv, ha := g.vars[v].Domain, g.vars[a].Domain
	cells := lw.cells[:0]
	old := lw.fz[a]
	for o := int32(0); o < ha; o++ {
		if a == v && o > 0 {
			cells = append(cells, cells[:hv]...)
			continue
		}
		lw.fz[a] = o
		for x := int32(0); x < hv; x++ {
			c := coefZero
			if g.satisfied(f, lw.fz, v, x) {
				c = coefPlus
			}
			cells = append(cells, c)
		}
	}
	lw.fz[a] = old
	lw.cells = cells
	return cells
}

// binaryCodes packs factor f's 2×2 table at binary v over binary a into
// inline codes, memoized per shape for two-slot factors between two
// variables.
func (lw *lowering) binaryCodes(f int32, v, a VarID) uint8 {
	g := lw.k.g
	var memo *uint8
	if vars, _ := g.FactorVars(f); len(vars) == 2 && a != v {
		if memo = &lw.codes[g.shapeKey(f, v)]; *memo != opFallback {
			return *memo
		}
	}
	var codes uint8
	for i, c := range lw.tabulate(f, v, a) {
		codes |= c << (2 * i)
	}
	if memo != nil {
		*memo = codes
	}
	return codes
}

// factorTable returns the table index of factor f at categorical v over a,
// memoized per shape and domains for two-slot factors between two variables.
func (lw *lowering) factorTable(f int32, v, a VarID) int {
	g := lw.k.g
	if vars, _ := g.FactorVars(f); len(vars) != 2 || a == v {
		return lw.intern(lw.tabulate(f, v, a))
	}
	key := [4]int32{-1, g.shapeKey(f, v), g.vars[a].Domain, g.vars[v].Domain}
	return lw.memoize(key, func() []uint8 { return lw.tabulate(f, v, a) })
}

// spatialTable returns the table index of a spatial pair of relation rel
// whose endpoints have domain h, at v on endpoint side A (vIsA) or B.
func (lw *lowering) spatialTable(rel, h int32, vIsA bool) int {
	key := [4]int32{rel, 0, h, h}
	if vIsA {
		key[1] = 1
	}
	return lw.memoize(key, func() []uint8 {
		mask, mh := lw.k.g.allowedPairs[rel], lw.k.g.domainOf[rel]
		cells := lw.cells[:0]
		for o := int32(0); o < h; o++ {
			for x := int32(0); x < h; x++ {
				cells = append(cells, pairCoef(mask, mh, vIsA, x, o))
			}
		}
		lw.cells = cells
		return cells
	})
}

// memoize returns the table index remembered under key, or interns the
// cells derive returns and remembers their index.
func (lw *lowering) memoize(key [4]int32, derive func() []uint8) int {
	if t, ok := lw.memo[key]; ok {
		return t
	}
	t := lw.intern(derive())
	if lw.memo == nil {
		lw.memo = map[[4]int32]int{}
	}
	lw.memo[key] = t
	return t
}

// intern returns the index of a table with these cells in Kernels.tables,
// appending a copy if there is none; −1 when the index space is full.
func (lw *lowering) intern(cells []uint8) int {
	if t, ok := lw.interned[string(cells)]; ok {
		return t
	}
	k := lw.k
	if len(k.tables) > math.MaxUint16 {
		return -1
	}
	if lw.interned == nil {
		lw.interned = map[string]int{}
	}
	t := len(k.tables)
	k.tables = append(k.tables, append([]uint8(nil), cells...))
	lw.interned[string(cells)] = t
	return t
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

// lower walks v's incidences in score order and writes its ops, which is
// exactly their count long, or skips them when ops is nil (a bias
// recomputation). Where v folds, the constant incidences — no other endpoint
// can still change — are evaluated under fz and summed into the returned
// bias instead.
func (lw *lowering) lower(v VarID, ops []pairOp) (bias [2]float64) {
	k, g := lw.k, lw.k.g
	binary := k.Binary(v)
	fold := k.fold && binary
	var fz Assignment // the frozen view: nil where nothing folds
	if fold {
		fz = lw.fz
	}
	n := 0
	for _, f := range g.VarLogicalFactors(v) {
		vars, _ := g.FactorVars(f)
		a, live := liveOther(vars, v, fz)
		if live == 0 {
			a = v
		}
		var op pairOp
		switch {
		case live == 0 && fold:
			for x := int32(0); x < 2; x++ {
				if g.satisfied(f, lw.fz, v, x) {
					bias[x] += g.factorWeight[f]
				}
			}
			continue
		case ops == nil:
			continue // a bias recomputation: the ops stand as compiled
		case live == 2 || binary && !k.Binary(a):
			op = lw.fallbackOp(f)
		case binary:
			op = pairOp{a: a, w: f, codes: lw.binaryCodes(f, v, a)}
		default:
			op = lw.tableOp(a, f, lw.factorTable(f, v, a))
		}
		ops[n] = op
		n++
	}
	spatial := g.VarSpatialPairs(v)
	if len(spatial) == 0 {
		return bias
	}
	// Finalize guarantees a pair joins two distinct atoms of one relation and
	// one domain, so every pair lowers under one of two coefficient tables: v
	// as endpoint B, v as endpoint A.
	rel, h := g.vars[v].Relation, g.vars[v].Domain
	var asB, asA uint8 // binary v: inline codes
	tabB, tabA := -1, -1
	if binary {
		mask, mh := g.allowedPairs[rel], g.domainOf[rel]
		for o := int32(0); o < 2; o++ {
			for x := int32(0); x < 2; x++ {
				asB |= pairCoef(mask, mh, false, x, o) << cell(o, x)
				asA |= pairCoef(mask, mh, true, x, o) << cell(o, x)
			}
		}
	} else if ops != nil {
		tabB, tabA = lw.spatialTable(rel, h, false), lw.spatialTable(rel, h, true)
	}
	nf := int32(len(g.factorWeight))
	for _, s := range spatial {
		codes, tab := asB, tabB
		if g.spatialA[s] == v {
			codes, tab = asA, tabA
		}
		other := g.spatialOther(s, v)
		switch o := lw.fz[other]; {
		case fold && o >= 0:
			bias[0] = addCoef(bias[0], g.spatialW[s], codes>>cell(o, 0))
			bias[1] = addCoef(bias[1], g.spatialW[s], codes>>cell(o, 1))
		case ops == nil:
		case binary:
			ops[n] = pairOp{a: other, w: nf + s, codes: codes}
			n++
		default:
			ops[n] = lw.tableOp(other, nf+s, tab)
			n++
		}
	}
	return bias
}

// fallbackOp returns a fallback record of weight index w.
func (lw *lowering) fallbackOp(w int32) pairOp {
	lw.fallback++
	return pairOp{w: w, codes: opFallback}
}

// tableOp returns the categorical op over a under table t, or a fallback
// record when the table did not fit the index space (t < 0).
func (lw *lowering) tableOp(a VarID, w int32, t int) pairOp {
	if t < 0 {
		return lw.fallbackOp(w)
	}
	return pairOp{a: a, w: w, tab: uint16(t)}
}

// refold recomputes every bias from the graph after a weight update. The
// folded ops are not retained, so this re-classifies each incidence; only the
// first caller after an update does the work, and a set that folds nothing
// has no bias to recompute.
func (k *Kernels) refold() {
	k.foldMu.Lock()
	defer k.foldMu.Unlock()
	gen := k.g.weightGen.Load()
	if k.biasGen.Load() == gen {
		return
	}
	if k.fold {
		lw := newLowering(k)
		for v := range k.bias {
			if k.Binary(VarID(v)) {
				k.bias[v] = lw.lower(VarID(v), nil)
			}
		}
	}
	k.biasGen.Store(gen)
}

// BinaryConditionalScores returns the unnormalized log-probabilities of
// v = 0 and v = 1 given the rest of the assignment: v's bias, then its
// dynamic ops in order. Folded ops never read a frozen variable from assign —
// it holds its evidence value by definition. Every op is the same load, shift,
// two table selects and two adds, with no branch on the neighbour's value;
// a coefficient is selected, never multiplied (Inf·0 is NaN), and adding the
// +0.0 of an unsatisfied cell is exact because an accumulator that starts at
// +0.0 and is only added to is never −0.0. For a categorical variable the
// result is meaningless; use ConditionalScores.
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

// ConditionalScores fills buf (length ≥ v's domain) with the unnormalized
// log-probabilities of each candidate value of v and returns buf[:domain]:
// the binary program for a binary v, otherwise each op's other endpoint read
// once and its table row added to all h candidates, fallback records through
// the interpreted evaluators. A categorical variable's program folds nothing,
// so its scores equal Graph.ConditionalScores bit-for-bit: each candidate
// receives the same additions in the same order.
func (k *Kernels) ConditionalScores(v VarID, assign Assignment, buf []float64) []float64 {
	if k.Binary(v) {
		buf = buf[:2]
		buf[0], buf[1] = k.BinaryConditionalScores(v, assign)
		return buf
	}
	g := k.g
	h := int(g.vars[v].Domain)
	buf = buf[:h]
	clear(buf)
	weights, nf := g.weights, int32(len(g.factorWeight))
	var sel [4]float64
	ops := k.pairOps[k.prog[v]>>1 : k.prog[v+1]>>1]
	for i := range ops {
		op := &ops[i]
		if op.codes == opFallback {
			for x := range buf {
				if op.w >= nf {
					buf[x] += g.spatialEnergy(op.w-nf, assign, v, int32(x))
				} else if g.satisfied(op.w, assign, v, int32(x)) {
					buf[x] += weights[op.w]
				}
			}
			continue
		}
		w := weights[op.w]
		sel[coefPlus], sel[coefMinus] = w, -w
		o := int(assign.Get(op.a)) * h
		for x, c := range k.tables[op.tab][o : o+h] {
			buf[x] += sel[c&3]
		}
	}
	return buf
}
