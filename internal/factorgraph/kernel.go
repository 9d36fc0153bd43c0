package factorgraph

import (
	"math"
	"slices"
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
//   - A binary variable compiles to a log-odds program: a bias, then one
//     24-byte entry per distinct neighbour that can still change, holding
//     what that neighbour adds to log P(v=0)/P(v=1) at each of its two
//     values. Every incidence on the same neighbour — a rule's imply both
//     ways, the spatial pair — is summed into that one entry, so a draw is
//     one accumulator and one add per neighbour.
//   - A categorical variable compiles to a run of 12-byte table ops, one per
//     incidence: its weight index, its one other endpoint that can still
//     change, and an interned table of coefficient codes {0, +w, −w} indexed
//     by (other's value, candidate).
//
// The caller picks one of two program sets:
//
//   - The folded set ((*Graph).Kernels(): every sampler schedule, the
//     incremental resample, every shard, every lazy query). At a binary
//     variable, every incidence none of whose other endpoints can change —
//     unary factors, factors with the variable in every slot, factors and
//     pairs whose other slots are all frozen — is evaluated under the
//     evidence and summed into the bias.
//   - The nothing-frozen set (CompileKernels(g, false): weight learning, whose
//     model chain frees evidence). Only incidences with no other endpoint at
//     all reach a bias.
//
// A categorical program folds nothing: a constant incidence is an op over the
// variable itself whose table ignores the other endpoint, and the program
// adds what the interpreted walk adds, in its order — bit-identical to
// Graph.ConditionalScores on any assignment. A log-odds program adds the
// terms of the interpreted s0 − s1 regrouped: each incidence's term is what
// it adds to candidate 0 minus what it adds to candidate 1; the bias sums the
// constant terms in score order, each entry cell its neighbour's terms in
// score order, and the evaluator adds the bias, then the entries in order of
// first appearance. A log-odds can therefore differ from the interpreted one
// in the last ulps and not otherwise (kernel_test.go pins both statements).
//
// Frozen means evidence in the graph and not marked live (Graph.Frozen): a
// variable pinned after construction is a query variable, and a shard's halo
// copies, the one evidence that changes, are marked live (Graph.MarkLive).
//
// Table ops read their weight from the graph's live weight table by index.
// Biases and entries bake weights in: the weight setters bump the graph's
// weight generation, and the next binary score recomputes every bias and
// entry in one allocation-free pass over the recipe the compiler kept.

// Coefficient codes: what one (other's value, candidate) cell adds to the
// candidate's score.
const (
	coefZero  uint8 = 0 // +0.0 (unsatisfied factor, pruned value pair)
	coefPlus  uint8 = 1 // +w
	coefMinus uint8 = 2 // −w (disagreeing spatial pair)

	// noCodes marks a binary shape whose codes are not derived yet (no table
	// holds the unused code 3 in every cell).
	noCodes uint8 = 0xff
	// noTable in pairOp.tab marks an incidence no table expresses; it is
	// evaluated by the interpreted evaluators.
	noTable = math.MaxUint16
)

// pairOp is one op of a categorical program (12 bytes): an incidence whose
// only endpoint that can still change, besides v, is a (v itself for a
// constant op), under the interned table Kernels.tables[tab], cell (o, x) at
// o·h_v + x. A fallback record (tab == noTable) keeps only w.
type pairOp struct {
	a   VarID // the other endpoint, read through the assignment
	w   int32 // index into Graph.weights: factor f, or NumFactors + pair s
	tab uint16
}

// entry is one neighbour of a log-odds program (24 bytes): while a holds o it
// adds d[o] to v's log-odds. a < 0 marks a fallback record of factor ^a (arity
// ≥ 3 with two or more endpoints that can still change, or a categorical other
// endpoint), evaluated through the interpreted evaluators.
type entry struct {
	a VarID
	d [2]float64
}

// step is one record of the refold recipe (12 bytes): an incidence of a binary
// variable, its weight index, its coefficient codes — the cell for (other's
// value o, candidate x) at bit 2·(2o+x); a constant incidence keeps its one row
// in the low nibble — and its destination dst: the variable whose bias, or
// the entry whose cells, its term goes to (which half of the recipe it is in
// says which).
type step struct {
	w, dst int32
	codes  uint8
}

// cell returns the shift of the (o, x) coefficient code inside step.codes.
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
	// FoldedOps counts the incidences at binary variables of the folded set
	// that no other changing endpoint reaches, summed into the variable's
	// bias. The nothing-frozen set folds nothing against evidence: 0.
	FoldedOps int
	// GenericOps counts the fallback records: incidences a sampler evaluates
	// through the interpreted evaluators at run time.
	GenericOps int
	// SlabBytes is the compiled footprint: entries, recipe, table ops,
	// biases, offsets and coefficient tables.
	SlabBytes int64
}

// Kernels holds the compiled per-variable score programs of one graph.
// Programs are immutable after compilation and safe for concurrent use, like
// the graph itself; biases and entries are refolded (under the same
// no-concurrent-samplers rule as the weight setters) after a weight update.
type Kernels struct {
	g *Graph
	// fold says whether binary variables fold their frozen endpoints into the
	// biases (the samplers' set) or not (the nothing-frozen set).
	fold bool

	// prog[v]>>1 is where v's entries start in entries (and the previous
	// variable's end); the low bit marks a categorical variable, whose entry
	// run is empty and whose table ops are ops[opOff[v]:opOff[v+1]].
	prog    []int32
	bias    []float64
	entries []entry
	// The recipe refold rebuilds bias and entries from: every binary
	// incidence but the fallback records, in score order per variable, split
	// by destination.
	biasRecipe, entryRecipe []step
	opOff                   []int32
	ops                     []pairOp
	// tables holds the interned coefficient tables of categorical ops.
	tables [][]uint8
	// gen is the graph weight generation bias and entries were baked under.
	gen    atomic.Uint64
	foldMu sync.Mutex

	stats KernelStats
}

// Kernels returns the graph's folded program set, compiling it on first use
// (subsequent calls return the cached set). Safe for concurrent callers.
func (g *Graph) Kernels() *Kernels {
	g.kernOnce.Do(func() { g.kern = CompileKernels(g, true) })
	return g.kern
}

// CompileKernels compiles the graph's score programs: each variable's
// incidences are lowered in score order, then the weights baked in. With
// fold, binary variables sum the incidences their frozen endpoints make
// constant into a bias (the set (*Graph).Kernels caches, which is what
// samplers want); without it nothing is frozen and every program holds on
// any assignment (what weight learning's free model chain needs).
func CompileKernels(g *Graph, fold bool) *Kernels {
	start := time.Now()
	k := &Kernels{g: g, fold: fold}
	n := g.NumVars()
	st := KernelStats{Vars: n, Ops: len(g.varFactors) + len(g.varSpatial)}
	lw := newLowering(k)
	k.prog, k.opOff = make([]int32, n+1), make([]int32, n+1)
	// The binary incidences bound the recipe and the entries (equal but for
	// fallback records and shared neighbours); the categorical ones are the
	// table ops.
	nrec, nops := 0, 0
	for v := VarID(0); int(v) < n; v++ {
		if d := len(g.VarLogicalFactors(v)) + len(g.VarSpatialPairs(v)); g.vars[v].Domain == 2 {
			nrec += d
		} else {
			nops += d
		}
	}
	lw.recipe, k.ops, lw.nbr = make([]step, nrec), make([]pairOp, 0, nops), make([]VarID, 0, nrec)
	for v := VarID(0); int(v) < n; v++ {
		k.prog[v], k.opOff[v] = int32(len(lw.nbr))<<1, int32(len(k.ops))
		if g.vars[v].Domain == 2 {
			lw.lowerBinary(v)
		} else {
			k.prog[v] |= 1
			lw.lowerTables(v)
		}
	}
	k.prog[n], k.opOff[n] = int32(len(lw.nbr))<<1, int32(len(k.ops))
	k.bias, k.entries = make([]float64, n), make([]entry, len(lw.nbr))
	for i, a := range lw.nbr {
		k.entries[i].a = a
	}
	// Bias steps filled the recipe from the front, entry steps from the back.
	k.biasRecipe, k.entryRecipe = lw.recipe[:lw.nb:lw.nb], lw.recipe[nrec-lw.ne:]
	slices.Reverse(k.entryRecipe)
	k.gen.Store(g.weightGen.Load())
	k.bake()
	if fold {
		st.FoldedOps = lw.nb
	}
	st.GenericOps = lw.fallback
	st.SlabBytes = int64(len(k.entries))*int64(unsafe.Sizeof(entry{})) +
		int64(lw.nb+lw.ne)*int64(unsafe.Sizeof(step{})) +
		int64(len(k.ops))*int64(unsafe.Sizeof(pairOp{})) +
		int64(len(k.bias))*8 + int64(len(k.prog)+len(k.opOff))*4
	for _, t := range k.tables {
		st.SlabBytes += int64(len(t))
	}
	st.BuildTime = time.Since(start)
	k.stats = st
	return k
}

// Stats returns the compilation statistics.
func (k *Kernels) Stats() KernelStats { return k.stats }

// Binary reports whether v has a log-odds program (its domain is 2) — the
// samplers' per-draw dispatch, read from the program offsets.
func (k *Kernels) Binary(v VarID) bool { return k.prog[v]&1 == 0 }

// lowering is the state of one compilation pass over the graph's variables.
type lowering struct {
	k *Kernels
	// fz holds, per variable, its evidence value when it is frozen and the
	// set folds, and −1 otherwise: the assignment constant incidences are
	// evaluated under, and scratch for the tabulations.
	fz Assignment
	// slot holds, per neighbour, the index of the last entry numbered for it:
	// an index below the current program's first entry is another program's.
	// nbr lists the entries' neighbours in order.
	slot []int32
	nbr  []VarID
	// recipe is the whole recipe while it fills: nb bias steps from the
	// front, ne entry steps from the back.
	recipe []step
	nb, ne int
	// codes memoizes the coefficient codes of a two-slot factor between two
	// binary variables, which depend only on its shape (shapeKey; noCodes:
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
	lw := &lowering{k: k, fz: make(Assignment, len(g.vars)), slot: make([]int32, len(g.vars))}
	for i := range lw.fz {
		lw.fz[i], lw.slot[i] = -1, -1
		if k.fold && g.Frozen(VarID(i)) {
			lw.fz[i] = g.vars[i].Evidence
		}
	}
	for i := range lw.codes {
		lw.codes[i] = noCodes
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
// step codes (a == v: the constant row under fz), memoized per shape for
// two-slot factors between two binary variables — a constant one is the row
// its frozen other slot selects.
func (lw *lowering) binaryCodes(f int32, v, a VarID) uint8 {
	g := lw.k.g
	vars, _ := g.FactorVars(f)
	u := a // the other slot the shape's table runs over
	if len(vars) == 2 && a == v {
		u = vars[0] ^ vars[1] ^ v
	}
	if len(vars) != 2 || u == v || g.vars[u].Domain != 2 {
		return pack(lw.tabulate(f, v, a))
	}
	memo := &lw.codes[g.shapeKey(f, v)]
	if *memo == noCodes {
		*memo = pack(lw.tabulate(f, v, u))
	}
	if a == v {
		return *memo >> cell(lw.fz[u], 0)
	}
	return *memo
}

// pack packs up to four 2-bit coefficient codes into step codes, the first
// in the low bits.
func pack(cells []uint8) (codes uint8) {
	for i, c := range cells {
		codes |= c << (2 * i)
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
	if len(k.tables) >= noTable {
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

// lowerBinary appends binary v's entries (their neighbours, to lw.nbr) and
// recipe steps, walking its incidences in score order. A logical factor with
// no other endpoint that can change is a constant of v; one with two or more,
// or a categorical one, is a fallback record.
func (lw *lowering) lowerBinary(v VarID) {
	g := lw.k.g
	first := int32(len(lw.nbr))
	for _, f := range g.VarLogicalFactors(v) {
		vars, _ := g.FactorVars(f)
		switch a, live := liveOther(vars, v, lw.fz); {
		case live == 2 || live == 1 && g.vars[a].Domain != 2:
			lw.fallback++
			lw.nbr = append(lw.nbr, ^f)
		case live == 0:
			lw.emit(v, v, first, f, lw.binaryCodes(f, v, v))
		default:
			lw.emit(v, a, first, f, lw.binaryCodes(f, v, a))
		}
	}
	spatial := g.VarSpatialPairs(v)
	if len(spatial) == 0 {
		return
	}
	// Finalize guarantees a pair joins two distinct atoms of one relation and
	// one domain, so every pair lowers under one of two coefficient tables: v
	// as endpoint B, v as endpoint A.
	rel := g.vars[v].Relation
	mask, mh := g.allowedPairs[rel], g.domainOf[rel]
	var asB, asA uint8
	for o := int32(0); o < 2; o++ {
		for x := int32(0); x < 2; x++ {
			asB |= pairCoef(mask, mh, false, x, o) << cell(o, x)
			asA |= pairCoef(mask, mh, true, x, o) << cell(o, x)
		}
	}
	nf := int32(len(g.factorWeight))
	for _, s := range spatial {
		codes := asB
		if g.spatialA[s] == v {
			codes = asA
		}
		if other := g.spatialOther(s, v); lw.fz[other] >= 0 {
			// A constant: the frozen endpoint selects the row.
			lw.emit(v, v, first, nf+s, codes>>cell(lw.fz[other], 0))
		} else {
			lw.emit(v, other, first, nf+s, codes)
		}
	}
}

// emit records the recipe step of an incidence of v with weight index w that
// varies with a (v itself: a constant), numbering a's entry in the program
// whose entries start at first.
func (lw *lowering) emit(v, a VarID, first, w int32, codes uint8) {
	if a == v {
		lw.recipe[lw.nb] = step{w: w, dst: v, codes: codes}
		lw.nb++
		return
	}
	dst := lw.entryOf(a, first, int32(len(lw.nbr)))
	if int(dst) == len(lw.nbr) {
		lw.nbr = append(lw.nbr, a)
	}
	lw.ne++
	lw.recipe[len(lw.recipe)-lw.ne] = step{w: w, dst: dst, codes: codes}
}

// entryOf returns the entry of neighbour a in the program whose entries start
// at first, or numbers next for it on its first appearance there.
func (lw *lowering) entryOf(a VarID, first, next int32) int32 {
	if s := lw.slot[a]; s >= first {
		return s
	}
	lw.slot[a] = next
	return next
}

// lowerTables appends categorical v's table ops in score order.
func (lw *lowering) lowerTables(v VarID) {
	k, g := lw.k, lw.k.g
	for _, f := range g.VarLogicalFactors(v) {
		vars, _ := g.FactorVars(f)
		a, live := liveOther(vars, v, nil)
		if live == 0 {
			a = v
		}
		t := -1
		if live < 2 {
			t = lw.factorTable(f, v, a)
		}
		k.ops = append(k.ops, lw.tableOp(a, f, t))
	}
	spatial := g.VarSpatialPairs(v)
	if len(spatial) == 0 {
		return
	}
	rel, h := g.vars[v].Relation, g.vars[v].Domain
	tabB, tabA := lw.spatialTable(rel, h, false), lw.spatialTable(rel, h, true)
	nf := int32(len(g.factorWeight))
	for _, s := range spatial {
		t := tabB
		if g.spatialA[s] == v {
			t = tabA
		}
		k.ops = append(k.ops, lw.tableOp(g.spatialOther(s, v), nf+s, t))
	}
}

// tableOp returns the categorical op over a under table t, or a fallback
// record of weight index w when there is no table (t < 0).
func (lw *lowering) tableOp(a VarID, w int32, t int) pairOp {
	if t < 0 {
		lw.fallback++
		return pairOp{w: w, tab: noTable}
	}
	return pairOp{a: a, w: w, tab: uint16(t)}
}

// bake recomputes every bias and entry from the recipe under the graph's
// current weights: one linear pass, no allocation, no tabulation. A term is
// the difference of two selected coefficients, never a product (Inf·0 is
// NaN); a bias or an entry cell starts at +0.0 and sums its terms in score
// order.
func (k *Kernels) bake() {
	weights := k.g.weights
	var sel [4]float64
	clear(k.bias)
	for _, r := range k.biasRecipe {
		sel[coefPlus], sel[coefMinus] = weights[r.w], -weights[r.w]
		k.bias[r.dst] += sel[r.codes&3] - sel[r.codes>>2&3]
	}
	for i := range k.entries {
		k.entries[i].d = [2]float64{}
	}
	for _, r := range k.entryRecipe {
		sel[coefPlus], sel[coefMinus] = weights[r.w], -weights[r.w]
		e := &k.entries[r.dst]
		e.d[0] += sel[r.codes&3] - sel[r.codes>>2&3]
		e.d[1] += sel[r.codes>>4&3] - sel[r.codes>>6&3]
	}
}

// refold rebakes the biases and entries after a weight update; only the first
// caller after an update does the work.
func (k *Kernels) refold() {
	k.foldMu.Lock()
	defer k.foldMu.Unlock()
	if gen := k.g.weightGen.Load(); k.gen.Load() != gen {
		k.bake()
		k.gen.Store(gen)
	}
}

// BinaryLogOdds returns the log-odds of v = 0 against v = 1 given the rest of
// the assignment: s0 − s1 of the unnormalized log-probabilities, regrouped.
// It is v's bias, then one add per entry in order — the entry's cell at the
// neighbour's value, or a fallback record's f0 − f1 through the interpreted
// evaluators. Folded incidences never read a frozen variable from assign — it
// holds its evidence value by definition. For a categorical variable the
// result is meaningless; use ConditionalScores.
func (k *Kernels) BinaryLogOdds(v VarID, assign Assignment) float64 {
	if k.gen.Load() != k.g.weightGen.Load() {
		k.refold()
	}
	d := k.bias[v]
	es := k.entries[k.prog[v]>>1 : k.prog[v+1]>>1]
	for i := range es {
		e := &es[i]
		if e.a < 0 {
			d += k.fallbackLogOdds(v, ^e.a, assign)
			continue
		}
		d += e.d[assign.Get(e.a)&1]
	}
	return d
}

// BinaryLogOddsPair is BinaryLogOdds of v on two assignments in one walk of
// v's program: two accumulators, each summed in BinaryLogOdds' order, so each
// result is bit-identical to it. The two add chains are independent and
// overlap: the lockstep sampler scores a pair of instances with one call.
func (k *Kernels) BinaryLogOddsPair(v VarID, a, b Assignment) (da, db float64) {
	if k.gen.Load() != k.g.weightGen.Load() {
		k.refold()
	}
	da = k.bias[v]
	db = da
	es := k.entries[k.prog[v]>>1 : k.prog[v+1]>>1]
	for i := range es {
		e := &es[i]
		if e.a < 0 {
			da += k.fallbackLogOdds(v, ^e.a, a)
			db += k.fallbackLogOdds(v, ^e.a, b)
			continue
		}
		da += e.d[a.Get(e.a)&1]
		db += e.d[b.Get(e.a)&1]
	}
	return da, db
}

// BinaryConditionalScores returns (BinaryLogOdds(v, assign), 0): scores
// that differ from the unnormalized log-probabilities of v = 0 and v = 1 by
// one shared constant, which is all a draw reads.
func (k *Kernels) BinaryConditionalScores(v VarID, assign Assignment) (s0, s1 float64) {
	return k.BinaryLogOdds(v, assign), 0
}

// fallbackLogOdds evaluates one fallback record of binary v, logical factor
// f, through the interpreted evaluators: f0 − f1.
func (k *Kernels) fallbackLogOdds(v VarID, f int32, assign Assignment) float64 {
	g := k.g
	var f0, f1 float64
	if g.satisfied(f, assign, v, 0) {
		f0 = g.factorWeight[f]
	}
	if g.satisfied(f, assign, v, 1) {
		f1 = g.factorWeight[f]
	}
	return f0 - f1
}

// ConditionalScores fills buf (length ≥ v's domain) with the unnormalized
// log-probabilities of each candidate value of v, up to one shared constant,
// and returns buf[:domain]: {BinaryLogOdds, 0} for a binary v; otherwise each
// op's other endpoint read once and its table row added to all h candidates,
// fallback records through the interpreted evaluators. A categorical
// program folds nothing, so its scores equal Graph.ConditionalScores
// bit-for-bit: each candidate receives the same additions in the same order.
func (k *Kernels) ConditionalScores(v VarID, assign Assignment, buf []float64) []float64 {
	if k.Binary(v) {
		buf = buf[:2]
		buf[0], buf[1] = k.BinaryLogOdds(v, assign), 0
		return buf
	}
	g := k.g
	h := int(g.vars[v].Domain)
	buf = buf[:h]
	clear(buf)
	weights, nf := g.weights, int32(len(g.factorWeight))
	var sel [4]float64
	for _, op := range k.ops[k.opOff[v]:k.opOff[v+1]] {
		if op.tab == noTable {
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
