package gibbs

import (
	"repro/internal/factorgraph"
)

// scorer routes conditional-score evaluation through the graph's folded
// program set (Graph.Kernels). The interpreted CSR walk behind a nil k is the
// reference implementation the kernels are tested against (factorgraph's
// equivalence tests: bit-identical at categorical variables, the same terms
// regrouped in the binary log-odds programs), and only tests select it (see
// export_test.go). The samplers hold one scorer each; the pair walk reads k
// itself and a nil k sends every draw to sampleOne: one nil check per draw.
type scorer struct {
	g *factorgraph.Graph
	k *factorgraph.Kernels // nil → interpreted reference walk (tests only)
}

// newScorer builds a scorer over g, compiling (or reusing) the graph's
// kernels.
func newScorer(g *factorgraph.Graph) scorer {
	return scorer{g: g, k: g.Kernels()}
}

// binary reports whether v takes the buffer-free binary path: read from the
// compiled program offsets, not from the graph's variable records.
func (sc *scorer) binary(v factorgraph.VarID) bool {
	if sc.k != nil {
		return sc.k.Binary(v)
	}
	return sc.g.DomainOf(v) == 2
}

// conditionalScores evaluates all candidate values of v, up to one shared
// constant: the categorical draw, and MAP's anneal at every variable.
func (sc *scorer) conditionalScores(v factorgraph.VarID, assign factorgraph.Assignment, buf []float64) []float64 {
	if sc.k != nil {
		return sc.k.ConditionalScores(v, assign, buf)
	}
	return sc.g.ConditionalScores(v, assign, buf)
}

// logOdds evaluates s0 − s1 at a binary v: the one number a binary draw and
// the greedy MAP step read.
func (sc *scorer) logOdds(v factorgraph.VarID, assign factorgraph.Assignment) float64 {
	if sc.k != nil {
		return sc.k.BinaryLogOdds(v, assign)
	}
	s0, s1 := sc.g.BinaryConditionalScores(v, assign)
	return s0 - s1
}

// publishKernelMetrics exposes the compiled-kernel build stats on the
// sampler metric gauges. Called when a sampler attaches metrics; a nil
// kernel set (the tests' interpreted path) publishes nothing.
func publishKernelMetrics(m *Metrics, k *factorgraph.Kernels) {
	if m == nil || k == nil {
		return
	}
	st := k.Stats()
	m.KernelBuildSeconds.Set(st.BuildTime.Seconds())
	m.KernelOps.Set(float64(st.Ops))
	m.KernelGenericOps.Set(float64(st.GenericOps))
	m.KernelFoldedOps.Set(float64(st.FoldedOps))
	m.KernelSlabBytes.Set(float64(st.SlabBytes))
}
