package gibbs

import "repro/internal/factorgraph"

// Sequential is the classic single-chain Gibbs sampler: each epoch sweeps
// every scheduled variable once in order. It is fully deterministic for a
// given seed — the correctness harness uses it as the reference chain, and
// weight learning runs its two chains on it.
//
// It is the engine's degenerate schedule: one group holding one unit with
// every scheduled variable, one chain, a pool without goroutines (the sweep
// runs on the calling goroutine), and one persistent PRNG whose state flows
// across epochs. Its chunk is the whole sweep: cancellation is
// epoch-granular, BeforeChunk fires once per epoch on the caller, and a
// panic in the sweep surfaces as the pooled samplers' sticky
// *WorkerPanicError.
type Sequential struct{ engine }

// NewSequential builds a sequential sampler with the given seed over the
// graph's query variables and folded programs.
func NewSequential(g *factorgraph.Graph, seed int64) *Sequential {
	return NewSequentialOver(g, g.Kernels(), queryVars(g), seed)
}

// NewSequentialOver builds the sequential schedule over an explicit program
// set and variable set: each epoch sweeps vars in the given order, scoring
// with k, and nothing else is compiled. A variable in vars is sampled even
// when it is graph evidence, so k must not fold it: weight learning's free
// model chain sweeps every variable on a CompileKernels(g, false) set.
func NewSequentialOver(g *factorgraph.Graph, k *factorgraph.Kernels, vars []factorgraph.VarID, seed int64) *Sequential {
	s := &Sequential{engine: engine{name: "sequential", g: g, sc: scorer{g: g, k: k}, split: 1, chain: taskRNG(seed, 0x5e90)}}
	s.sched.vars = vars
	s.sched.varOff = []int32{0, int32(len(vars))}
	s.sched.oneGroup()
	s.start(1)
	return s
}

// Assignment returns a read-only view of the chain's current assignment:
// the chain's own slice, which the next run moves, so callers must not write
// it. Weight learning's gradient counts read it between runs.
func (s *Sequential) Assignment() factorgraph.Assignment { return s.instances[0].assign }
