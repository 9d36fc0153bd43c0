package gibbs

import "repro/internal/factorgraph"

// Sequential is the classic single-chain Gibbs sampler: each epoch sweeps
// every query variable once in ID order. It is fully deterministic for a
// given seed — the correctness harness uses it as the reference chain.
//
// It is the engine's degenerate schedule: one group holding one unit with
// every query variable, one chain, an inline pool (the sweep runs on the
// calling goroutine), and one persistent PRNG whose state flows across
// epochs and into the checkpoint — so resume is bit-identical trivially and
// a snapshot records seed 0. Its chunk is the whole sweep: cancellation is
// epoch-granular, BeforeChunk fires once per epoch on the caller, and a
// panic there propagates (there is no worker to isolate it; the chain state
// stays consistent up to the last completed epoch).
type Sequential struct{ engine }

// NewSequential builds a sequential sampler with the given seed.
func NewSequential(g *factorgraph.Graph, seed int64) *Sequential {
	s := &Sequential{engine: engine{name: "sequential", g: g, split: 1, chain: taskRNG(seed, 0x5e90)}}
	s.sched.vars = queryVars(g)
	s.sched.varOff = []int32{0, int32(len(s.sched.vars))}
	s.sched.oneGroup()
	s.start(1, 0)
	return s
}
