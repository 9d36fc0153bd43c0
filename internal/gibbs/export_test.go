package gibbs

// InterpretedWalk switches a sampler from the compiled kernels to
// factorgraph's interpreted conditional-score walk, the reference
// implementation the kernels must match bit for bit. Production code has no
// way to select it; the harness calls it before the first epoch.
func (s *engine) InterpretedWalk() { s.sc.k = nil }

// ChainState is one chain's state as tests read it: its epoch index (the
// PRNG lineage component), assignment and per-variable count rows, copied.
type ChainState struct {
	Epochs int
	Assign []int32
	Counts [][]int64
}

// eng lets ChainStates reach the engine behind any of the three variants.
func (s *engine) eng() *engine { return s }

// ChainStates copies the state of every chain of s, in instance order.
func ChainStates(s Sampler) []ChainState {
	e := s.(interface{ eng() *engine }).eng()
	out := make([]ChainState, len(e.instances))
	for k, inst := range e.instances {
		out[k] = ChainState{Epochs: inst.epochs, Assign: append([]int32(nil), inst.assign...)}
		for _, row := range inst.counts.c {
			out[k].Counts = append(out[k].Counts, append([]int64(nil), row...))
		}
	}
	return out
}
