package gibbs

// InterpretedWalk switches a sampler from the compiled kernels to
// factorgraph's interpreted conditional-score walk, the reference
// implementation the kernels must match bit for bit. Production code has no
// way to select it; the harness calls it before the first epoch.
func (s *engine) InterpretedWalk() { s.sc.k = nil }
