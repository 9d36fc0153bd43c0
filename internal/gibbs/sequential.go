package gibbs

import (
	"context"

	"repro/internal/factorgraph"
)

// Sequential is the classic single-chain Gibbs sampler: each epoch sweeps
// every query variable once in ID order. It is fully deterministic for a
// given seed — the correctness harness uses it as the reference chain — and
// shares the sampleOne core (including the buffer-free binary fast path)
// with the pooled parallel samplers, so all variants draw from identical
// conditional distributions.
//
// It participates in the fault-tolerant runtime for interface symmetry:
// Run checks ctx at epoch boundaries (its "chunk" is one full sweep — it
// has no worker pool to interrupt mid-sweep), and Snapshot/Restore include
// the chain's PRNG state, making resume bit-identical trivially.
type Sequential struct {
	g      *factorgraph.Graph
	sc     scorer
	assign factorgraph.Assignment
	rng    *prng
	counts *counts
	query  []factorgraph.VarID
	buf    []float64
	epochs int
	burnIn int
	hooks  TestHooks
	ckpt   *Checkpointer

	obsState // metrics/trace/diagnostics plane (zero: disabled)
}

// SetBurnIn discards the first n chain epochs from the marginal counters.
// Call before the first RunEpochs.
func (s *Sequential) SetBurnIn(n int) { s.burnIn = n }

// SetTestHooks installs the fault-injection plane. BeforeChunk fires once
// per epoch on the calling goroutine (the whole sweep is one chunk).
func (s *Sequential) SetTestHooks(h TestHooks) { s.hooks = h }

// SetCheckpointer enables periodic snapshots: during context-aware runs a
// checkpoint is written at every epoch multiple of cp.Every. nil disables.
func (s *Sequential) SetCheckpointer(cp *Checkpointer) { s.ckpt = cp }

// SetMetrics attaches (or detaches, with nil) the obs metric handles. The
// sequential sampler has no pool; its whole sweep is one chunk, counted at
// the epoch boundary.
func (s *Sequential) SetMetrics(m *Metrics) {
	s.met = m
	publishKernelMetrics(m, s.sc.k)
}

// SetProgress enables convergence diagnostics every `every` epochs (see
// Sampler.SetProgress). A single chain, so Spread reads 0.
func (s *Sequential) SetProgress(every int, fn func(Progress)) {
	s.enableProgress(s.g, every, fn, []*counts{s.counts})
}

// NewSequential builds a sequential sampler with the given seed.
func NewSequential(g *factorgraph.Graph, seed int64) *Sequential {
	return &Sequential{
		g:      g,
		sc:     newScorer(g),
		assign: g.InitialAssignment(),
		rng:    taskRNG(seed, 0x5e90),
		counts: newCounts(g),
		query:  queryVars(g),
		buf:    make([]float64, maxDomain(g)),
	}
}

// Close implements Sampler; the sequential sampler holds no pool, so it is
// a no-op.
func (s *Sequential) Close() {}

// Name implements Sampler.
func (s *Sequential) Name() string { return "sequential" }

// TotalEpochs implements Sampler.
func (s *Sequential) TotalEpochs() int { return s.epochs }

// RunEpochs implements Sampler.
func (s *Sequential) RunEpochs(n int) {
	if _, err := s.Run(context.Background(), n); err != nil {
		panic(err)
	}
}

// Run advances the chain by up to n epochs under ctx. Cancellation is
// epoch-granular (one epoch is this sampler's chunk); an injected
// BeforeChunk panic propagates to the caller — there is no worker pool to
// isolate it, and the single-threaded chain state stays consistent up to
// the last completed epoch.
func (s *Sequential) Run(ctx context.Context, n int) (RunStats, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	st := RunStats{Reason: ReasonDone}
	active := s.obsActive()
	var hookChunks uint64
	for e := 0; e < n; e++ {
		if ctx.Err() != nil {
			st.Reason = reasonFromCtx(ctx)
			s.finalDiag("sequential", s.epochs, &st)
			return st, nil
		}
		eo := beginEpochObs(active)
		if s.hooks.BeforeChunk != nil {
			s.hooks.BeforeChunk(hookChunks)
			hookChunks++
		}
		count := s.epochs >= s.burnIn
		for _, v := range s.query {
			x := sampleOne(&s.sc, v, s.assign, s.rng, s.buf)
			if count {
				s.counts.add(v, x)
			}
		}
		s.epochs++
		st.Epochs++
		if active {
			if s.met != nil {
				s.met.Chunks.Inc() // the whole sweep is this sampler's chunk
			}
			finishEpochObs(s.met, s.trace, "sequential", s.epochs, &eo)
		}
		if s.diagDue(s.epochs) {
			s.takeDiag("sequential", s.epochs, &st)
		}
		if s.ckpt != nil && s.ckpt.due(s.epochs) {
			if err := saveCheckpointObs(s.met, s.trace, "sequential", s.epochs, func() error {
				return s.ckpt.Save(s.Snapshot())
			}); err != nil {
				return st, err
			}
		}
		if s.hooks.AfterEpoch != nil {
			s.hooks.AfterEpoch(s.epochs)
		}
	}
	s.finalDiag("sequential", s.epochs, &st)
	return st, nil
}

// Marginals implements Sampler.
func (s *Sequential) Marginals() [][]float64 {
	return marginalsFrom(s.g, func(v int) ([]float64, float64) {
		vals := make([]float64, len(s.counts.c[v]))
		for i, c := range s.counts.c[v] {
			vals[i] = float64(c)
		}
		return vals, float64(s.counts.totals[v])
	})
}

// Assignment exposes the current chain state (read-only use).
func (s *Sequential) Assignment() factorgraph.Assignment { return s.assign }
