package gibbs

import (
	"time"

	"repro/internal/factorgraph"
	"repro/internal/obs"
)

// Metrics bundles the sampler-side observability handles, resolved once
// from a registry at wiring time. All handles are nil-safe, and a nil
// *Metrics disables epoch-level instrumentation entirely: the samplers
// guard every measurement behind one `s.met != nil` check per epoch (or per
// conclique group), so the uninstrumented path costs a predictable branch —
// BenchmarkObsOverhead holds it to noise.
//
// Chunk-level counting rides the pool's existing setHook seam (the same
// one the fault-injection harness uses) instead of touching the inner
// sampling loop; see composeChunkHook.
type Metrics struct {
	// Epochs counts completed full epochs; Chunks counts pool chunks
	// executed (bumped by workers via the pool hook).
	Epochs *obs.Counter
	Chunks *obs.Counter
	// EpochDur times the whole epoch barrier-to-barrier (seconds).
	EpochDur *obs.Histogram
	// QueueDepth is the deepest pool work-channel backlog observed in the
	// last epoch — the scheduling-pressure signal for chunk-size tuning.
	QueueDepth *obs.Gauge
	// Convergence diagnostics (set when diagnostics run; see SetProgress).
	DiagMaxDelta *obs.Gauge
	DiagSpread   *obs.Gauge
	// Compiled-kernel build stats, published once when a sampler running on
	// compiled kernels attaches metrics (see publishKernelMetrics): build
	// wall time, total/generic/folded op counts and the program footprint in bytes.
	KernelBuildSeconds *obs.Gauge
	KernelOps          *obs.Gauge
	KernelGenericOps   *obs.Gauge
	KernelFoldedOps    *obs.Gauge
	KernelSlabBytes    *obs.Gauge
}

// NewMetrics resolves the sampler metric handles from a registry, creating
// the metrics on first use. A nil registry returns nil — the disabled mode
// the samplers treat as "no instrumentation".
func NewMetrics(r *obs.Registry) *Metrics {
	if r == nil {
		return nil
	}
	return &Metrics{
		Epochs:       r.Counter("sya_epochs_total"),
		Chunks:       r.Counter("sya_chunks_total"),
		EpochDur:     r.Histogram("sya_epoch_seconds", nil),
		QueueDepth:   r.Gauge("sya_chunk_queue_depth"),
		DiagMaxDelta: r.Gauge("sya_diag_max_delta"),
		DiagSpread:   r.Gauge("sya_diag_spread"),

		KernelBuildSeconds: r.Gauge("sya_kernel_build_seconds"),
		KernelOps:          r.Gauge("sya_kernel_ops"),
		KernelGenericOps:   r.Gauge("sya_kernel_generic_ops"),
		KernelFoldedOps:    r.Gauge("sya_kernel_folded_ops"),
		KernelSlabBytes:    r.Gauge("sya_kernel_slab_bytes"),
	}
}

// composeChunkHook merges the obs chunk counter with the fault-injection
// hook on the pool's single setHook seam: the counter (if any) ticks first,
// then the injected fault (if any) runs with the chunk ordinal. Returns nil
// when both are absent so the pool skips the call entirely.
func composeChunkHook(c *obs.Counter, fault func(uint64)) func(uint64) {
	switch {
	case c == nil && fault == nil:
		return nil
	case fault == nil:
		return func(uint64) { c.Inc() }
	case c == nil:
		return fault
	default:
		return func(n uint64) {
			c.Inc()
			fault(n)
		}
	}
}

// epochObs batches one epoch's measurements so the hot loop touches plain
// struct fields and the atomic/exposition work happens once at the barrier.
type epochObs struct {
	start time.Time
	queue int // deepest work-channel backlog seen this epoch
}

// beginEpochObs starts an epoch measurement when instrumentation is active.
func beginEpochObs(active bool) epochObs {
	var eo epochObs
	if active {
		eo.start = time.Now()
	}
	return eo
}

// noteQueue tracks the deepest pool backlog seen this epoch.
func (eo *epochObs) noteQueue(depth int) {
	if depth > eo.queue {
		eo.queue = depth
	}
}

// finishEpochObs publishes one epoch's measurements to the metrics
// registry. Per-epoch timing lives there (sya_epoch_seconds,
// sya_chunk_queue_depth), not in the span tree.
func finishEpochObs(m *Metrics, eo *epochObs) {
	m.Epochs.Inc()
	m.EpochDur.Observe(time.Since(eo.start).Seconds())
	m.QueueDepth.Set(float64(eo.queue))
}

// obsState is the engine's instrumentation state: the metric handles and the
// convergence diagnostics enabled via SetProgress. The zero value is fully
// disabled.
type obsState struct {
	met           *Metrics
	progressEvery int
	progressFn    func(Progress)
	diag          *diagTracker
	chains        []*counts // the K chain counters, set by SetProgress
}

// obsActive reports whether per-epoch measurement should run at all — the
// single branch the uninstrumented hot path pays.
func (o *obsState) obsActive() bool { return o.met != nil }

// enableProgress wires the diagnostics over the engine's graph and chain
// counters.
func (o *obsState) enableProgress(g *factorgraph.Graph, every int, fn func(Progress), chains []*counts) {
	o.progressEvery, o.progressFn = every, fn
	o.chains = chains
	if every > 0 && o.diag == nil {
		o.diag = newDiagTracker(g)
	}
}

// diagDue reports whether a reading is due at this completed epoch.
func (o *obsState) diagDue(epoch int) bool {
	return o.progressEvery > 0 && epoch%o.progressEvery == 0
}

// takeDiag takes a convergence reading at epoch, records it into st, and
// publishes it to the gauges, the sweep span (a diag event) and the progress
// callback.
func (o *obsState) takeDiag(span obs.Span, sampler string, epoch int, st *RunStats) {
	t0 := time.Now()
	d := o.diag.update(epoch, o.chains)
	st.Diag, st.DiagValid = d, true
	if o.met != nil {
		o.met.DiagMaxDelta.Set(d.MaxDelta)
		o.met.DiagSpread.Set(d.Spread)
	}
	if span.Enabled() {
		span.Event("diag", time.Since(t0)).Notef("epoch=%d max_delta=%.6f spread=%.6f", epoch, d.MaxDelta, d.Spread)
	}
	if o.progressFn != nil {
		o.progressFn(Progress{Sampler: sampler, Epoch: epoch, Diag: d})
	}
}

// finalDiag takes the run's closing reading unless the last diagnostic epoch
// already covered the current one (avoiding a duplicate zero-delta reading).
func (o *obsState) finalDiag(span obs.Span, sampler string, epoch int, st *RunStats) {
	if o.progressEvery <= 0 || (st.DiagValid && st.Diag.Epoch == epoch) {
		return
	}
	o.takeDiag(span, sampler, epoch, st)
}
