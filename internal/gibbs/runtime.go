package gibbs

import (
	"context"
	"fmt"
)

// StopReason explains why a context-aware sampler run returned.
type StopReason int

// Stop reasons.
const (
	// ReasonDone: the requested epoch budget completed.
	ReasonDone StopReason = iota
	// ReasonCanceled: the run's context was canceled; the marginals hold
	// every sample accumulated up to the last chunk boundary.
	ReasonCanceled
	// ReasonDeadline: the run's context deadline expired (same partial
	// semantics as ReasonCanceled).
	ReasonDeadline
	// ReasonPanic: a worker panicked; Run also returns a *WorkerPanicError
	// and the sampler is poisoned (see WorkerPanicError).
	ReasonPanic
)

// String names the reason.
func (r StopReason) String() string {
	switch r {
	case ReasonDone:
		return "done"
	case ReasonCanceled:
		return "canceled"
	case ReasonDeadline:
		return "deadline"
	case ReasonPanic:
		return "panic"
	default:
		return "unknown"
	}
}

// RunStats summarizes one context-aware sampler run. Cancellation is not an
// error: an interrupted Run returns (RunStats{Reason: ...}, nil) and the
// sampler's marginals reflect everything sampled before the interruption.
type RunStats struct {
	// Epochs is the number of full epochs completed by this call. An epoch
	// cut short by cancellation is not counted here even though its partial
	// samples are kept (and its PRNG epoch identity is consumed).
	Epochs int
	// Reason tells why the call returned.
	Reason StopReason
	// Diag is the final convergence reading of the run and DiagValid reports
	// whether one was taken. Diagnostics run only when SetProgress enabled
	// them; a reading is taken at every diagnostic epoch and once more at
	// return (done and canceled paths — not after a worker panic).
	Diag      DiagStats
	DiagValid bool
}

// reasonFromCtx maps a fired context to its stop reason.
func reasonFromCtx(ctx context.Context) StopReason {
	if ctx.Err() == context.DeadlineExceeded {
		return ReasonDeadline
	}
	return ReasonCanceled
}

// WorkerPanicError is the single error surfaced when a pool worker panics
// during a sampler run: the first panic's value and stack. The pool is
// poisoned from the moment of the panic — workers drain and acknowledge all
// queued chunks without executing them, so the epoch barrier still completes
// (no deadlock, no goroutine leak) — and every subsequent run on the same
// sampler returns the same error. As after a cancellation, the sampler's
// counters keep the draws of the epoch in flight; every marginal stays
// normalised.
type WorkerPanicError struct {
	// Value is the recovered panic value.
	Value any
	// Stack is the panicking worker's stack trace.
	Stack string
}

// Error implements error.
func (e *WorkerPanicError) Error() string {
	return fmt.Sprintf("gibbs: worker panic: %v", e.Value)
}

// TestHooks is the fault-injection plane used by the robustness harness
// (internal/gibbs/testutil): hooks are invoked at the runtime's two
// interruption boundaries. Zero-value hooks are never called and cost one
// nil check. Install them before the first Run; they must not be changed
// while a run is in flight.
type TestHooks struct {
	// BeforeChunk runs in a pool worker immediately before chunk execution,
	// with the 0-based ordinal of that chunk since the hooks were installed.
	// A panic inside the hook is captured exactly like a sampler panic.
	// The sequential sampler calls it once per epoch (its "chunk" is the
	// whole sweep), on the calling goroutine.
	BeforeChunk func(n uint64)
	// AfterEpoch runs on the issuer goroutine after each completed epoch
	// barrier, with the sampler's lifetime epoch index.
	AfterEpoch func(epoch int)
}
