package obs

import (
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"
	"sort"
	"strconv"
	"sync/atomic"
	"time"
)

// This file implements the one trace vocabulary of the system: a Tracer
// hands out one Span tree per unit of work — a served request, syad's boot,
// a whole batch run — stage timings nest under the root, and completed
// traces land in a lock-cheap ring buffer served at /debug/traces (sya
// -trace-out writes the same record to a file). Traces slower than a
// threshold are additionally written to a structured slog logger, so "why
// was that one query slow?" is answerable from the log alone.
//
// The design follows the registry's disabled-by-default discipline: a nil
// *Tracer hands out zero-value Spans whose methods are single-branch no-ops
// and allocate nothing, so the serving handlers record unconditionally and
// an untraced request pays a few predictable branches. Enabled tracing
// allocates one TraceRecord per request (plus its amortized span slice) and
// publishes it with one atomic store — no locks on the request path.
//
// Trace identity is W3C Trace Context compatible: an incoming `traceparent`
// header is parsed and its trace-id adopted (so syad joins a distributed
// trace as a child), and the Span renders an outgoing `traceparent` carrying
// the server's own root span-id for the response header.

// TracerOptions parameterizes a Tracer.
type TracerOptions struct {
	// RingSize bounds the completed-trace ring buffer (≤0 → 64).
	RingSize int
	// SlowThreshold is the structured slow-request log cutoff: requests
	// whose wall time reaches it are logged through Logger (0 disables).
	SlowThreshold time.Duration
	// Logger receives slow-request records (nil → slog.Default()).
	Logger *slog.Logger
}

// Tracer owns the completed-trace ring and the slow-request log. A nil
// *Tracer is the disabled mode: StartRequest returns a no-op Span.
type Tracer struct {
	slow   time.Duration
	logger *slog.Logger
	slots  []atomic.Pointer[TraceRecord]
	seq    atomic.Uint64 // completed traces; slot = (seq-1) % len(slots)
	ids    atomic.Uint64 // id-generation counter, mixed through splitmix64
	seed   uint64
}

// NewTracer builds a Tracer with the given ring size and slow threshold.
func NewTracer(opts TracerOptions) *Tracer {
	n := opts.RingSize
	if n <= 0 {
		n = 64
	}
	logger := opts.Logger
	if logger == nil {
		logger = slog.Default()
	}
	return &Tracer{
		slow:   opts.SlowThreshold,
		logger: logger,
		slots:  make([]atomic.Pointer[TraceRecord], n),
		seed:   uint64(time.Now().UnixNano()),
	}
}

// SpanRecord is one completed (or still-open) stage of a trace. Parent
// indexes the enclosing span within the same TraceRecord; the root is index
// 0 with Parent −1. Times are offsets from the trace start so a flame chart
// needs no clock reconstruction.
type SpanRecord struct {
	Name    string `json:"name"`
	Parent  int    `json:"parent"`
	StartUs int64  `json:"start_us"`
	DurUs   int64  `json:"dur_us"`
	Note    string `json:"note,omitempty"`
}

// TraceRecord is one request's completed trace: identity, outcome, wall
// time, and the per-stage span tree in start order.
type TraceRecord struct {
	TraceID string `json:"trace_id"`
	// SpanID is the server's root span id (the parent-id field of the
	// echoed traceparent).
	SpanID string `json:"span_id"`
	// ParentSpanID is the upstream caller's span id when the request
	// carried a valid traceparent.
	ParentSpanID string       `json:"parent_span_id,omitempty"`
	Name         string       `json:"name"`
	Outcome      string       `json:"outcome,omitempty"`
	Start        time.Time    `json:"start"`
	DurUs        int64        `json:"dur_us"`
	Spans        []SpanRecord `json:"spans"`
	// Dropped counts the stages refused because the trace already held
	// maxSpans (stages under a refused stage are not opened at all).
	Dropped int `json:"dropped,omitempty"`

	flags string // traceparent trace-flags, echoed verbatim
	seq   uint64 // ring eviction order, assigned at Finish
	start time.Time
}

// maxSpans bounds one trace's span tree, so a long run with per-iteration
// stages (learning iterations, -progress readings) holds a bounded record;
// what does not fit is counted in TraceRecord.Dropped.
const maxSpans = 1024

// Span is a handle into one trace's span tree. The zero value (and any Span
// from a nil Tracer) is a no-op whose methods allocate nothing — the
// disabled fast path. Spans of one trace must be used from one goroutine
// at a time, matching an HTTP handler's sequential execution and a batch
// run's coordinating goroutine (code that fans out hands its goroutines a
// context with the span masked; see ContextWithSpan); distinct traces are
// fully isolated (each owns its TraceRecord).
type Span struct {
	t   *Tracer
	rec *TraceRecord
	idx int
}

// Enabled reports whether the span records anything. Callers use it to skip
// enabled-only work (context plumbing, response headers).
func (s Span) Enabled() bool { return s.rec != nil }

// newID returns n random-looking hex characters (n must be even, ≤16 bytes
// worth). IDs mix an atomic counter through splitmix64 — unique within the
// process and cheap, which is all trace ids need here.
func (t *Tracer) newID(hexLen int) string {
	x := t.seed + t.ids.Add(1)*0x9e3779b97f4a7c15
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	const hexdig = "0123456789abcdef"
	buf := make([]byte, hexLen)
	for i := range buf {
		buf[i] = hexdig[x&0xf]
		x >>= 4
		if x == 0 {
			// Re-mix for ids longer than 16 hex digits.
			x = t.seed + t.ids.Add(1)*0x9e3779b97f4a7c15
			x ^= x >> 33
		}
	}
	// A traceparent id of all zeroes is invalid; the counter makes that
	// impossible in practice, but guard anyway.
	if allZero(buf) {
		buf[0] = '1'
	}
	return string(buf)
}

func allZero(b []byte) bool {
	for _, c := range b {
		if c != '0' {
			return false
		}
	}
	return true
}

// parseTraceparent validates a W3C traceparent header
// (version-traceid-parentid-flags, e.g.
// "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01") and returns
// its fields. ok=false on anything malformed — the caller then starts a
// fresh trace.
func parseTraceparent(h string) (traceID, parentID, flags string, ok bool) {
	if len(h) != 55 || h[2] != '-' || h[35] != '-' || h[52] != '-' {
		return "", "", "", false
	}
	ver, tid, pid, fl := h[0:2], h[3:35], h[36:52], h[53:55]
	if !isHex(ver) || ver == "ff" || !isHex(tid) || !isHex(pid) || !isHex(fl) {
		return "", "", "", false
	}
	if allZero([]byte(tid)) || allZero([]byte(pid)) {
		return "", "", "", false
	}
	return tid, pid, fl, true
}

func isHex(s string) bool {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// StartRequest opens a new trace for one request. traceparent is the raw
// incoming header ("" for none): when valid, its trace-id and flags are
// adopted and the caller's span id is recorded as the root's parent; when
// absent or malformed, a fresh trace-id is generated. Nil tracer → no-op
// Span.
func (t *Tracer) StartRequest(name, traceparent string) Span {
	if t == nil {
		return Span{}
	}
	rec := &TraceRecord{
		Name:  name,
		Start: time.Now(),
		flags: "01",
		Spans: make([]SpanRecord, 1, 8),
	}
	rec.start = rec.Start
	if tid, pid, fl, ok := parseTraceparent(traceparent); ok {
		rec.TraceID, rec.ParentSpanID, rec.flags = tid, pid, fl
	} else {
		rec.TraceID = t.newID(32)
	}
	rec.SpanID = t.newID(16)
	rec.Spans[0] = SpanRecord{Name: name, Parent: -1}
	return Span{t: t, rec: rec, idx: 0}
}

// Traceparent renders the outgoing header for this trace: the incoming
// trace-id (or the fresh one) with the server's root span id as parent-id.
func (s Span) Traceparent() string {
	if s.rec == nil {
		return ""
	}
	return "00-" + s.rec.TraceID + "-" + s.rec.SpanID + "-" + s.rec.flags
}

// TraceID returns the trace id ("" when disabled).
func (s Span) TraceID() string {
	if s.rec == nil {
		return ""
	}
	return s.rec.TraceID
}

// Child opens a nested stage span. End it to record its duration.
func (s Span) Child(name string) Span {
	if s.rec == nil {
		return Span{}
	}
	return s.add(SpanRecord{
		Name:    name,
		Parent:  s.idx,
		StartUs: time.Since(s.rec.start).Microseconds(),
		DurUs:   -1, // open; End overwrites
	})
}

// add appends one child record and returns its handle — or, once the trace
// holds maxSpans, counts the stage as dropped and returns a no-op Span.
func (s Span) add(sp SpanRecord) Span {
	rec := s.rec
	if len(rec.Spans) >= maxSpans {
		rec.Dropped++
		return Span{}
	}
	rec.Spans = append(rec.Spans, sp)
	return Span{t: s.t, rec: rec, idx: len(rec.Spans) - 1}
}

// End closes the span, recording its duration.
func (s Span) End() {
	if s.rec == nil {
		return
	}
	sp := &s.rec.Spans[s.idx]
	sp.DurUs = time.Since(s.rec.start).Microseconds() - sp.StartUs
}

// Note attaches a short annotation to the span (last write wins).
func (s Span) Note(note string) {
	if s.rec == nil {
		return
	}
	s.rec.Spans[s.idx].Note = note
}

// Notef is Note with formatting; the formatting cost is paid only when the
// span is live.
func (s Span) Notef(format string, args ...any) {
	if s.rec == nil {
		return
	}
	s.rec.Spans[s.idx].Note = fmt.Sprintf(format, args...)
}

// Event records an already-measured stage as a completed child span —
// used when the duration was measured elsewhere (e.g. the WAL's fsync
// timer) and there is no open/close seam to wrap. The returned handle takes
// a Note.
func (s Span) Event(name string, d time.Duration) Span {
	if s.rec == nil {
		return Span{}
	}
	end := time.Since(s.rec.start).Microseconds()
	dur := d.Microseconds()
	start := end - dur
	if start < 0 {
		start = 0
	}
	return s.add(SpanRecord{Name: name, Parent: s.idx, StartUs: start, DurUs: dur})
}

// Finish completes the trace: closes the root span, stamps the outcome,
// publishes the record to the ring, and emits the slow-request log line
// when the wall time reaches the tracer's threshold. It returns the
// request's wall time (0 when disabled). Only the root span's Finish
// publishes; calling it on a child is a bug but harmlessly publishes early.
func (s Span) Finish(outcome string) time.Duration {
	if s.rec == nil {
		return 0
	}
	rec, t := s.rec, s.t
	d := time.Since(rec.start)
	rec.DurUs = d.Microseconds()
	rec.Spans[0].DurUs = rec.DurUs
	rec.Outcome = outcome
	// Close any span left open (handler early-returns) so consumers never
	// see a -1 duration.
	for i := 1; i < len(rec.Spans); i++ {
		if rec.Spans[i].DurUs < 0 {
			rec.Spans[i].DurUs = rec.DurUs - rec.Spans[i].StartUs
		}
	}
	rec.seq = t.seq.Add(1)
	t.slots[(rec.seq-1)%uint64(len(t.slots))].Store(rec)
	if t.slow > 0 && d >= t.slow {
		attrs := make([]slog.Attr, 0, 6)
		attrs = append(attrs,
			slog.String("trace_id", rec.TraceID),
			slog.String("span_id", rec.SpanID),
			slog.String("endpoint", rec.Name),
			slog.String("outcome", outcome),
			slog.Duration("duration", d),
		)
		// One key per stage name, in first-seen order: a name that repeats
		// (N rule stages under a boot trace) sums instead of emitting
		// duplicate JSON keys.
		var stages []string
		sumUs := map[string]int64{}
		for _, sp := range rec.Spans[1:] {
			if _, seen := sumUs[sp.Name]; !seen {
				stages = append(stages, sp.Name)
			}
			sumUs[sp.Name] += sp.DurUs
		}
		stageAttrs := make([]any, len(stages))
		for i, name := range stages {
			stageAttrs[i] = slog.Float64(name, float64(sumUs[name])/1e3)
		}
		attrs = append(attrs, slog.Group("stages_ms", stageAttrs...))
		t.logger.LogAttrs(context.Background(), slog.LevelWarn, "slow request", attrs...)
	}
	return d
}

// Recent returns up to n completed traces, newest first (n ≤ 0 → all
// retained). Safe for concurrent use with active requests: records are
// immutable after Finish's atomic publish.
func (t *Tracer) Recent(n int) []*TraceRecord {
	if t == nil {
		return nil
	}
	out := make([]*TraceRecord, 0, len(t.slots))
	for i := range t.slots {
		if rec := t.slots[i].Load(); rec != nil {
			out = append(out, rec)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].seq > out[j].seq })
	if n > 0 && len(out) > n {
		out = out[:n]
	}
	return out
}

// tracesResponse is the /debug/traces body.
type tracesResponse struct {
	Traces []*TraceRecord `json:"traces"`
}

// TracesHandler serves the completed-trace ring as JSON, newest first.
// ?n=K limits the count. A nil Tracer serves an empty list, so the route
// can be mounted unconditionally.
func (t *Tracer) TracesHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		n := 0
		if raw := r.URL.Query().Get("n"); raw != "" {
			if v, err := strconv.Atoi(raw); err == nil {
				n = v
			}
		}
		recs := t.Recent(n)
		if recs == nil {
			recs = []*TraceRecord{}
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(tracesResponse{Traces: recs})
	})
}

// spanCtxKey keys the request span in a context.
type spanCtxKey struct{}

// ContextWithSpan returns ctx carrying the span, so lower layers (core,
// grounding, learn, gibbs, shard, wal) nest their own stage timings under
// it: a layer that opens a stage hands down a context carrying that stage.
// A disabled span masks an enabled one on ctx — what a layer hands to
// goroutines it starts, since a span tree is single-goroutine — and is
// otherwise free: with no span on either side ctx is returned as is.
func ContextWithSpan(ctx context.Context, s Span) context.Context {
	if !s.Enabled() && !SpanFromContext(ctx).Enabled() {
		return ctx
	}
	return context.WithValue(ctx, spanCtxKey{}, s)
}

// SpanFromContext extracts the span on ctx, or a disabled zero Span.
func SpanFromContext(ctx context.Context) Span {
	if ctx == nil {
		return Span{}
	}
	s, _ := ctx.Value(spanCtxKey{}).(Span)
	return s
}
