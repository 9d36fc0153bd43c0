package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestSpanTreeNestingAndNotes(t *testing.T) {
	tr := NewTracer(TracerOptions{RingSize: 4})
	root := tr.StartRequest("evidence", "")
	if !root.Enabled() {
		t.Fatal("root span from a live tracer must be enabled")
	}
	a := root.Child("wal_append")
	a.Event("wal_fsync", 10*time.Microsecond)
	a.End()
	b := root.Child("resample")
	b.Notef("pins=%d", 3)
	b.End()
	root.Finish("ok")

	recs := tr.Recent(0)
	if len(recs) != 1 {
		t.Fatalf("Recent = %d records, want 1", len(recs))
	}
	rec := recs[0]
	if rec.Name != "evidence" || rec.Outcome != "ok" {
		t.Errorf("record = %s/%s, want evidence/ok", rec.Name, rec.Outcome)
	}
	names := make([]string, len(rec.Spans))
	for i, sp := range rec.Spans {
		names[i] = sp.Name
		if sp.DurUs < 0 {
			t.Errorf("span %s left open (dur %d)", sp.Name, sp.DurUs)
		}
	}
	want := []string{"evidence", "wal_append", "wal_fsync", "resample"}
	if fmt.Sprint(names) != fmt.Sprint(want) {
		t.Errorf("span names = %v, want %v", names, want)
	}
	// Tree shape: root has Parent -1, wal_append and resample hang off the
	// root, the fsync event off wal_append.
	if rec.Spans[0].Parent != -1 || rec.Spans[1].Parent != 0 || rec.Spans[2].Parent != 1 || rec.Spans[3].Parent != 0 {
		t.Errorf("parents = %d %d %d %d, want -1 0 1 0",
			rec.Spans[0].Parent, rec.Spans[1].Parent, rec.Spans[2].Parent, rec.Spans[3].Parent)
	}
	if rec.Spans[3].Note != "pins=3" {
		t.Errorf("note = %q, want pins=3", rec.Spans[3].Note)
	}
}

func TestTraceparentAdoptionAndEcho(t *testing.T) {
	tr := NewTracer(TracerOptions{})
	const in = "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01"
	s := tr.StartRequest("point", in)
	if got := s.TraceID(); got != "4bf92f3577b34da6a3ce929d0e0e4736" {
		t.Errorf("trace id = %q, want the incoming one", got)
	}
	out := s.Traceparent()
	if !strings.HasPrefix(out, "00-4bf92f3577b34da6a3ce929d0e0e4736-") || !strings.HasSuffix(out, "-01") {
		t.Errorf("traceparent = %q: must keep trace-id and flags", out)
	}
	if strings.Contains(out, "00f067aa0ba902b7") {
		t.Errorf("traceparent = %q: must carry a fresh span id, not the caller's", out)
	}
	s.Finish("ok")
	if rec := tr.Recent(1)[0]; rec.ParentSpanID != "00f067aa0ba902b7" {
		t.Errorf("parent span id = %q, want the caller's", rec.ParentSpanID)
	}

	// Malformed headers start a fresh trace instead of failing.
	for _, bad := range []string{
		"",
		"garbage",
		"00-00000000000000000000000000000000-00f067aa0ba902b7-01", // zero trace id
		"00-4bf92f3577b34da6a3ce929d0e0e4736-0000000000000000-01", // zero parent
		"ff-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01", // forbidden version
		"00-4bf92f3577b34da6a3ce929d0e0e47XY-00f067aa0ba902b7-01", // non-hex
		"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7",    // truncated
	} {
		s := tr.StartRequest("point", bad)
		if s.TraceID() == "" || len(s.TraceID()) != 32 {
			t.Errorf("header %q: fresh trace id missing", bad)
		}
		if bad != "" && s.TraceID() == "4bf92f3577b34da6a3ce929d0e0e4736" {
			t.Errorf("header %q: must not adopt a malformed trace id", bad)
		}
		s.Finish("ok")
	}
}

func TestRingEvictionOrder(t *testing.T) {
	tr := NewTracer(TracerOptions{RingSize: 4})
	for i := 0; i < 10; i++ {
		s := tr.StartRequest(fmt.Sprintf("req-%d", i), "")
		s.Finish("ok")
	}
	recs := tr.Recent(0)
	if len(recs) != 4 {
		t.Fatalf("ring retained %d, want 4", len(recs))
	}
	// Newest first: req-9 req-8 req-7 req-6.
	for i, rec := range recs {
		if want := fmt.Sprintf("req-%d", 9-i); rec.Name != want {
			t.Errorf("recent[%d] = %s, want %s", i, rec.Name, want)
		}
	}
	if got := tr.Recent(2); len(got) != 2 || got[0].Name != "req-9" {
		t.Errorf("Recent(2) = %d records starting %s", len(got), got[0].Name)
	}
}

// TestConcurrentRequestsNoLeakage drives overlapping requests from many
// goroutines (run under -race in CI) and verifies every finished record
// contains only its own spans — no cross-request leakage through the shared
// tracer.
func TestConcurrentRequestsNoLeakage(t *testing.T) {
	tr := NewTracer(TracerOptions{RingSize: 256})
	const goroutines, perG = 8, 16
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				tag := fmt.Sprintf("g%d", g)
				s := tr.StartRequest(tag, "")
				for c := 0; c < 3; c++ {
					ch := s.Child(tag)
					ch.Notef("%s-%d", tag, c)
					ch.End()
				}
				s.Finish(tag)
			}
		}(g)
	}
	wg.Wait()
	recs := tr.Recent(0)
	if len(recs) != goroutines*perG {
		t.Fatalf("ring has %d records, want %d", len(recs), goroutines*perG)
	}
	for _, rec := range recs {
		if rec.Outcome != rec.Name {
			t.Fatalf("record %s finished with outcome %s", rec.Name, rec.Outcome)
		}
		if len(rec.Spans) != 4 {
			t.Fatalf("record %s has %d spans, want 4", rec.Name, len(rec.Spans))
		}
		for i, sp := range rec.Spans {
			if sp.Name != rec.Name {
				t.Fatalf("record %s contains foreign span %s", rec.Name, sp.Name)
			}
			if i > 0 && !strings.HasPrefix(sp.Note, rec.Name+"-") {
				t.Fatalf("record %s contains foreign note %s", rec.Name, sp.Note)
			}
		}
	}
}

// TestDisabledSpanPathAllocatesNothing pins the disabled-tracing contract:
// the full request-shaped span flow on a nil tracer is branch-only.
func TestDisabledSpanPathAllocatesNothing(t *testing.T) {
	var tr *Tracer
	ctx := context.Background()
	allocs := testing.AllocsPerRun(100, func() {
		s := tr.StartRequest("point", "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01")
		if s.Enabled() {
			t.Fatal("nil tracer must hand out disabled spans")
		}
		ctx2 := ContextWithSpan(ctx, s)
		ch := SpanFromContext(ctx2).Child("stage")
		ch.Note("x")
		ch.End()
		s.Event("ev", time.Microsecond)
		s.Finish("ok")
	})
	if allocs != 0 {
		t.Errorf("disabled span path allocates %v per request, want 0", allocs)
	}
}

func TestFinishClosesOpenSpansAndSlowLog(t *testing.T) {
	var buf bytes.Buffer
	logger := slog.New(slog.NewJSONHandler(&buf, nil))
	tr := NewTracer(TracerOptions{RingSize: 4, SlowThreshold: time.Nanosecond, Logger: logger})
	s := tr.StartRequest("evidence", "")
	s.Child("left_open") // handler early-returned without End
	// Two stages of one name (N rule stages under a boot trace) must sum
	// into one key, not repeat it.
	s.Event("rule", 2*time.Millisecond)
	s.Event("rule", 3*time.Millisecond)
	time.Sleep(time.Millisecond)
	s.Finish("error")

	rec := tr.Recent(1)[0]
	if rec.Spans[1].DurUs < 0 {
		t.Errorf("open child not closed at Finish: dur %d", rec.Spans[1].DurUs)
	}
	var line map[string]any
	if err := json.Unmarshal(buf.Bytes(), &line); err != nil {
		t.Fatalf("slow log is not JSON: %v (%q)", err, buf.String())
	}
	if line["msg"] != "slow request" || line["endpoint"] != "evidence" || line["outcome"] != "error" {
		t.Errorf("slow log line = %v", line)
	}
	stages, ok := line["stages_ms"].(map[string]any)
	if !ok {
		t.Fatalf("slow log missing stages_ms group: %v", line)
	}
	if stages["rule"] != 5.0 || strings.Count(buf.String(), `"rule":`) != 1 {
		t.Errorf("same-named stages must sum under one key (want rule=5): %s", buf.String())
	}
	if i, j := strings.Index(buf.String(), `"left_open"`), strings.Index(buf.String(), `"rule"`); i < 0 || j < i {
		t.Errorf("stages_ms keys are not in first-seen order: %s", buf.String())
	}
}

// TestSpanCapCountsDropped pins the bound on one trace's size: past maxSpans
// stages are counted, not recorded, and their handles are inert.
func TestSpanCapCountsDropped(t *testing.T) {
	tr := NewTracer(TracerOptions{RingSize: 1})
	root := tr.StartRequest("batch", "")
	for i := 0; i < maxSpans+9; i++ { // the root holds one slot: 10 too many
		root.Event("iteration", time.Microsecond).Note("n")
	}
	root.Child("refused").Child("never_opened").End() // one more drop, not two
	root.Finish("ok")
	rec := tr.Recent(1)[0]
	if len(rec.Spans) != maxSpans {
		t.Errorf("trace holds %d spans, want the cap %d", len(rec.Spans), maxSpans)
	}
	if rec.Dropped != 11 {
		t.Errorf("dropped = %d, want 11", rec.Dropped)
	}
}

// TestContextWithSpanMasks covers the fan-out rule: a disabled span masks
// an enabled one, so goroutines handed the masked context record nothing.
func TestContextWithSpanMasks(t *testing.T) {
	tr := NewTracer(TracerOptions{RingSize: 1})
	root := tr.StartRequest("batch", "")
	ctx := ContextWithSpan(context.Background(), root)
	if !SpanFromContext(ctx).Enabled() {
		t.Fatal("span not carried")
	}
	masked := ContextWithSpan(ctx, Span{})
	if SpanFromContext(masked).Enabled() {
		t.Error("a disabled span must mask the enabled one on ctx")
	}
	SpanFromContext(masked).Child("from_a_worker").End()
	root.Finish("ok")
	if n := len(tr.Recent(1)[0].Spans); n != 1 {
		t.Errorf("masked context recorded %d spans beside the root", n-1)
	}
	if bg := context.Background(); ContextWithSpan(bg, Span{}) != bg {
		t.Error("no span on either side must return ctx unchanged")
	}
}

func TestTracesHandler(t *testing.T) {
	tr := NewTracer(TracerOptions{RingSize: 8})
	for i := 0; i < 3; i++ {
		s := tr.StartRequest("knn", "")
		s.Finish("ok")
	}
	rr := httptest.NewRecorder()
	tr.TracesHandler().ServeHTTP(rr, httptest.NewRequest("GET", "/debug/traces?n=2", nil))
	var resp struct {
		Traces []TraceRecord `json:"traces"`
	}
	if err := json.Unmarshal(rr.Body.Bytes(), &resp); err != nil {
		t.Fatalf("decoding /debug/traces: %v", err)
	}
	if len(resp.Traces) != 2 {
		t.Errorf("n=2 returned %d traces", len(resp.Traces))
	}

	// Nil tracer: the mounted route still answers with an empty list.
	var nilTr *Tracer
	rr = httptest.NewRecorder()
	nilTr.TracesHandler().ServeHTTP(rr, httptest.NewRequest("GET", "/debug/traces", nil))
	if body := strings.TrimSpace(rr.Body.String()); !strings.Contains(body, `"traces": []`) {
		t.Errorf("nil tracer body = %s", body)
	}
}

// BenchmarkSpanOverhead compares the disabled (nil tracer) request flow
// against the enabled one — the serving analog of the sampler's
// BenchmarkObsOverhead. The disabled path must report 0 allocs/op.
func BenchmarkSpanOverhead(b *testing.B) {
	run := func(b *testing.B, tr *Tracer) {
		ctx := context.Background()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s := tr.StartRequest("point", "")
			ctx2 := ContextWithSpan(ctx, s)
			ch := SpanFromContext(ctx2).Child("rtree_probe")
			ch.End()
			ch = s.Child("score")
			ch.End()
			s.Finish("ok")
		}
	}
	b.Run("disabled", func(b *testing.B) { run(b, nil) })
	b.Run("enabled", func(b *testing.B) { run(b, NewTracer(TracerOptions{RingSize: 64})) })
}
