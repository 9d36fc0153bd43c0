package core

// System-level observability tests: a Config-supplied registry and a span on
// the context must see the whole pipeline (grounding gauges and stages,
// sampler counters, diagnostics, checkpoint resume counters), and the resume
// telemetry must distinguish primary resumes from .prev fallbacks.

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/frame"
	"repro/internal/gibbs"
	"repro/internal/obs"
)

func TestObservabilityThroughConfig(t *testing.T) {
	reg := obs.NewRegistry()
	tracer := obs.NewTracer(obs.TracerOptions{RingSize: 1})
	root := tracer.StartRequest("batch", "")
	ctx := obs.ContextWithSpan(context.Background(), root)
	var progress []gibbs.Progress
	s := newEbolaSystem(t, Config{
		Engine: EngineSya, Seed: 5, BurnIn: -1,
		Metrics:       reg,
		ProgressEvery: 10,
		Progress:      func(p gibbs.Progress) { progress = append(progress, p) },
	})
	defer s.Close()
	if _, err := s.GroundContext(ctx); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.InferContext(ctx, 60); err != nil {
		t.Fatal(err)
	}
	root.Finish("ok")

	snap := reg.Snapshot()
	for _, name := range []string{"sya_ground_vars", "sya_ground_logical_factors", "sya_epochs_total", "sya_chunks_total"} {
		if snap[name] <= 0 {
			t.Errorf("%s = %v, want > 0 (snapshot %v)", name, snap[name], snap)
		}
	}
	if len(progress) == 0 {
		t.Error("Progress callback never fired")
	}

	// The same run as a span tree: both phases, and one diag event per
	// Progress reading on the sweep.
	stages := map[string]int{}
	for _, sp := range tracer.Recent(1)[0].Spans {
		stages[sp.Name]++
	}
	for _, stage := range []string{"core.ground", "grounding.rules", "rule", "grounding.spatial", "core.infer", "gibbs.build", "gibbs.steady"} {
		if stages[stage] == 0 {
			t.Errorf("trace has no %q stage (got %v)", stage, stages)
		}
	}
	if stages["diag"] != len(progress) {
		t.Errorf("trace has %d diag events for %d Progress readings", stages["diag"], len(progress))
	}
}

func TestResumeCountersDistinguishFallback(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sys.ckpt")
	base := Config{Engine: EngineSya, Seed: 5, Workers: 1, BurnIn: -1,
		CheckpointPath: path, CheckpointEvery: 10}

	// Seed two checkpoint generations.
	s1 := newEbolaSystem(t, base)
	if _, err := s1.Ground(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s1.InferContext(context.Background(), 100); err != nil {
		t.Fatal(err)
	}
	s1.Close()
	if _, err := os.Stat(frame.PrevPath(path)); err != nil {
		t.Fatalf("no rotated generation after the first run: %v", err)
	}

	// A healthy resume counts as a primary resume, not a fallback.
	cfg := base
	cfg.Metrics = obs.NewRegistry()
	s2 := newEbolaSystem(t, cfg)
	if _, err := s2.Ground(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s2.InferContext(context.Background(), 20); err != nil {
		t.Fatal(err)
	}
	s2.Close()
	snap := cfg.Metrics.Snapshot()
	if snap["sya_checkpoint_resumes_total"] != 1 {
		t.Errorf("resumes = %v, want 1", snap["sya_checkpoint_resumes_total"])
	}
	if snap["sya_checkpoint_resume_fallbacks_total"] != 0 {
		t.Errorf("fallbacks = %v, want 0", snap["sya_checkpoint_resume_fallbacks_total"])
	}

	// Corrupt the primary: the resume falls back to .prev and says so.
	if err := os.WriteFile(path, []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	cfg = base
	cfg.Metrics = obs.NewRegistry()
	s3 := newEbolaSystem(t, cfg)
	defer s3.Close()
	if _, err := s3.Ground(); err != nil {
		t.Fatal(err)
	}
	tracer := obs.NewTracer(obs.TracerOptions{RingSize: 1})
	root := tracer.StartRequest("batch", "")
	if _, _, err := s3.InferContext(obs.ContextWithSpan(context.Background(), root), 20); err != nil {
		t.Fatal(err)
	}
	root.Finish("ok")
	snap = cfg.Metrics.Snapshot()
	if snap["sya_checkpoint_resumes_total"] != 1 || snap["sya_checkpoint_resume_fallbacks_total"] != 1 {
		t.Errorf("fallback resume counters = (%v, %v), want (1, 1)",
			snap["sya_checkpoint_resumes_total"], snap["sya_checkpoint_resume_fallbacks_total"])
	}
	// The trace says the same: a resume event on the sampler's build stage.
	spans := tracer.Recent(1)[0].Spans
	var resume obs.SpanRecord
	for _, sp := range spans {
		if sp.Name == "resume" {
			resume = sp
		}
	}
	if want := "path=" + frame.PrevPath(path) + " fallback=true epoch="; !strings.HasPrefix(resume.Note, want) || spans[resume.Parent].Name != "gibbs.build" {
		t.Errorf("resume event = %+v, want note %q… under gibbs.build (%+v)", resume, want, spans)
	}
}
