package core

// System-level observability tests: a Config-supplied registry and a span on
// the context must see the whole pipeline (grounding gauges and stages,
// sampler counters, diagnostics).

import (
	"context"
	"testing"

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
