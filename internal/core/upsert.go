package core

import (
	"context"
	"fmt"
	"time"

	"repro/internal/factorgraph"
	"repro/internal/gibbs"
	"repro/internal/grounding"
	"repro/internal/obs"
	"repro/internal/storage"
)

// DeltaStats reports what an UpsertEvidence call did: how many rows were
// appended, whether the change was absorbed as a sparse evidence patch or
// forced a structural re-ground, and how the patch decomposed into applied
// vs. skipped pins.
type DeltaStats struct {
	// Rows appended to the relation.
	Rows int
	// Pins applied to the live sampler (non-structural path only).
	Pins int
	// SkippedPins counts patch pins dropped because an earlier upsert
	// already pinned the same atom — the first pin wins, mirroring the
	// batch grounder's evidence dedup.
	SkippedPins int
	// Derivations re-evaluated by the delta grounder.
	Derivations int
	// Structural reports that the change could not be expressed as a patch
	// and the system fell back to a full re-ground (Reason says why).
	Structural bool
	Reason     string
	// GroundTime is the wall time of the delta evaluation, or of the full
	// re-ground on the structural path.
	GroundTime time.Duration
}

// UpsertEvidence appends rows to a relation and folds the change into the
// live system without a full rebuild when possible. On the fast path the
// delta grounder re-evaluates only the derivations reading the relation,
// producing a sparse patch of evidence pins that is applied to the running
// sampler (first pin per atom wins; conflicting upserts are dropped, exactly
// as the batch grounder's dedup would drop them). The caller then resamples
// with InferIncrementalContext to propagate the new evidence.
//
// The structural fallback — a change the patch language cannot express (new
// ground atoms, variable-relation or rule-body reach) or the DeepDive engine,
// which has no incremental sampler — re-grounds from scratch; the next Infer
// call rebuilds the sampler over the fresh graph.
func (s *System) UpsertEvidence(ctx context.Context, relation string, rows []storage.Row) (DeltaStats, error) {
	var stats DeltaStats
	if s.ground == nil {
		return stats, fmt.Errorf("core: Ground must run before UpsertEvidence")
	}
	tbl, err := s.db.Table(relation)
	if err != nil {
		return stats, err
	}
	if err := tbl.AppendAll(rows); err != nil {
		return stats, err
	}
	stats.Rows = len(rows)

	if s.cfg.Engine == EngineDeepDive {
		return s.upsertStructural(ctx, stats, "deepdive engine has no delta path")
	}

	gr := grounding.New(s.prog, s.db, s.groundingOptions())
	patch, err := gr.DeltaContext(ctx, s.ground, []string{relation})
	if err != nil {
		return stats, err
	}
	stats.Derivations = patch.Derivations
	stats.GroundTime = patch.Elapsed
	if patch.Structural {
		return s.upsertStructural(ctx, stats, patch.Reason)
	}
	if len(patch.Pins) == 0 {
		s.observeDelta(stats)
		return stats, nil
	}
	// Apply the patch to the live sampler (building one if inference has
	// not started yet — pins must land somewhere stateful).
	pinSpan := obs.SpanFromContext(ctx).Child("pin_apply")
	if err := s.ensureSampler(obs.ContextWithSpan(ctx, pinSpan)); err != nil {
		return stats, err
	}
	sp, ok := s.sampler.(*gibbs.Spatial)
	if !ok {
		return s.upsertStructural(ctx, stats, "sampler is not incremental")
	}
	for _, pin := range patch.Pins {
		if _, ok := s.pinned[pin.Var]; ok {
			stats.SkippedPins++
			continue
		}
		if err := s.pin(sp, pin.Var, pin.Value); err != nil {
			return stats, err
		}
		stats.Pins++
	}
	pinSpan.Notef("pins=%d skipped=%d", stats.Pins, stats.SkippedPins)
	pinSpan.End()
	s.observeDelta(stats)
	return stats, nil
}

// Pinned reports whether v has been pinned by an evidence upsert since the
// last full ground (pins baked into the graph at grounding time show as
// Variable.Evidence instead).
func (s *System) Pinned(v factorgraph.VarID) bool {
	_, ok := s.pinned[v]
	return ok
}

// upsertStructural is the fallback: re-ground the whole program. The sampler
// and pin set are reset by GroundContext; inference restarts fresh.
func (s *System) upsertStructural(ctx context.Context, stats DeltaStats, reason string) (DeltaStats, error) {
	stats.Structural = true
	stats.Reason = reason
	span := obs.SpanFromContext(ctx).Child("reground")
	span.Note(reason)
	start := time.Now()
	if _, err := s.GroundContext(obs.ContextWithSpan(ctx, span)); err != nil {
		return stats, err
	}
	stats.GroundTime = time.Since(start)
	span.End()
	s.observeDelta(stats)
	return stats, nil
}

// observeDelta publishes upsert outcomes to the metrics plane.
func (s *System) observeDelta(stats DeltaStats) {
	m := s.cfg.Metrics
	if m == nil {
		return
	}
	m.Counter("sya_delta_upserts_total").Inc()
	m.Counter("sya_delta_rows_total").Add(uint64(stats.Rows))
	m.Counter("sya_delta_pins_total").Add(uint64(stats.Pins))
	m.Counter("sya_delta_skipped_pins_total").Add(uint64(stats.SkippedPins))
	if stats.Structural {
		m.Counter("sya_delta_structural_total").Inc()
	}
	m.Histogram("sya_delta_ground_seconds", obsDeltaBuckets).Observe(stats.GroundTime.Seconds())
}

// obsDeltaBuckets spans sub-millisecond patches to multi-second re-grounds.
var obsDeltaBuckets = []float64{.0005, .001, .005, .01, .05, .1, .5, 1, 5, 10}
