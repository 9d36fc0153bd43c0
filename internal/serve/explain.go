package serve

import (
	"net/http"
	"strings"

	"repro/internal/conclique"
	"repro/internal/core"
	"repro/internal/factorgraph"
	"repro/internal/gibbs"
	"repro/internal/grounding"
)

// This file implements GET /v1/explain — score provenance for one grounded
// atom. Where the score endpoints answer "what is P(true)?", explain answers
// "why": which factors (and at what live weights) the samplers score the
// atom against, which inference rule each came from, which conclique the
// atom sweeps in, and whether its current value is grounded evidence, a live
// evidence pin from an upsert, or a sampled marginal.

// explainFactor is one entry of an atom's score program.
type explainFactor struct {
	// Kind is the factor shape: istrue, imply, and, or, equal, generic for
	// logical factors; spatial, spatial_masked for spatial-prior pairs.
	Kind   string  `json:"kind"`
	Weight float64 `json:"weight"`
	// Other is the atom key of the factor's other endpoint ("" when the
	// factor is unary or touches several other variables).
	Other string `json:"other,omitempty"`
	// Rule names the inference rule the factor was grounded from (logical
	// factors only; spatial pairs come from the spatial prior, not a rule).
	Rule    string `json:"rule,omitempty"`
	Spatial bool   `json:"spatial,omitempty"`
	// Masked marks spatial ops evaluated under the co-occurrence mask.
	Masked bool `json:"masked,omitempty"`
}

// explainConclique reports the atom's sweep assignment: the pyramid home
// cell and the 2×2-coloring conclique it belongs to.
type explainConclique struct {
	ID    int `json:"id"`
	Level int `json:"level"`
	X     int `json:"x"`
	Y     int `json:"y"`
}

// explainResponse is the /v1/explain body.
type explainResponse struct {
	Key        string `json:"key"`
	Relation   string `json:"relation"`
	VarID      int32  `json:"var_id"`
	Generation uint64 `json:"generation"`
	// Stale marks provenance served from the degraded-read view while an
	// upsert holds the write lock; live-sampler fields (pinned, conclique)
	// are unavailable there.
	Stale    bool      `json:"stale,omitempty"`
	Score    float64   `json:"score"`
	Marginal []float64 `json:"marginal"`
	// Evidence is the label baked in at grounding time, if any.
	Evidence *int32 `json:"evidence,omitempty"`
	// Pinned reports a live evidence pin applied by an upsert since the
	// last full ground (the graph still shows no evidence for the atom).
	Pinned    bool              `json:"pinned"`
	Conclique *explainConclique `json:"conclique,omitempty"`
	// Factors is the atom's score program, in the samplers' accumulation
	// order.
	Factors []explainFactor `json:"factors"`
}

// explainFactors decodes one variable's score program from the graph's
// incidence lists against a grounding Result, resolving endpoints to atom
// keys and factor ids to rule names. It compiles nothing: its cost is the
// atom's degree, on the live and the stale graph alike.
func explainFactors(ground *grounding.Result, vid factorgraph.VarID) []explainFactor {
	prog := ground.Graph.VarProgram(vid)
	out := make([]explainFactor, len(prog))
	for i, op := range prog {
		f := explainFactor{
			Kind:    op.Kind,
			Weight:  op.Weight,
			Spatial: op.Spatial,
			Masked:  op.Masked,
		}
		if op.Other != factorgraph.NoVar && int(op.Other) < len(ground.Keys) {
			f.Other = ground.Keys[op.Other]
		}
		if !op.Spatial && int(op.ID) < len(ground.FactorRule) {
			if ri := ground.FactorRule[op.ID]; ri >= 0 && int(ri) < len(ground.RuleNames) {
				f.Rule = ground.RuleNames[ri]
			}
		}
		out[i] = f
	}
	return out
}

func (s *Server) handleExplain(w http.ResponseWriter, r *http.Request, rq *reqScope) {
	key := r.URL.Query().Get("key")
	if key == "" {
		s.fail(w, rq, http.StatusBadRequest, "explain needs key=relation|term,... (a grounded atom key)")
		return
	}
	v, release := s.beginRead(rq)
	defer release()
	vid, ok := v.ground.VarID[key]
	if !ok {
		s.fail(w, rq, http.StatusNotFound, "unknown atom %q", key)
		return
	}

	sp := rq.span.Child("provenance")
	m := v.marginal(vid)
	resp := explainResponse{
		Key:        key,
		Relation:   relationOf(key),
		VarID:      int32(vid),
		Generation: v.gen,
		Stale:      v.stale,
		Score:      core.ScoreOf(m),
		Marginal:   m,
		Factors:    explainFactors(v.ground, vid),
	}
	if gv := v.ground.Graph.Var(vid); gv.Evidence != factorgraph.NoEvidence {
		ev := gv.Evidence
		resp.Evidence = &ev
	}
	// Pin state and conclique membership live in the sampler, which a stale
	// view's writer is mutating; only the live view reports them.
	if !v.stale {
		resp.Pinned = s.sys.Pinned(vid)
		if spl, ok := v.sampler.(*gibbs.Spatial); ok {
			if cell, ok := spl.HomeCell(vid); ok {
				resp.Conclique = &explainConclique{
					ID:    int(conclique.Of(cell)),
					Level: cell.Level,
					X:     cell.X,
					Y:     cell.Y,
				}
			}
		}
	}
	sp.Notef("factors=%d", len(resp.Factors))
	sp.End()
	writeJSON(w, resp)
}

// relationOf extracts the relation name from a "relation|term,..." atom key.
func relationOf(key string) string {
	if i := strings.IndexByte(key, '|'); i >= 0 {
		return key[:i]
	}
	return key
}
