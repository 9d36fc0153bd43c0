package serve

import (
	"net/http"
	"strings"

	"repro/internal/conclique"
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
	// Stale marks provenance served from the degraded-read snapshot while
	// an upsert holds the write lock; live-sampler fields (pinned, cached,
	// conclique) are unavailable there.
	Stale    bool      `json:"stale,omitempty"`
	Score    float64   `json:"score"`
	Marginal []float64 `json:"marginal"`
	// Evidence is the label baked in at grounding time, if any.
	Evidence *int32 `json:"evidence,omitempty"`
	// Pinned reports a live evidence pin applied by an upsert since the
	// last full ground (the graph still shows no evidence for the atom).
	Pinned bool `json:"pinned"`
	// Cached reports whether the score cache currently holds this atom's
	// marginal for the serving generation.
	Cached    bool              `json:"cached"`
	Conclique *explainConclique `json:"conclique,omitempty"`
	// Factors is the atom's score program, in the samplers' accumulation
	// order.
	Factors []explainFactor `json:"factors"`
}

// explainFactors decodes one variable's score program from the graph's
// incidence lists against a grounding Result, resolving endpoints to atom
// keys and factor ids to rule names. It compiles nothing: its cost is the
// atom's degree, on the live and the stale graph alike.
func explainFactors(ground *grounding.Result, keys []string, vid factorgraph.VarID) []explainFactor {
	prog := ground.Graph.VarProgram(vid)
	out := make([]explainFactor, len(prog))
	for i, op := range prog {
		f := explainFactor{
			Kind:    op.Kind,
			Weight:  op.Weight,
			Spatial: op.Spatial,
			Masked:  op.Masked,
		}
		if op.Other != factorgraph.NoVar && int(op.Other) < len(keys) {
			f.Other = keys[op.Other]
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

	sp := rq.span.Child("acquire_read")
	sv := s.acquireRead()
	sp.End()
	if sv != nil {
		rq.stale = true
		s.explainStale(w, rq, sv, key)
		return
	}
	defer s.mu.RUnlock()

	ground := s.sys.Grounding()
	vid, ok := ground.VarID[key]
	if !ok {
		s.fail(w, rq, http.StatusNotFound, "unknown atom %q", key)
		return
	}

	sp = rq.span.Child("provenance")
	resp := explainResponse{
		Key:        key,
		Relation:   relationOf(key),
		VarID:      int32(vid),
		Generation: s.gen,
		Pinned:     s.sys.Pinned(vid),
		Cached:     s.cache.peek(vid, s.gen),
		Factors:    explainFactors(ground, s.keys, vid),
	}
	if v := ground.Graph.Var(vid); v.Evidence != factorgraph.NoEvidence {
		ev := v.Evidence
		resp.Evidence = &ev
	}
	if spl, ok := s.sys.Sampler().(*gibbs.Spatial); ok {
		if cell, ok := spl.HomeCell(vid); ok {
			resp.Conclique = &explainConclique{
				ID:    int(conclique.Of(cell)),
				Level: cell.Level,
				X:     cell.X,
				Y:     cell.Y,
			}
		}
	}
	m := s.marginalFor(vid)
	resp.Marginal = m
	if len(m) > 1 {
		resp.Score = m[1]
	}
	sp.Notef("factors=%d", len(resp.Factors))
	sp.End()
	writeJSON(w, resp)
}

// explainStale serves provenance from the degraded snapshot: factors, rule
// names and the snapshot marginal are all derivable from the immutable
// grounding Result, but the live-sampler fields (pin state, cache state,
// conclique membership) are not readable while the writer mutates them.
func (s *Server) explainStale(w http.ResponseWriter, rq *reqScope, sv *staleView, key string) {
	vid, ok := sv.ground.VarID[key]
	if !ok {
		s.fail(w, rq, http.StatusNotFound, "unknown atom %q", key)
		return
	}
	atom := sv.atom(vid)
	resp := explainResponse{
		Key:        key,
		Relation:   relationOf(key),
		VarID:      int32(vid),
		Generation: sv.gen,
		Stale:      true,
		Score:      atom.Score,
		Marginal:   atom.Marginal,
		Factors:    explainFactors(sv.ground, sv.keys, vid),
	}
	if v := sv.graph.Var(vid); v.Evidence != factorgraph.NoEvidence {
		ev := v.Evidence
		resp.Evidence = &ev
	}
	writeJSON(w, resp)
}

// relationOf extracts the relation name from a "relation|term,..." atom key.
func relationOf(key string) string {
	if i := strings.IndexByte(key, '|'); i >= 0 {
		return key[:i]
	}
	return key
}
