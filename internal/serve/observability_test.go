package serve

// Tests for the serving observability surface added with request tracing:
// /v1/explain score provenance, /debug/traces stage timings, the
// endpoint × outcome latency matrix, and the evidence staleness histogram.

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/conclique"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/factorgraph"
	"repro/internal/gibbs"
	"repro/internal/obs"
	"repro/internal/storage"
)

// atomKeyAt resolves the serving key of the atom at a location.
func atomKeyAt(t *testing.T, base string, x, y float64) string {
	t.Helper()
	var pt queryResponse
	url := fmt.Sprintf("%s/v1/score/point?relation=HasEbola&x=%g&y=%g", base, x, y)
	if code := getJSON(t, url, &pt); code != http.StatusOK || len(pt.Atoms) != 1 {
		t.Fatalf("point query at (%g,%g): code %d, %d atoms", x, y, code, len(pt.Atoms))
	}
	return pt.Atoms[0].Key
}

func getExplain(t *testing.T, base, key string) (explainResponse, int) {
	t.Helper()
	var resp explainResponse
	code := getJSON(t, base+"/v1/explain?key="+url.QueryEscape(key), &resp)
	return resp, code
}

// TestExplainProvenance pins the /v1/explain contract and verifies the
// reported factor program against an independently grounded batch System's
// factor graph — the serving provenance must be the batch graph's truth.
func TestExplainProvenance(t *testing.T) {
	reg := obs.NewRegistry()
	sys := newEbolaSystem(t, core.Config{Engine: core.EngineSya, Seed: 7, Epochs: 800})
	_, ts := startServer(t, sys, Options{Metrics: reg})

	bong := datagen.EbolaCounties()[2]
	key := atomKeyAt(t, ts.URL, bong.Loc.X, bong.Loc.Y)

	// Error paths first.
	if _, code := getExplain(t, ts.URL, "hasebola|no|such"); code != http.StatusNotFound {
		t.Errorf("unknown atom: status %d, want 404", code)
	}
	if code := getJSON(t, ts.URL+"/v1/explain", nil); code != http.StatusBadRequest {
		t.Errorf("missing key: status %d, want 400", code)
	}

	ex, code := getExplain(t, ts.URL, key)
	if code != http.StatusOK {
		t.Fatalf("explain status %d", code)
	}
	if ex.Key != key || ex.Relation != "hasebola" {
		t.Errorf("explain identity = %q/%q", ex.Key, ex.Relation)
	}
	if ex.Pinned || ex.Evidence != nil {
		t.Errorf("fresh Bong atom must be unlabeled: pinned=%v evidence=%v", ex.Pinned, ex.Evidence)
	}
	if len(ex.Marginal) != 2 || ex.Score != ex.Marginal[1] {
		t.Errorf("marginal/score = %v/%v", ex.Marginal, ex.Score)
	}
	// The 4 ebola counties sweep in the sampler's serial tail (no home cell
	// at a swept pyramid level), so explain omits the conclique here —
	// TestExplainConcliqueMembership covers the populated case on a denser
	// KB.
	if ex.Conclique != nil {
		t.Errorf("tail-swept atom must omit conclique, got %+v", ex.Conclique)
	}
	if len(ex.Factors) == 0 {
		t.Fatal("explain returned no factors")
	}

	// Independent verification: ground the same scenario as a batch System
	// and decode the same atom's compiled program. Kind, weight, rule and
	// endpoint keys must all agree with what the server reported.
	batch := newEbolaSystem(t, core.Config{Engine: core.EngineSya, Seed: 7, Epochs: 800})
	defer batch.Close()
	if _, err := batch.Ground(); err != nil {
		t.Fatal(err)
	}
	ground := batch.Grounding()
	vid, ok := ground.VarID[key]
	if !ok {
		t.Fatalf("batch grounding lacks atom %q", key)
	}
	want := explainFactors(ground, vid)
	if len(want) != len(ex.Factors) {
		t.Fatalf("explain reports %d factors, batch graph has %d", len(ex.Factors), len(want))
	}
	for i, got := range ex.Factors {
		w := want[i]
		if got.Kind != w.Kind || got.Other != w.Other || got.Rule != w.Rule ||
			got.Spatial != w.Spatial || got.Masked != w.Masked {
			t.Errorf("factor %d = %+v, batch graph says %+v", i, got, w)
		}
		if diff := got.Weight - w.Weight; diff > 1e-12 || diff < -1e-12 {
			t.Errorf("factor %d weight = %v, batch graph says %v", i, got.Weight, w.Weight)
		}
	}
	// The ebola program grounds a class prior (R0) and spatial-prior pairs
	// for every county: both must show up with their rule provenance.
	var sawPrior, sawSpatial bool
	for _, f := range ex.Factors {
		if f.Rule == "R0" {
			sawPrior = true
		}
		if f.Spatial {
			sawSpatial = true
			if f.Rule != "" {
				t.Errorf("spatial pair reported rule %q", f.Rule)
			}
		}
	}
	if !sawPrior || !sawSpatial {
		t.Errorf("factors missing provenance: prior=%v spatial=%v (%+v)", sawPrior, sawSpatial, ex.Factors)
	}

	// Pin Bong through the API: explain must flip to pinned without the
	// graph's grounded evidence changing (the pin lives in the sampler).
	up, code := postUpsert(t, ts.URL, "CountyEvidence", [][]string{
		{"3", storage.Geom(bong.Loc).String(), "true"},
	})
	if code != http.StatusOK || up.Pins != 1 {
		t.Fatalf("pin upsert = %+v (code %d)", up, code)
	}
	ex2, code := getExplain(t, ts.URL, key)
	if code != http.StatusOK {
		t.Fatalf("explain after pin: status %d", code)
	}
	if !ex2.Pinned || ex2.Evidence != nil {
		t.Errorf("after pin: pinned=%v evidence=%v, want pinned with no grounded evidence", ex2.Pinned, ex2.Evidence)
	}
	if ex2.Generation != up.Generation {
		t.Errorf("explain generation %d, upsert acked %d", ex2.Generation, up.Generation)
	}
	if ex2.Score < 0.9 {
		t.Errorf("pinned-true atom scores %v, want ≈1", ex2.Score)
	}
	// An atom whose label was grounded in (Montserrado, id 1) reports
	// evidence rather than a pin.
	mont := datagen.EbolaCounties()[0]
	ex3, _ := getExplain(t, ts.URL, atomKeyAt(t, ts.URL, mont.Loc.X, mont.Loc.Y))
	if ex3.Evidence == nil || *ex3.Evidence != 1 || ex3.Pinned {
		t.Errorf("grounded-evidence atom = evidence %v pinned %v", ex3.Evidence, ex3.Pinned)
	}
}

// TestExplainConcliqueMembership checks the conclique report on a KB dense
// enough for the spatial sampler to assign home cells: the served id and
// cell must equal the sampler's own HomeCell → conclique.Of mapping.
func TestExplainConcliqueMembership(t *testing.T) {
	sys, _ := newGWDBSystem(t, 200)
	srv, ts := startServer(t, sys, Options{})

	sp, ok := srv.System().Sampler().(*gibbs.Spatial)
	if !ok {
		t.Fatal("gwdb fixture must run the spatial sampler")
	}
	ground := srv.System().Grounding()
	checked := 0
	for key, vid := range ground.VarID {
		cell, hasHome := sp.HomeCell(vid)
		ex, code := getExplain(t, ts.URL, key)
		if code != http.StatusOK {
			t.Fatalf("explain %q: status %d", key, code)
		}
		if !hasHome {
			if ex.Conclique != nil {
				t.Errorf("%s: tail-swept atom reports conclique %+v", key, ex.Conclique)
			}
			continue
		}
		checked++
		if ex.Conclique == nil {
			t.Errorf("%s: home cell %v but no conclique in explain", key, cell)
			continue
		}
		wantID := int(conclique.Of(cell))
		if ex.Conclique.ID != wantID || ex.Conclique.Level != cell.Level ||
			ex.Conclique.X != cell.X || ex.Conclique.Y != cell.Y {
			t.Errorf("%s: conclique = %+v, sampler says id=%d cell=%v", key, ex.Conclique, wantID, cell)
		}
		if ex.Conclique.ID < 0 || ex.Conclique.ID > 3 {
			t.Errorf("%s: conclique id %d outside the 2x2 coloring", key, ex.Conclique.ID)
		}
	}
	if checked == 0 {
		t.Error("no atom had a home cell; fixture does not exercise conclique membership")
	}
}

// tracesBody fetches and decodes /debug/traces.
func tracesBody(t *testing.T, base string) []obs.TraceRecord {
	t.Helper()
	var resp struct {
		Traces []obs.TraceRecord `json:"traces"`
	}
	if code := getJSON(t, base+"/debug/traces", &resp); code != http.StatusOK {
		t.Fatalf("/debug/traces status %d", code)
	}
	return resp.Traces
}

// TestRequestTracing drives traced reads and a traced upsert and checks the
// recorded span trees: stage coverage, traceparent echo, and the wall-time
// accounting contract (direct child stages sum to within 10% of the
// request's recorded duration for an upsert).
func TestRequestTracing(t *testing.T) {
	tracer := obs.NewTracer(obs.TracerOptions{RingSize: 32})
	reg := obs.NewRegistry()
	sys := newEbolaSystem(t, core.Config{Engine: core.EngineSya, Seed: 7})
	_, ts := startServer(t, sys, Options{
		Metrics: reg,
		Tracer:  tracer,
		WALPath: filepath.Join(t.TempDir(), "trace.wal"),
	})

	// A read with an upstream traceparent: the trace id is adopted and
	// echoed with a server-generated span id.
	bong := datagen.EbolaCounties()[2]
	const parent = "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01"
	req, _ := http.NewRequest("GET",
		fmt.Sprintf("%s/v1/score/point?relation=HasEbola&x=%g&y=%g", ts.URL, bong.Loc.X, bong.Loc.Y), nil)
	req.Header.Set("traceparent", parent)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	echo := resp.Header.Get("traceparent")
	if !strings.HasPrefix(echo, "00-4bf92f3577b34da6a3ce929d0e0e4736-") || echo == parent {
		t.Errorf("traceparent echo = %q", echo)
	}

	up, code := postUpsert(t, ts.URL, "CountyEvidence", [][]string{
		{"3", storage.Geom(bong.Loc).String(), "true"},
	})
	if code != http.StatusOK || up.Pins != 1 {
		t.Fatalf("upsert = %+v (code %d)", up, code)
	}

	var read, upsert *obs.TraceRecord
	for _, rec := range tracesBody(t, ts.URL) {
		rec := rec
		switch rec.Name {
		case "point":
			if read == nil {
				read = &rec
			}
		case "evidence":
			upsert = &rec
		}
	}
	if read == nil || upsert == nil {
		t.Fatal("ring is missing the point or evidence trace")
	}
	if read.TraceID != "4bf92f3577b34da6a3ce929d0e0e4736" || read.ParentSpanID != "00f067aa0ba902b7" {
		t.Errorf("read trace identity = %s/%s", read.TraceID, read.ParentSpanID)
	}

	stageNames := func(rec *obs.TraceRecord) map[string]bool {
		m := map[string]bool{}
		for _, sp := range rec.Spans[1:] {
			m[sp.Name] = true
		}
		return m
	}
	for _, stage := range []string{"acquire_read", "rtree_probe", "score"} {
		if !stageNames(read)[stage] {
			t.Errorf("read trace missing stage %s: %+v", stage, read.Spans)
		}
	}
	upStages := stageNames(upsert)
	for _, stage := range []string{"decode", "queue_wait", "validate", "wal_append", "wal_fsync", "delta_ground", "pin_apply", "resample", "conclique_sweep"} {
		if !upStages[stage] {
			t.Errorf("upsert trace missing stage %s: %+v", stage, upsert.Spans)
		}
	}
	if upsert.Outcome != "ok" {
		t.Errorf("upsert outcome = %s", upsert.Outcome)
	}

	// Accounting: the direct child stages partition the handler's work, so
	// their durations must sum to within 10% of the recorded wall time
	// (nested stages — wal_fsync under wal_append, the conclique sweep
	// under resample — are excluded to avoid double counting).
	var sum int64
	for _, sp := range upsert.Spans[1:] {
		if sp.Parent == 0 {
			sum += sp.DurUs
		}
	}
	if wall := upsert.DurUs; sum < wall*9/10 || sum > wall*11/10 {
		t.Errorf("upsert stages sum to %dµs of %dµs wall (outside ±10%%): %+v", sum, wall, upsert.Spans)
	}
}

// TestServeMetricsSurface checks the new serving series: the
// endpoint × outcome latency matrix, the staleness and WAL fsync
// histograms, and the runtime health gauges.
func TestServeMetricsSurface(t *testing.T) {
	reg := obs.NewRegistry()
	sys := newEbolaSystem(t, core.Config{Engine: core.EngineSya, Seed: 7, Epochs: 800})
	srv, ts := startServer(t, sys, Options{
		Metrics:          reg,
		WALPath:          filepath.Join(t.TempDir(), "m.wal"),
		MaxQueuedUpserts: 1,
	})

	bong := datagen.EbolaCounties()[2]
	atomKeyAt(t, ts.URL, bong.Loc.X, bong.Loc.Y) // one ok point read
	getJSON(t, ts.URL+"/v1/score/point?relation=Nope&x=1&y=1", nil)
	before := time.Now()
	if _, code := postUpsert(t, ts.URL, "CountyEvidence", [][]string{
		{"3", storage.Geom(bong.Loc).String(), "true"},
	}); code != http.StatusOK {
		t.Fatalf("upsert status %d", code)
	}
	upsertWall := time.Since(before)

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	text, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{
		`sya_serve_request_seconds_bucket{endpoint="point",outcome="ok",le="+Inf"} 1`,
		`sya_serve_request_seconds_bucket{endpoint="point",outcome="error",le="+Inf"} 1`,
		`sya_serve_request_seconds_bucket{endpoint="evidence",outcome="ok",le="+Inf"} 1`,
		`sya_serve_staleness_seconds_count 1`,
		"sya_wal_fsync_seconds_count",
		"# TYPE sya_go_goroutines gauge",
		"# TYPE sya_go_heap_bytes gauge",
		"# TYPE sya_go_gc_pause_seconds gauge",
	} {
		if !strings.Contains(string(text), want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	// The staleness histogram measured the accept→publish window: its sum
	// must be positive and below the client-observed upsert wall time.
	snap := reg.Snapshot()
	if s := snap["sya_serve_staleness_seconds_sum"]; s <= 0 || s > upsertWall.Seconds() {
		t.Errorf("staleness sum = %v, want within (0, %v]", s, upsertWall.Seconds())
	}
	_ = srv
}

// TestExplainDegradedPath serves provenance from the stale snapshot while a
// writer holds the lock: factors and rules still come back (flagged stale),
// and live-sampler fields are absent.
func TestExplainDegradedPath(t *testing.T) {
	sys := newEbolaSystem(t, core.Config{Engine: core.EngineSya, Seed: 7, Epochs: 800})
	srv, ts := startServer(t, sys, Options{})
	bong := datagen.EbolaCounties()[2]
	key := atomKeyAt(t, ts.URL, bong.Loc.X, bong.Loc.Y)

	// Hold the write lock like an in-flight upsert does.
	srv.mu.Lock()
	srv.publishStale()
	ex, code := getExplain(t, ts.URL, key)
	srv.degraded.Store(nil)
	srv.mu.Unlock()
	if code != http.StatusOK {
		t.Fatalf("degraded explain status %d", code)
	}
	if !ex.Stale {
		t.Error("explain under a writer must be flagged stale")
	}
	if len(ex.Factors) == 0 || len(ex.Marginal) != 2 {
		t.Errorf("degraded explain dropped provenance: %+v", ex)
	}
	if ex.Conclique != nil {
		t.Errorf("degraded explain must omit live-sampler fields: %+v", ex)
	}
}

// TestExplainJSONShape locks the response field names the docs advertise.
func TestExplainJSONShape(t *testing.T) {
	sys := newEbolaSystem(t, core.Config{Engine: core.EngineSya, Seed: 7, Epochs: 800})
	_, ts := startServer(t, sys, Options{})
	mont := datagen.EbolaCounties()[0]
	key := atomKeyAt(t, ts.URL, mont.Loc.X, mont.Loc.Y)
	resp, err := http.Get(ts.URL + "/v1/explain?key=" + url.QueryEscape(key))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var raw map[string]json.RawMessage
	if err := json.NewDecoder(resp.Body).Decode(&raw); err != nil {
		t.Fatal(err)
	}
	for _, field := range []string{"key", "relation", "var_id", "generation", "score", "marginal", "evidence", "pinned", "factors"} {
		if _, ok := raw[field]; !ok {
			t.Errorf("explain body missing %q: %v", field, raw)
		}
	}
	var _ = factorgraph.NoVar // keep the provenance types honest at compile time
}
