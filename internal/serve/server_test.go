package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/factorgraph"
	"repro/internal/geom"
	"repro/internal/obs"
	"repro/internal/storage"
)

// newEbolaSystem loads the Fig. 1 scenario (4 counties, Montserrado labeled).
func newEbolaSystem(t *testing.T, cfg core.Config) *core.System {
	t.Helper()
	if cfg.Metric == geom.Euclidean {
		cfg.Metric = geom.HaversineMiles
	}
	if cfg.Bandwidth == 0 {
		cfg.Bandwidth = 60
	}
	if cfg.PyramidLevels == 0 {
		cfg.PyramidLevels = 4
	}
	if cfg.Epochs == 0 {
		cfg.Epochs = 4000
	}
	s := core.NewSystem(cfg)
	if err := s.LoadProgram(datagen.EbolaProgram); err != nil {
		t.Fatal(err)
	}
	county, evidence := datagen.EbolaRows(datagen.EbolaCounties())
	if err := s.LoadRows("County", county); err != nil {
		t.Fatal(err)
	}
	if err := s.LoadRows("CountyEvidence", evidence); err != nil {
		t.Fatal(err)
	}
	return s
}

// startServer wraps a system in a warmed-up Server plus an HTTP test server.
// Both are torn down with the test.
func startServer(t *testing.T, sys *core.System, opts Options) (*Server, *httptest.Server) {
	t.Helper()
	srv, err := New(sys, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := srv.Close(); err != nil {
			t.Errorf("closing server: %v", err)
		}
	})
	if err := srv.Warmup(context.Background(), 0); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts
}

func getJSON(t *testing.T, url string, out any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decoding %s: %v", url, err)
		}
	}
	return resp.StatusCode
}

func postUpsert(t *testing.T, base, relation string, rows [][]string) (evidenceResponse, int) {
	t.Helper()
	body, err := json.Marshal(evidenceRequest{Relation: relation, Rows: rows})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(base+"/v1/evidence", "application/json", strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out evidenceResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
	}
	return out, resp.StatusCode
}

func TestServeEndpoints(t *testing.T) {
	reg := obs.NewRegistry()
	sys := newEbolaSystem(t, core.Config{Engine: core.EngineSya, Seed: 7})
	srv, ts := startServer(t, sys, Options{Metrics: reg.With("system", "ebola")})

	var health healthResponse
	if code := getJSON(t, ts.URL+"/healthz", &health); code != http.StatusOK {
		t.Fatalf("healthz status %d", code)
	}
	if health.Status != "ok" || health.Engine != "sya" || health.Vars != 4 {
		t.Errorf("health = %+v", health)
	}

	// Point query: Bong's exact location holds exactly one atom.
	bong := datagen.EbolaCounties()[2]
	var pt queryResponse
	url := fmt.Sprintf("%s/v1/score/point?relation=HasEbola&x=%g&y=%g", ts.URL, bong.Loc.X, bong.Loc.Y)
	if code := getJSON(t, url, &pt); code != http.StatusOK {
		t.Fatalf("point status %d", code)
	}
	if len(pt.Atoms) != 1 || !strings.HasPrefix(pt.Atoms[0].Key, "hasebola|3|") {
		t.Fatalf("point atoms = %+v", pt.Atoms)
	}
	if s := pt.Atoms[0].Score; s <= 0 || s >= 1 {
		t.Errorf("Bong score = %f, want interior probability", s)
	}

	// Range query over Liberia returns all four counties, sorted by key.
	var rng queryResponse
	url = ts.URL + "/v1/score/range?relation=HasEbola&minx=-12&miny=4&maxx=-7&maxy=9"
	if code := getJSON(t, url, &rng); code != http.StatusOK {
		t.Fatalf("range status %d", code)
	}
	if len(rng.Atoms) != 4 {
		t.Fatalf("range returned %d atoms, want 4", len(rng.Atoms))
	}
	for i := 1; i < len(rng.Atoms); i++ {
		if rng.Atoms[i-1].Key >= rng.Atoms[i].Key {
			t.Errorf("range atoms not sorted: %q before %q", rng.Atoms[i-1].Key, rng.Atoms[i].Key)
		}
	}

	// k-NN from Montserrado: itself first, then Margibi (29 mi < Bong 106 mi).
	mont := datagen.EbolaCounties()[0]
	var knn queryResponse
	url = fmt.Sprintf("%s/v1/score/knn?relation=HasEbola&x=%g&y=%g&k=2", ts.URL, mont.Loc.X, mont.Loc.Y)
	if code := getJSON(t, url, &knn); code != http.StatusOK {
		t.Fatalf("knn status %d", code)
	}
	if len(knn.Atoms) != 2 ||
		!strings.HasPrefix(knn.Atoms[0].Key, "hasebola|1|") ||
		!strings.HasPrefix(knn.Atoms[1].Key, "hasebola|2|") {
		t.Fatalf("knn atoms = %+v", knn.Atoms)
	}

	// Error paths.
	if code := getJSON(t, ts.URL+"/v1/score/point?relation=HasEbola&x=1", nil); code != http.StatusBadRequest {
		t.Errorf("missing y: status %d, want 400", code)
	}
	if code := getJSON(t, ts.URL+"/v1/score/point?relation=Nope&x=1&y=1", nil); code != http.StatusNotFound {
		t.Errorf("unknown relation: status %d, want 404", code)
	}
	if _, code := postUpsert(t, ts.URL, "CountyEvidence", [][]string{{"only-two", "cells"}}); code != http.StatusBadRequest {
		t.Errorf("short row: status %d, want 400", code)
	}

	// Upsert through the API pins Bong and bumps the generation.
	gen := srv.Generation()
	up, code := postUpsert(t, ts.URL, "CountyEvidence", [][]string{
		{"3", storage.Geom(bong.Loc).String(), "true"},
	})
	if code != http.StatusOK {
		t.Fatalf("upsert status %d", code)
	}
	if up.Structural || up.Pins != 1 || up.Generation != gen+1 {
		t.Errorf("upsert = %+v, want 1 pin at generation %d", up, gen+1)
	}
	if code := getJSON(t, url, &knn); code != http.StatusOK {
		t.Fatalf("post-upsert knn status %d", code)
	}

	// The exposition endpoint carries the serve series.
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	text, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{
		`sya_serve_requests_total{system="ebola"}`,
		`sya_serve_upserts_total{system="ebola"} 1`,
		`sya_serve_generation{system="ebola"} 2`,
		`sya_serve_atoms{system="ebola"} 4`,
	} {
		if !strings.Contains(string(text), want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// TestNewRefusesShardedSystem: sharded inference never builds the live
// sampler reads come from, so serving one would answer uniform marginals
// after Warmup and grow a second, unsharded sampler on the first pin.
func TestNewRefusesShardedSystem(t *testing.T) {
	sys := newEbolaSystem(t, core.Config{Engine: core.EngineSya, Seed: 7, Shards: 2})
	defer sys.Close()
	srv, err := New(sys, Options{})
	if !errors.Is(err, ErrSharded) {
		if srv != nil {
			srv.Close()
		}
		t.Fatalf("New over a 2-shard system: err = %v, want ErrSharded", err)
	}
}

func TestServeStructuralUpsertRebuildsIndex(t *testing.T) {
	sys := newEbolaSystem(t, core.Config{Engine: core.EngineSya, Seed: 7, Epochs: 800})
	srv, ts := startServer(t, sys, Options{})
	// A new county is a structural change: the delta grounder bails, the
	// server re-grounds, re-infers, and rebuilds its R-trees.
	loc := geom.Pt(-9.2, 6.1)
	up, code := postUpsert(t, ts.URL, "County", [][]string{
		{"9", storage.Geom(loc).String(), "true"},
	})
	if code != http.StatusOK {
		t.Fatalf("structural upsert status %d", code)
	}
	if !up.Structural {
		t.Fatalf("upsert = %+v, want structural", up)
	}
	var pt queryResponse
	url := fmt.Sprintf("%s/v1/score/point?relation=HasEbola&x=%g&y=%g", ts.URL, loc.X, loc.Y)
	if getJSON(t, url, &pt) != http.StatusOK || len(pt.Atoms) != 1 {
		t.Fatalf("new atom not served: %+v", pt)
	}
	if !strings.HasPrefix(pt.Atoms[0].Key, "hasebola|9|") {
		t.Errorf("atom key = %q", pt.Atoms[0].Key)
	}
	var health healthResponse
	getJSON(t, ts.URL+"/healthz", &health)
	if health.Vars != 5 {
		t.Errorf("vars after structural upsert = %d, want 5", health.Vars)
	}
	_ = srv
}

// TestServePointReadDeepDiveEngine: the read path goes through
// Sampler.MarginalVar for every engine, so a DeepDive-backed server (hogwild
// sampler) serves exactly the score a batch Infer computes for the atom.
func TestServePointReadDeepDiveEngine(t *testing.T) {
	cfg := core.Config{Engine: core.EngineDeepDive, Seed: 7}
	_, ts := startServer(t, newEbolaSystem(t, cfg), Options{})

	batch := newEbolaSystem(t, cfg)
	defer batch.Close()
	if _, err := batch.Ground(); err != nil {
		t.Fatal(err)
	}
	scores, err := batch.Infer()
	if err != nil {
		t.Fatal(err)
	}

	bong := datagen.EbolaCounties()[2]
	var pt queryResponse
	url := fmt.Sprintf("%s/v1/score/point?relation=HasEbola&x=%g&y=%g", ts.URL, bong.Loc.X, bong.Loc.Y)
	if code := getJSON(t, url, &pt); code != http.StatusOK {
		t.Fatalf("point status %d", code)
	}
	if len(pt.Atoms) != 1 {
		t.Fatalf("point atoms = %+v", pt.Atoms)
	}
	want := -1.0
	scores.Each("HasEbola", func(key string, _ factorgraph.VarID, m []float64) bool {
		if key == pt.Atoms[0].Key {
			want = m[1]
		}
		return want < 0
	})
	if got := pt.Atoms[0].Score; got != want || want <= 0 || want >= 1 {
		t.Errorf("served score %v, batch Infer score %v: want equal interior probabilities", got, want)
	}
}
