package serve

// Tests for the one read view: the live and the degraded path answer through
// the same view type, so for one generation they must agree on everything but
// the fields only the live sampler can fill; and every served score is
// core.ScoreOf of the marginal served beside it.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"testing"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/geom"
)

// getBody fetches url and returns its status and raw body.
func getBody(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body
}

// withoutFields re-encodes a JSON object body with the named top-level
// fields removed (json.Marshal sorts the remaining keys).
func withoutFields(t *testing.T, body []byte, fields ...string) []byte {
	t.Helper()
	var m map[string]json.RawMessage
	if err := json.Unmarshal(body, &m); err != nil {
		t.Fatalf("decoding %s: %v", body, err)
	}
	for _, f := range fields {
		delete(m, f)
	}
	out, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestDegradedViewMatchesLive forces the degraded path for one generation —
// publishStale under the write lock, as an upsert does — and holds every
// read endpoint to the live answer, byte for byte, apart from the stale flag
// and the live-only fields.
func TestDegradedViewMatchesLive(t *testing.T) {
	sys, data := newGWDBSystem(t, 200)
	srv, ts := startServer(t, sys, Options{})
	w := data.Wells[0]
	key := srv.System().Grounding().Keys[0]

	cases := []struct {
		name string
		url  string
		// liveOnly are the fields a stale answer may not (or need not) carry
		// identically: the stale marker itself and what only the live
		// sampler knows.
		liveOnly []string
	}{
		{"point", fmt.Sprintf("%s/v1/score/point?relation=IsSafe&x=%g&y=%g", ts.URL, w.Loc.X, w.Loc.Y), []string{"stale"}},
		{"range", ts.URL + "/v1/score/range?relation=IsSafe&minx=0&miny=0&maxx=200&maxy=200", []string{"stale"}},
		{"knn", fmt.Sprintf("%s/v1/score/knn?relation=IsSafe&x=%g&y=%g&k=5", ts.URL, w.Loc.X, w.Loc.Y), []string{"stale"}},
		{"explain", ts.URL + "/v1/explain?key=" + url.QueryEscape(key), []string{"stale", "pinned", "conclique"}},
		{"healthz", ts.URL + "/healthz", []string{"status", "degraded"}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			code, live := getBody(t, c.url)
			if code != http.StatusOK {
				t.Fatalf("live status %d: %s", code, live)
			}
			srv.mu.Lock()
			srv.publishStale()
			code, stale := getBody(t, c.url)
			srv.degraded.Store(nil)
			srv.mu.Unlock()
			if code != http.StatusOK {
				t.Fatalf("degraded status %d: %s", code, stale)
			}
			if !bytes.Contains(stale, []byte(`"stale":true`)) && !bytes.Contains(stale, []byte(`"degraded":true`)) {
				t.Fatalf("answer under the write lock is not marked degraded: %s", stale)
			}
			if got, want := withoutFields(t, stale, c.liveOnly...), withoutFields(t, live, c.liveOnly...); !bytes.Equal(got, want) {
				t.Errorf("degraded answer differs from live:\ngot  %s\nwant %s", got, want)
			}
		})
	}
}

// TestCategoricalScoreIsModal: for a categorical atom the factual score is
// its modal probability, on the full path and in explain alike — the same
// reduction the lazy path reports.
func TestCategoricalScoreIsModal(t *testing.T) {
	const h = 10
	data := datagen.Wells(datagen.WellsConfig{N: 40, Seed: 12, Extent: 160})
	sys := core.NewSystem(core.Config{
		Engine:        core.EngineSya,
		Metric:        geom.Euclidean,
		Bandwidth:     50,
		SupportRadius: 60,
		MaxNeighbors:  8,
		PyramidLevels: 5,
		Epochs:        200,
		Seed:          3,
	})
	if err := sys.LoadProgram(datagen.GWDBCategoricalProgram); err != nil {
		t.Fatal(err)
	}
	wells, _ := data.Rows()
	if err := sys.LoadRows("Well", wells); err != nil {
		t.Fatal(err)
	}
	if err := sys.LoadRows("LevelEvidence", data.LevelRows(h)); err != nil {
		t.Fatal(err)
	}
	_, ts := startServer(t, sys, Options{})

	var rng queryResponse
	if code := getJSON(t, ts.URL+"/v1/score/range?relation=RiskLevel&minx=0&miny=0&maxx=200&maxy=200", &rng); code != http.StatusOK {
		t.Fatalf("range status %d", code)
	}
	if len(rng.Atoms) != len(data.Wells) {
		t.Fatalf("range returned %d atoms for %d wells", len(rng.Atoms), len(data.Wells))
	}
	notSecond := 0
	for _, a := range rng.Atoms {
		if len(a.Marginal) != h {
			t.Fatalf("%s: marginal over %d values, want %d", a.Key, len(a.Marginal), h)
		}
		if want := core.ScoreOf(a.Marginal); a.Score != want {
			t.Errorf("range %s: score %v, ScoreOf(marginal) %v", a.Key, a.Score, want)
		}
		if a.Marginal[1] != core.ScoreOf(a.Marginal) {
			notSecond++
		}
		ex, code := getExplain(t, ts.URL, a.Key)
		if code != http.StatusOK {
			t.Fatalf("explain %q: status %d", a.Key, code)
		}
		if want := core.ScoreOf(ex.Marginal); ex.Score != want {
			t.Errorf("explain %s: score %v, ScoreOf(marginal) %v", a.Key, ex.Score, want)
		}
	}
	if notSecond == 0 {
		t.Fatal("every atom's mode is value 1: the fixture cannot tell marginal[1] from the modal score")
	}
}
