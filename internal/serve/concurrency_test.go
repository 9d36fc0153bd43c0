package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/geom"
	"repro/internal/gibbs/testutil"
	"repro/internal/storage"
)

// newGWDBSystem builds a small water-well KB with unlabeled wells to upsert.
func newGWDBSystem(t *testing.T, epochs int) (*core.System, *datagen.WellsData) {
	t.Helper()
	data := datagen.Wells(datagen.WellsConfig{N: 40, Seed: 12, Extent: 160})
	s := core.NewSystem(core.Config{
		Engine:           core.EngineSya,
		Metric:           geom.Euclidean,
		Bandwidth:        50,
		SupportRadius:    60,
		MaxNeighbors:     8,
		PyramidLevels:    5,
		Epochs:           epochs,
		Seed:             3,
		SkipFactorTables: true,
	})
	if err := s.LoadProgram(datagen.GWDBProgram); err != nil {
		t.Fatal(err)
	}
	wells, evidence := data.Rows()
	if err := s.LoadRows("Well", wells); err != nil {
		t.Fatal(err)
	}
	if err := s.LoadRows("WellEvidence", evidence); err != nil {
		t.Fatal(err)
	}
	return s, data
}

func unlabeledWells(data *datagen.WellsData, n int) []datagen.Well {
	var out []datagen.Well
	for _, w := range data.Wells {
		if !w.IsEvidence {
			out = append(out, w)
			if len(out) == n {
				break
			}
		}
	}
	return out
}

// TestConcurrentReadsAndUpserts drives N readers against a writer streaming
// evidence upserts; run under -race this is the server's data-race guard.
// The goroutine leak check covers the full lifecycle including shutdown.
func TestConcurrentReadsAndUpserts(t *testing.T) {
	check := testutil.GoroutineLeakCheck(t)
	sys, data := newGWDBSystem(t, 300)
	srv, err := New(sys, Options{Epochs: 200})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Warmup(context.Background(), 0); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())

	targets := unlabeledWells(data, 8)
	if len(targets) < 4 {
		t.Fatalf("only %d unlabeled wells", len(targets))
	}
	var wg sync.WaitGroup
	errs := make(chan error, 64)

	// Writer: sequential upserts, one unlabeled well at a time.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for _, w := range targets {
			up, code := postUpsertQuiet(ts.URL, "WellEvidence", [][]string{
				{fmt.Sprint(w.ID), storage.Geom(w.Loc).String(), fmt.Sprint(w.Safe)},
			})
			if code != http.StatusOK {
				errs <- fmt.Errorf("upsert status %d", code)
				return
			}
			if up.Structural {
				errs <- fmt.Errorf("upsert went structural: %+v", up)
				return
			}
		}
	}()

	// Readers: point, range, k-NN, and health, racing the writer.
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			w := data.Wells[r%len(data.Wells)]
			urls := []string{
				fmt.Sprintf("%s/v1/score/point?relation=IsSafe&x=%g&y=%g", ts.URL, w.Loc.X, w.Loc.Y),
				fmt.Sprintf("%s/v1/score/range?relation=IsSafe&minx=0&miny=0&maxx=200&maxy=200", ts.URL),
				fmt.Sprintf("%s/v1/score/knn?relation=IsSafe&x=%g&y=%g&k=5", ts.URL, w.Loc.X, w.Loc.Y),
				ts.URL + "/healthz",
			}
			for i := 0; i < 40; i++ {
				resp, err := http.Get(urls[i%len(urls)])
				if err != nil {
					errs <- err
					return
				}
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Errorf("reader %d: status %d on %s", r, resp.StatusCode, urls[i%len(urls)])
					return
				}
			}
		}(r)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	// Every upserted well now serves a point-mass score.
	for _, w := range targets {
		var resp queryResponse
		url := fmt.Sprintf("%s/v1/score/point?relation=IsSafe&x=%g&y=%g", ts.URL, w.Loc.X, w.Loc.Y)
		if code := getJSON(t, url, &resp); code != http.StatusOK || len(resp.Atoms) != 1 {
			t.Fatalf("point query after upserts: code %d, %+v", code, resp)
		}
		want := 0.0
		if w.Safe {
			want = 1.0
		}
		if resp.Atoms[0].Score != want {
			t.Errorf("well %d score = %f, want %g (pinned)", w.ID, resp.Atoms[0].Score, want)
		}
	}

	ts.Close()
	http.DefaultClient.CloseIdleConnections()
	srv.Close()
	check()
}

func jsonMarshal(v any) (io.Reader, error) {
	b, err := json.Marshal(v)
	return bytes.NewReader(b), err
}

func jsonDecode(r io.Reader, v any) error { return json.NewDecoder(r).Decode(v) }

// postUpsertQuiet is postUpsert without the testing.T plumbing, usable from
// racing goroutines.
func postUpsertQuiet(base, relation string, rows [][]string) (evidenceResponse, int) {
	var out evidenceResponse
	body, err := jsonMarshal(evidenceRequest{Relation: relation, Rows: rows})
	if err != nil {
		return out, 0
	}
	resp, err := http.Post(base+"/v1/evidence", "application/json", body)
	if err != nil {
		return out, 0
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		_ = jsonDecode(resp.Body, &out)
	}
	return out, resp.StatusCode
}

// TestNoStaleScoreAfterUpsert is the freshness guard: a score read before an
// upsert must not be served once the upsert resamples — the read after it
// sees the pin at the next generation.
func TestNoStaleScoreAfterUpsert(t *testing.T) {
	sys := newEbolaSystem(t, core.Config{Engine: core.EngineSya, Seed: 7, Epochs: 2000})
	srv, ts := startServer(t, sys, Options{})

	bong := datagen.EbolaCounties()[2]
	url := fmt.Sprintf("%s/v1/score/point?relation=HasEbola&x=%g&y=%g", ts.URL, bong.Loc.X, bong.Loc.Y)
	var before queryResponse
	if getJSON(t, url, &before) != http.StatusOK || len(before.Atoms) != 1 {
		t.Fatalf("pre-upsert query failed: %+v", before)
	}
	if before.Atoms[0].Score == 1 {
		t.Fatal("Bong already saturated; staleness would be unobservable")
	}
	if _, code := postUpsert(t, ts.URL, "CountyEvidence", [][]string{
		{"3", storage.Geom(bong.Loc).String(), "true"},
	}); code != http.StatusOK {
		t.Fatalf("upsert status %d", code)
	}
	var after queryResponse
	if getJSON(t, url, &after) != http.StatusOK {
		t.Fatal("post-upsert query failed")
	}
	if after.Atoms[0].Score != 1 {
		t.Errorf("post-upsert score = %f, want exactly 1 — stale score served", after.Atoms[0].Score)
	}
	if after.Generation != before.Generation+1 {
		t.Errorf("generation %d → %d, want +1", before.Generation, after.Generation)
	}
	_ = srv
}

// TestMidRequestCancellation cancels an upsert while its resample is
// running: the server must survive, keep serving, and leak no goroutines.
func TestMidRequestCancellation(t *testing.T) {
	check := testutil.GoroutineLeakCheck(t)
	sys, data := newGWDBSystem(t, 400)
	// A huge incremental budget so cancellation lands mid-inference.
	srv, err := New(sys, Options{Epochs: 50_000_000})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Warmup(context.Background(), 400); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())

	w := unlabeledWells(data, 1)[0]
	body, err := jsonMarshal(evidenceRequest{
		Relation: "WellEvidence",
		Rows:     [][]string{{fmt.Sprint(w.ID), storage.Geom(w.Loc).String(), "true"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/evidence", body)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	if resp, err := http.DefaultClient.Do(req); err == nil {
		// The sampler treats cancellation as a partial run, not an error,
		// so a fast machine may still answer 200 before the deadline.
		resp.Body.Close()
	}

	// The server is still alive and consistent after the abandoned request.
	// The handler may still be draining the cancelled upsert (health honestly
	// reports degraded while it does), so poll until it retires.
	var health healthResponse
	deadline := time.Now().Add(10 * time.Second)
	for {
		if code := getJSON(t, ts.URL+"/healthz", &health); code != http.StatusOK {
			t.Fatalf("health after cancellation: code %d, %+v", code, health)
		}
		if !health.Degraded || time.Now().After(deadline) {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if health.Status != "ok" {
		t.Fatalf("health after cancellation: %+v", health)
	}
	var resp queryResponse
	url := fmt.Sprintf("%s/v1/score/point?relation=IsSafe&x=%g&y=%g", ts.URL, w.Loc.X, w.Loc.Y)
	if code := getJSON(t, url, &resp); code != http.StatusOK || len(resp.Atoms) != 1 {
		t.Fatalf("query after cancellation: code %d, %+v", code, resp)
	}

	ts.Close()
	http.DefaultClient.CloseIdleConnections()
	srv.Close()
	check()
}
