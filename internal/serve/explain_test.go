package serve

import (
	"bytes"
	"io"
	"net/http"
	"net/url"
	"os"
	"runtime"
	"testing"

	"repro/internal/cliutil"
	"repro/internal/core"
	"repro/internal/factorgraph"
	"repro/internal/geom"
)

// explainGoldenPath holds the /v1/explain bodies of two atoms of the
// checked-in EbolaKB fixture, before and after one upsert, as recorded on the
// commit whose explain still decoded the compiled general slab.
const explainGoldenPath = "testdata/explain_ebola.golden"

// explainGoldenBodies boots a server on .github/fixtures/ebola with the
// serve-smoke job's settings, explains the evidence county (1) and an
// unlabeled one (3), pins county 3 true through the API and explains both
// again. It returns the four raw response bodies, concatenated.
func explainGoldenBodies(t *testing.T) []byte {
	t.Helper()
	const fix = "../../.github/fixtures/ebola/"
	src, err := os.ReadFile(fix + "kb.ddlog")
	if err != nil {
		t.Fatal(err)
	}
	sys := core.NewSystem(core.Config{Engine: core.EngineSya, Metric: geom.HaversineMiles,
		Bandwidth: 60, Epochs: 2000, Seed: 1})
	if err := sys.LoadProgram(string(src)); err != nil {
		t.Fatal(err)
	}
	for rel, file := range map[string]string{"County": "county.csv", "CountyEvidence": "evidence.csv"} {
		if err := cliutil.LoadCSV(sys, rel, fix+file); err != nil {
			t.Fatal(err)
		}
	}
	_, ts := startServer(t, sys, Options{Epochs: 500})
	keys := []string{atomKeyAt(t, ts.URL, -10.80, 6.32), atomKeyAt(t, ts.URL, -9.45, 7.05)}
	var out bytes.Buffer
	explainAll := func() {
		for _, key := range keys {
			resp, err := http.Get(ts.URL + "/v1/explain?key=" + url.QueryEscape(key))
			if err != nil {
				t.Fatal(err)
			}
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("explain %q: status %d", key, resp.StatusCode)
			}
			io.Copy(&out, resp.Body)
			resp.Body.Close()
		}
	}
	explainAll()
	if up, code := postUpsert(t, ts.URL, "CountyEvidence", [][]string{{"3", "POINT (-9.45 7.05)", "true"}}); code != http.StatusOK || up.Pins != 1 {
		t.Fatalf("pin upsert = %+v (code %d)", up, code)
	}
	explainAll()
	return out.Bytes()
}

// TestExplainGoldenBodies holds /v1/explain to the recorded bodies byte for
// byte: factor kinds, endpoints, rules and live weights, and the sampler
// fields beside them, before and after an upsert.
func TestExplainGoldenBodies(t *testing.T) {
	want, err := os.ReadFile(explainGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	if got := explainGoldenBodies(t); !bytes.Equal(got, want) {
		t.Errorf("explain bodies differ from %s:\ngot:\n%s\nwant:\n%s", explainGoldenPath, got, want)
	}
}

// TestExplainCompilesNothing: explain decodes the atom's own incidence lists.
// On a served graph it leaves the kernels' footprint as compiled; on a graph
// nothing has compiled yet, its first call costs what every call costs —
// allocations and bytes in proportion to the atom's degree, not the graph's
// size.
func TestExplainCompilesNothing(t *testing.T) {
	sys, _ := newGWDBSystem(t, 50)
	srv, ts := startServer(t, sys, Options{})
	ground := srv.System().Grounding()
	before := ground.Graph.Kernels().Stats().SlabBytes
	n := 0
	for key := range ground.VarID {
		if _, code := getExplain(t, ts.URL, key); code != http.StatusOK {
			t.Fatalf("explain %q: status %d", key, code)
		}
		if n++; n == 5 {
			break
		}
	}
	if after := ground.Graph.Kernels().Stats().SlabBytes; after != before {
		t.Errorf("explain grew the kernels from %d to %d bytes", before, after)
	}

	batch, _ := newGWDBSystem(t, 50)
	defer batch.Close()
	fresh, err := batch.Ground()
	if err != nil {
		t.Fatal(err)
	}
	for _, vid := range []factorgraph.VarID{0, factorgraph.VarID(fresh.Graph.NumVars() - 1)} {
		degree := len(fresh.Graph.VarLogicalFactors(vid)) + len(fresh.Graph.VarSpatialPairs(vid))
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		explainFactors(fresh, vid)
		runtime.ReadMemStats(&m1)
		first, firstBytes := m1.Mallocs-m0.Mallocs, m1.TotalAlloc-m0.TotalAlloc
		steady := testing.AllocsPerRun(20, func() { explainFactors(fresh, vid) })
		t.Logf("var %d: degree %d, first call %d allocs / %d bytes, steady %.0f allocs; graph %d vars",
			vid, degree, first, firstBytes, steady, fresh.Graph.NumVars())
		if bound := uint64(2 + degree); first > bound || steady > float64(bound) {
			t.Errorf("var %d: %d / %.0f allocations for %d incidences, want ≤ %d", vid, first, steady, degree, bound)
		}
		if bound := uint64(160 * (degree + 1)); firstBytes > bound {
			t.Errorf("var %d: first explain allocated %d bytes for %d incidences, want ≤ %d", vid, firstBytes, degree, bound)
		}
	}
}
