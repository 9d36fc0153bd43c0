package gibbs_test

import (
	"bytes"
	"context"
	"encoding/binary"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/factorgraph"
	"repro/internal/gibbs"
	"repro/internal/gibbs/testutil"
)

// chainGoldens pins chain identity across commits: every other test checks a
// property within one build (determinism, resume, compiled≡interpreted), so
// a refactor that changes every chain the same way passes them all. Each
// entry is marginalHash after 40 epochs with burn-in 4 (run), and after the
// variant's follow-up step (more; see goldenMore). The constants and the
// testdata/*.ckpt fixtures were recorded at commit 258f4b8, before the three
// samplers became schedules of one engine; a mismatch means the sampling
// program changed, not that the constants need refreshing.
var chainGoldens = map[string]struct{ run, more uint64 }{
	"binary-logical/sequential":      {0x189c0c15649d3a89, 0},
	"binary-logical/hogwild":         {0x172cf45144c447eb, 0xac7fe37cb024fbf0},
	"binary-logical/spatial":         {0xc0afce46a1e6ab24, 0},
	"binary-spatial/sequential":      {0x4231bf5feb4232db, 0},
	"binary-spatial/hogwild":         {0x8f43597aa2aa6b95, 0x9781b7de4c269c87},
	"binary-spatial/spatial":         {0xf0d9a98e384a3c4c, 0x9e16c273b7d4641a},
	"categorical-logical/sequential": {0x38894d75427cf5e7, 0},
	"categorical-logical/hogwild":    {0xc004b51834c37f8b, 0x92cd0a6acd6992bb},
	"categorical-logical/spatial":    {0x71fd2dec1cbd7311, 0},
	"categorical-spatial/sequential": {0xd131dec53c7c88a7, 0},
	"categorical-spatial/hogwild":    {0xb465e013af11c308, 0x9c71bc29319cc2ec},
	"categorical-spatial/spatial":    {0xa34be2d97ef50ca2, 0xe93db8c0e0b4d3e6},
	"spatial-300/sequential":         {0x8d047cf574376f69, 0},
	"spatial-300/hogwild":            {0xa1d43709680d6f77, 0xbc2772ecaac6a04a},
	"spatial-300/spatial":            {0xcf3a87545302fe78, 0x5ccb295d8f13b5d7},
}

// goldenFixtureGraph is the graph the checked-in epoch-20 checkpoints were
// taken on: categorical, with both scheduled cells and a serial tail.
const goldenFixtureGraph = "categorical-spatial"

// marginalHash is FNV-64a over the IEEE bits of every marginal entry.
func marginalHash(m [][]float64) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, row := range m {
		for _, p := range row {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(p))
			h.Write(b[:])
		}
	}
	return h.Sum64()
}

// goldenGraphs returns the four canonical harness shapes (6–8 variables: one
// hogwild bucket, a handful of cells) plus a 300-variable spatial graph that
// spans several buckets and every conclique of several pyramid levels.
func goldenGraphs() []testutil.Shape {
	return append(testutil.Shapes(900),
		testutil.Shape{Name: "spatial-300", Spec: testutil.Spec{Vars: 300, Spatial: true, Seed: 905}})
}

// goldenSampler builds one variant with burn-in 4 at the pinned seeds.
func goldenSampler(t *testing.T, kind string, g *factorgraph.Graph) gibbs.Sampler {
	t.Helper()
	switch kind {
	case "sequential":
		s := gibbs.NewSequential(g, 7)
		s.SetBurnIn(4)
		return s
	case "hogwild":
		h := gibbs.NewHogwild(g, 7, 1)
		h.SetBurnIn(4)
		return h
	default:
		s, err := gibbs.NewSpatial(g, gibbs.SpatialOptions{Instances: 2, Workers: 1, Seed: 7, BurnIn: 4})
		if err != nil {
			t.Fatalf("NewSpatial: %v", err)
		}
		return s
	}
}

// goldenMore runs the variant's follow-up step after the 40-epoch run and
// reports whether it has one: hogwild moves its burn-in window on a live
// chain (epochs 40–44 sampled but discarded, 45–49 counted); spatial pins
// the first and last query variables and resamples incrementally. Spatial
// over a graph without located atoms has none: RunIncremental panicked there
// at the recording commit (TestRunIncrementalWithoutSpatialAtoms covers it).
func goldenMore(t *testing.T, s gibbs.Sampler, g *factorgraph.Graph) bool {
	t.Helper()
	switch s := s.(type) {
	case *gibbs.Hogwild:
		s.SetBurnIn(45)
		s.RunEpochs(10)
		return true
	case *gibbs.Spatial:
		if s.Pyramid() == nil {
			return false
		}
		var query []factorgraph.VarID
		for i := 0; i < g.NumVars(); i++ {
			if g.Var(factorgraph.VarID(i)).Evidence == factorgraph.NoEvidence {
				query = append(query, factorgraph.VarID(i))
			}
		}
		first, last := query[0], query[len(query)-1]
		if err := s.UpdateEvidence(first, g.Var(first).Domain-1); err != nil {
			t.Fatal(err)
		}
		if err := s.UpdateEvidence(last, 0); err != nil {
			t.Fatal(err)
		}
		if _, err := s.RunIncrementalContext(context.Background(), 10); err != nil {
			t.Fatal(err)
		}
		return true
	}
	return false
}

func TestChainGoldens(t *testing.T) {
	for _, sh := range goldenGraphs() {
		g, err := testutil.RandomGraph(sh.Spec)
		if err != nil {
			t.Fatal(err)
		}
		for _, kind := range []string{"sequential", "hogwild", "spatial"} {
			name := sh.Name + "/" + kind
			t.Run(name, func(t *testing.T) {
				want, ok := chainGoldens[name]
				if !ok {
					t.Errorf("no golden recorded for %s", name)
				}
				s := goldenSampler(t, kind, g)
				defer s.Close()
				s.RunEpochs(20)
				if sh.Name == goldenFixtureGraph {
					checkGoldenFixture(t, kind, g, s, want.run)
				}
				s.RunEpochs(20)
				if got := marginalHash(s.Marginals()); got != want.run {
					t.Errorf("40-epoch chain hash = %#016x, want %#016x", got, want.run)
				}
				if goldenMore(t, s, g) {
					if got := marginalHash(s.Marginals()); got != want.more {
						t.Errorf("follow-up chain hash = %#016x, want %#016x", got, want.more)
					}
				}
			})
		}
	}
}

// checkGoldenFixture checks both directions of checkpoint compatibility
// against the checked-in epoch-20 file: s (at epoch 20) must serialise to
// exactly those bytes, and a fresh sampler restored from them must finish
// the run on the same 40-epoch hash.
func checkGoldenFixture(t *testing.T, kind string, g *factorgraph.Graph, s gibbs.Sampler, want uint64) {
	t.Helper()
	path := filepath.Join("testdata", kind+".ckpt")
	fixture, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := s.Snapshot().WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), fixture) {
		t.Errorf("epoch-20 snapshot (%d bytes) differs from %s (%d bytes)", buf.Len(), path, len(fixture))
	}
	r := goldenSampler(t, kind, g)
	defer r.Close()
	if _, err := gibbs.ResumeFrom(r, path); err != nil {
		t.Fatalf("restoring %s: %v", path, err)
	}
	r.RunEpochs(20)
	if got := marginalHash(r.Marginals()); got != want {
		t.Errorf("resumed from %s: 40-epoch chain hash = %#016x, want %#016x", path, got, want)
	}
}
