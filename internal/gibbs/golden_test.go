package gibbs_test

import (
	"context"
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"

	"repro/internal/factorgraph"
	"repro/internal/gibbs"
	"repro/internal/gibbs/testutil"
)

// chainGoldens pins chain identity across commits: every other test checks a
// property within one build (determinism, K and worker invariance,
// compiled≡interpreted), so a refactor that changes every chain the same way
// passes them all. Each entry is marginalHash after 40 epochs with burn-in 4
// (run), after the variant's follow-up step (more; see goldenMore), and
// stateHash of the chains at epoch 20 (state). The run and more constants
// were recorded at commit 258f4b8, before the three samplers became
// schedules of one engine; the state constants later, on the same program,
// where the three categorical-spatial ones equal the hash of the epoch-20
// chain files 258f4b8 checked in and replace them. A mismatch means the
// sampling program changed, not that the constants need refreshing.
var chainGoldens = map[string]struct{ run, more, state uint64 }{
	"binary-logical/sequential":      {0x189c0c15649d3a89, 0, 0x0ea62cbfde56447b},
	"binary-logical/hogwild":         {0x172cf45144c447eb, 0xac7fe37cb024fbf0, 0x7f19d84f816d105a},
	"binary-logical/spatial":         {0xc0afce46a1e6ab24, 0, 0xe8a07cbcedc44720},
	"binary-spatial/sequential":      {0x4231bf5feb4232db, 0, 0x7ac70ab64bb9a331},
	"binary-spatial/hogwild":         {0x8f43597aa2aa6b95, 0x9781b7de4c269c87, 0x3cfcc356b63ca570},
	"binary-spatial/spatial":         {0xf0d9a98e384a3c4c, 0x9e16c273b7d4641a, 0x6029513a65b629c1},
	"categorical-logical/sequential": {0x38894d75427cf5e7, 0, 0x226023c10f1be531},
	"categorical-logical/hogwild":    {0xc004b51834c37f8b, 0x92cd0a6acd6992bb, 0xbe5caa15b7a7c917},
	"categorical-logical/spatial":    {0x71fd2dec1cbd7311, 0, 0xa0c2494d4f78566f},
	"categorical-spatial/sequential": {0xd131dec53c7c88a7, 0, 0xf1cc3e4a1181f85a},
	"categorical-spatial/hogwild":    {0xb465e013af11c308, 0x9c71bc29319cc2ec, 0x6caa346a266e25f9},
	"categorical-spatial/spatial":    {0xa34be2d97ef50ca2, 0xe93db8c0e0b4d3e6, 0x67c371950bac5c07},
	"spatial-300/sequential":         {0x8d047cf574376f69, 0, 0x43b52981ad8822fb},
	"spatial-300/hogwild":            {0xa1d43709680d6f77, 0xbc2772ecaac6a04a, 0x78284827bbb984e1},
	"spatial-300/spatial":            {0xcf3a87545302fe78, 0x5ccb295d8f13b5d7, 0xc7a5c2852123cd22},
}

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

// stateHash is FNV-64a over every chain's epoch index, assignment and count
// rows, in instance order.
func stateHash(chains []gibbs.ChainState) uint64 {
	h := fnv.New64a()
	var b [8]byte
	put := func(x uint64) {
		binary.LittleEndian.PutUint64(b[:], x)
		h.Write(b[:])
	}
	for _, c := range chains {
		put(uint64(c.Epochs))
		for _, x := range c.Assign {
			put(uint64(uint32(x)))
		}
		for _, row := range c.Counts {
			for _, n := range row {
				put(uint64(n))
			}
		}
	}
	return h.Sum64()
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
				if got := stateHash(gibbs.ChainStates(s)); got != want.state {
					t.Errorf("epoch-20 chain state hash = %#016x, want %#016x", got, want.state)
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
