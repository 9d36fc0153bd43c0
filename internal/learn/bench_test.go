package learn_test

import (
	"context"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/geom"
	"repro/internal/learn"
)

// BenchmarkLearnIteration times one Weights iteration — two sweeps of the
// data chain and of the free model chain (the sampler engine's sequential
// schedule, both on one nothing-frozen program set, refolded once per
// iteration), the gradient counts and the weight write-back — on the
// 600-well GWDB graph the grounding goldens use. One call runs b.N
// iterations, so the chains' set-up (program compile, assignments, counters)
// is amortized away; the sweeps themselves allocate nothing.
func BenchmarkLearnIteration(b *testing.B) {
	data := datagen.Wells(datagen.WellsConfig{
		N: 600, Seed: 1, Extent: 600, Clusters: 12, Bumps: 15, CorrelationLength: 100,
	})
	sys := core.NewSystem(core.Config{
		Engine: core.EngineSya, Metric: geom.Euclidean, Bandwidth: 30, SpatialScale: 0.5,
		SupportRadius: 75, MaxNeighbors: 40, PyramidLevels: 6, Seed: 1,
	})
	defer sys.Close()
	if err := sys.LoadProgram(datagen.GWDBProgram); err != nil {
		b.Fatal(err)
	}
	wells, evidence := data.Rows()
	if err := sys.LoadRows("Well", wells); err != nil {
		b.Fatal(err)
	}
	if err := sys.LoadRows("WellEvidence", evidence); err != nil {
		b.Fatal(err)
	}
	res, err := sys.Ground()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	out, err := learn.Weights(context.Background(), res.Graph, res.FactorRule, len(res.RuleNames),
		learn.Options{Iterations: b.N, LearnSpatialScale: true, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	if math.IsNaN(out.SpatialScale) {
		b.Fatal("learning diverged")
	}
}
