// Package testutil is the statistical correctness harness for the samplers
// in internal/gibbs: deterministic random-graph generators covering the
// four canonical shapes (binary and categorical variables, with and without
// spatial factors), total-variation-distance metrics, and exact ground
// truth via factorgraph.ExactMarginals. Sampler tests iterate Shapes and
// assert that every sampler's marginals land within a TV tolerance of the
// exact distribution — the guard that makes performance rewrites of the
// sampler core safe.
package testutil

import (
	"fmt"

	"repro/internal/factorgraph"
	"repro/internal/geom"
)

// Rand is a splitmix64 generator for deterministic graph synthesis.
type Rand struct{ state uint64 }

// NewRand seeds a generator.
func NewRand(seed uint64) *Rand { return &Rand{state: seed} }

// Next returns the next raw 64-bit value.
func (r *Rand) Next() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Float64 returns a uniform value in [0, 1).
func (r *Rand) Float64() float64 { return float64(r.Next()>>11) / (1 << 53) }

// Intn returns a uniform value in [0, n) (test-grade; modulo bias is
// irrelevant at these magnitudes).
func (r *Rand) Intn(n int) int { return int(r.Next() % uint64(n)) }

// Spec configures RandomGraph. The defaults (applied by RandomGraph for
// zero fields) keep the state space well inside exact-enumeration range.
type Spec struct {
	// Vars is the number of variables. Default 8 (binary) or 6 (categorical).
	Vars int
	// Domain is the per-variable domain size. Default 2.
	Domain int32
	// Spatial attaches locations to every variable and generates
	// SpatialPairs spatial factors. Without it the graph is logical-only.
	Spatial bool
	// EvidencePer1000 is the expected evidence fraction in ‰. Default 200.
	EvidencePer1000 int
	// LogicalFactors is the number of random logical factors. Default Vars+2.
	LogicalFactors int
	// SpatialPairs is the number of spatial factors attempted (duplicates
	// are skipped). Default Vars.
	SpatialPairs int
	// PruneMask installs a co-occurrence pruning mask for categorical
	// spatial pairs (Section IV-C): value pairs with (i+j) ≡ 2 (mod Domain)
	// are pruned.
	PruneMask bool
	// Seed drives the synthesis.
	Seed uint64
}

func (s Spec) withDefaults() Spec {
	if s.Domain == 0 {
		s.Domain = 2
	}
	if s.Vars == 0 {
		if s.Domain > 2 {
			s.Vars = 6
		} else {
			s.Vars = 8
		}
	}
	if s.EvidencePer1000 == 0 {
		s.EvidencePer1000 = 200
	}
	if s.LogicalFactors == 0 {
		s.LogicalFactors = s.Vars + 2
	}
	if s.SpatialPairs == 0 {
		s.SpatialPairs = s.Vars
	}
	return s
}

// RandomGraph synthesizes a graph from the spec: variables (a random subset
// observed), mixed-kind logical factors with weights in [-1, 1), and — for
// spatial specs — locations in [0, 100)² with spatial pairs weighted in
// [0, 0.8). At least one variable is always left as a query variable.
func RandomGraph(spec Spec) (*factorgraph.Graph, error) {
	spec = spec.withDefaults()
	rng := NewRand(spec.Seed)
	b := factorgraph.NewBuilder()
	if spec.PruneMask {
		h := spec.Domain
		mask := make([]bool, h*h)
		for i := int32(0); i < h; i++ {
			for j := int32(0); j < h; j++ {
				mask[i*h+j] = (i+j)%h != 2%h
			}
		}
		if err := b.SetAllowedPairs(0, h, mask); err != nil {
			return nil, err
		}
	}
	queries := 0
	for i := 0; i < spec.Vars; i++ {
		ev := factorgraph.NoEvidence
		if rng.Intn(1000) < spec.EvidencePer1000 && !(queries == 0 && i == spec.Vars-1) {
			ev = int32(rng.Intn(int(spec.Domain)))
		} else {
			queries++
		}
		v := factorgraph.Variable{
			Name:     fmt.Sprintf("v%d", i),
			Domain:   spec.Domain,
			Evidence: ev,
		}
		if spec.Spatial {
			v.HasLoc = true
			v.Loc = geom.Pt(rng.Float64()*100, rng.Float64()*100)
		}
		if _, err := b.AddVariable(v); err != nil {
			return nil, err
		}
	}
	kinds := []factorgraph.FactorKind{
		factorgraph.FactorImply, factorgraph.FactorAnd,
		factorgraph.FactorOr, factorgraph.FactorEqual,
	}
	for f := 0; f < spec.LogicalFactors; f++ {
		a := factorgraph.VarID(rng.Intn(spec.Vars))
		c := factorgraph.VarID(rng.Intn(spec.Vars))
		if a == c {
			if err := b.AddFactor(factorgraph.FactorIsTrue,
				rng.Float64()*2-1, []factorgraph.VarID{a}, nil); err != nil {
				return nil, err
			}
			continue
		}
		neg := []bool{rng.Intn(4) == 0, rng.Intn(4) == 0}
		if err := b.AddFactor(kinds[rng.Intn(len(kinds))],
			rng.Float64()*2-1, []factorgraph.VarID{a, c}, neg); err != nil {
			return nil, err
		}
	}
	if spec.Spatial {
		var pairs []factorgraph.SpatialPair
		seen := map[[2]factorgraph.VarID]bool{}
		for s := 0; s < spec.SpatialPairs; s++ {
			a := factorgraph.VarID(rng.Intn(spec.Vars))
			c := factorgraph.VarID(rng.Intn(spec.Vars))
			if a == c {
				continue
			}
			// Duplicate pairs are a legal collision of the generator; the
			// weight is drawn either way, so the stream stays put.
			w := rng.Float64() * 0.8
			if key := [2]factorgraph.VarID{min(a, c), max(a, c)}; !seen[key] {
				seen[key] = true
				pairs = append(pairs, factorgraph.SpatialPair{A: a, B: c, W: w})
			}
		}
		if err := b.AddSpatialPairs(pairs); err != nil {
			return nil, err
		}
	}
	return b.Finalize()
}

// Shape names one canonical harness configuration.
type Shape struct {
	Name string
	Spec Spec
}

// Shapes returns the four canonical graph shapes of the harness — the
// binary/categorical × logical-only/spatial grid — seeded from base.
func Shapes(base uint64) []Shape {
	return []Shape{
		{Name: "binary-logical", Spec: Spec{Domain: 2, Seed: base + 1}},
		{Name: "binary-spatial", Spec: Spec{Domain: 2, Spatial: true, Seed: base + 2}},
		{Name: "categorical-logical", Spec: Spec{Domain: 3, Seed: base + 3}},
		{Name: "categorical-spatial", Spec: Spec{Domain: 3, Spatial: true, PruneMask: true, Seed: base + 4}},
	}
}

// TV returns the total-variation distance between two distributions over
// the same domain: ½·Σ|p−q| ∈ [0, 1].
func TV(p, q []float64) float64 {
	var d float64
	for i := range p {
		if p[i] > q[i] {
			d += p[i] - q[i]
		} else {
			d += q[i] - p[i]
		}
	}
	return d / 2
}

// MaxTV returns the worst per-variable total-variation distance between two
// marginal sets.
func MaxTV(got, want [][]float64) float64 {
	var worst float64
	for v := range got {
		if d := TV(got[v], want[v]); d > worst {
			worst = d
		}
	}
	return worst
}

// Exact computes ground-truth marginals with a generous enumeration cap
// suited to harness-sized graphs.
func Exact(g *factorgraph.Graph) ([][]float64, error) {
	return factorgraph.ExactMarginals(g, 1<<22)
}

// KeyedMaxTV compares two marginal sets keyed by ground-atom key — the shape
// two independently grounded systems produce, where VarIDs are not
// comparable but atom keys are. It returns the worst per-atom
// total-variation distance and the atom it occurs at; keys present in only
// one map are an error.
func KeyedMaxTV(got, want map[string][]float64) (float64, string, error) {
	if len(got) != len(want) {
		return 0, "", fmt.Errorf("testutil: %d atoms vs %d", len(got), len(want))
	}
	var worst float64
	var worstKey string
	for key, g := range got {
		w, ok := want[key]
		if !ok {
			return 0, "", fmt.Errorf("testutil: atom %q missing from reference", key)
		}
		if d := TV(g, w); d > worst {
			worst, worstKey = d, key
		}
	}
	return worst, worstKey, nil
}
