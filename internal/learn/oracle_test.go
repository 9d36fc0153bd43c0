package learn

import (
	"context"
	"fmt"
	"math"
	"testing"

	"repro/internal/factorgraph"
	"repro/internal/geom"
	"repro/internal/gibbs"
	"repro/internal/gibbs/testutil"
)

// The gradient oracle: on graphs small enough to enumerate, the running
// averages Weights differences — per-rule satisfied counts and the spatial
// agreement, over the data chain (evidence clamped) and the model chain
// (everything free) — must land on the exact expectations at fixed weights.
const (
	oracleBurnIn  = 500
	oracleSweeps  = 40000
	oracleBatches = 40
	// oracleK is the tolerance in standard errors: |estimate − exact| ≤
	// k·σ/√N_eff, with σ/√N_eff estimated by batch means over
	// oracleBatches batches (which folds the chain's autocorrelation in).
	oracleK = 5.0
)

// oracleCase is one enumerable graph with its rule map: rule = factor kind.
type oracleCase struct {
	name       string
	g          *factorgraph.Graph
	factorRule []int32
}

const oracleRules = 5 // one per factor kind

func kindRules(g *factorgraph.Graph) []int32 {
	rules := make([]int32, g.NumFactors())
	for f := range rules {
		rules[f] = int32(g.FactorKindOf(int32(f)))
	}
	return rules
}

// oracleCases are the four harness shapes (≤ 8 variables) plus a 10-variable
// spatial chain whose spatial scale and rule weights were first learned by
// Weights itself.
func oracleCases(t *testing.T) []oracleCase {
	t.Helper()
	var cases []oracleCase
	for _, shape := range testutil.Shapes(611) {
		g, err := testutil.RandomGraph(shape.Spec)
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, oracleCase{shape.Name, g, kindRules(g)})
	}
	b := factorgraph.NewBuilder()
	for i := 0; i < 10; i++ {
		ev := factorgraph.NoEvidence
		if i%2 == 0 {
			ev = int32(i / 4 % 2)
		}
		if _, err := b.AddVariable(factorgraph.Variable{Domain: 2, Evidence: ev, HasLoc: true, Loc: geom.Pt(float64(i), 0)}); err != nil {
			t.Fatal(err)
		}
	}
	for i := int32(0); i+1 < 10; i++ {
		if err := b.AddSpatialPairs([]factorgraph.SpatialPair{{A: i, B: i + 1, W: 0.3}}); err != nil {
			t.Fatal(err)
		}
		if err := b.AddFactor(factorgraph.FactorImply, 0.2, []factorgraph.VarID{i, i + 1}, nil); err != nil {
			t.Fatal(err)
		}
	}
	for i := int32(0); i < 10; i += 3 {
		if err := b.AddFactor(factorgraph.FactorIsTrue, 0, []factorgraph.VarID{i}, nil); err != nil {
			t.Fatal(err)
		}
	}
	g, err := b.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	rules := kindRules(g)
	res, err := Weights(context.Background(), g, rules, oracleRules, Options{
		Iterations: 30, LearningRate: 0.3, LearnSpatialScale: true, Seed: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.SpatialScale == 1 {
		t.Fatal("the spatial scale did not move")
	}
	return append(cases, oracleCase{"learned-spatial-scale", g, rules})
}

// gradientStats fills out with one chain state's gradient statistics: n_r
// per rule, then Σ_s base_s · agreement_s.
func gradientStats(c oracleCase, base []float64, assign factorgraph.Assignment, out []float64) {
	countSatisfied(c.g, c.factorRule, assign, out[:oracleRules])
	out[oracleRules] = spatialAgreement(c.g, base, assign)
}

// exactGradientStats enumerates every assignment — of the query variables
// with evidence at its value (clamp), or of every variable — and returns the
// exact mean and standard deviation of each gradient statistic under the
// graph's current weights.
func exactGradientStats(c oracleCase, base []float64, clamp bool) (mean, sd []float64) {
	g := c.g
	assign := g.InitialAssignment()
	var free []factorgraph.VarID
	g.Vars(func(id factorgraph.VarID, v factorgraph.Variable) bool {
		if !clamp || v.Evidence == factorgraph.NoEvidence {
			free = append(free, id)
			assign[id] = 0
		}
		return true
	})
	stats := make([]float64, oracleRules+1)
	m1, m2 := make([]float64, len(stats)), make([]float64, len(stats))
	var z float64
	for {
		p := math.Exp(g.Energy(assign))
		z += p
		gradientStats(c, base, assign, stats)
		for i, s := range stats {
			m1[i] += p * s
			m2[i] += p * s * s
		}
		i := 0
		for ; i < len(free); i++ {
			v := free[i]
			if assign[v]++; assign[v] < g.DomainOf(v) {
				break
			}
			assign[v] = 0
		}
		if i == len(free) {
			break
		}
	}
	sd = make([]float64, len(stats))
	for i := range m1 {
		m1[i] /= z
		sd[i] = math.Sqrt(math.Max(0, m2[i]/z-m1[i]*m1[i]))
	}
	return m1, sd
}

// chainGradientStats runs one persistent chain at fixed weights and returns
// the running average of each gradient statistic and its batch-means
// standard error σ/√N_eff.
func chainGradientStats(t *testing.T, c oracleCase, base []float64, ch *gibbs.Sequential) (mean, se []float64) {
	sweep(t, ch, oracleBurnIn)
	stats := make([]float64, oracleRules+1)
	batch := make([][]float64, oracleBatches)
	per := oracleSweeps / oracleBatches
	for b := range batch {
		batch[b] = make([]float64, len(stats))
		for i := 0; i < per; i++ {
			sweep(t, ch, 1)
			gradientStats(c, base, ch.Assignment(), stats)
			for j, s := range stats {
				batch[b][j] += s / float64(per)
			}
		}
	}
	mean, se = make([]float64, len(stats)), make([]float64, len(stats))
	for j := range stats {
		for b := range batch {
			mean[j] += batch[b][j] / oracleBatches
		}
		var ss float64
		for b := range batch {
			ss += (batch[b][j] - mean[j]) * (batch[b][j] - mean[j])
		}
		se[j] = math.Sqrt(ss / (oracleBatches - 1) / oracleBatches)
	}
	return mean, se
}

// sweep advances one chain n sweeps.
func sweep(t *testing.T, ch *gibbs.Sequential, n int) {
	t.Helper()
	if _, err := ch.Run(context.Background(), n); err != nil {
		t.Fatal(err)
	}
}

// gradientErrors checks both chains of one case against enumeration and
// returns a description of every statistic outside the tolerance. model
// optionally replaces the model chain's programs (the mutation check).
func gradientErrors(t *testing.T, c oracleCase, model *factorgraph.Kernels) []string {
	base := make([]float64, c.g.NumSpatialFactors())
	for s := range base {
		_, _, base[s] = c.g.SpatialPair(int32(s))
	}
	data, free, _ := newChains(c.g, factorgraph.CompileKernels(c.g, false), 17)
	if model != nil {
		_, free, _ = newChains(c.g, model, 17)
	}
	var bad []string
	for _, side := range []struct {
		name  string
		ch    *gibbs.Sequential
		clamp bool
	}{{"data", data, true}, {"model", free, false}} {
		want, sd := exactGradientStats(c, base, side.clamp)
		got, se := chainGradientStats(t, c, base, side.ch)
		for j := range want {
			name := "spatial agreement"
			if j < oracleRules {
				name = "n_" + factorgraph.FactorKind(j).String()
			}
			neff := math.Inf(1)
			if se[j] > 0 {
				neff = sd[j] * sd[j] / (se[j] * se[j])
			}
			t.Logf("%s %s %s: chain %.4f, exact %.4f, σ %.3f, N_eff %.0f", c.name, side.name, name, got[j], want[j], sd[j], neff)
			if tol := oracleK*se[j] + 1e-9; math.Abs(got[j]-want[j]) > tol {
				bad = append(bad, fmt.Sprintf("%s %s E[%s] = %.4f, exact %.4f (tolerance %.4f)",
					c.name, side.name, name, got[j], want[j], tol))
			}
		}
	}
	return bad
}

// TestChainsMatchExactGradient is weight learning's oracle: at fixed weights
// the data and model chains Weights steps on estimate E_data[n_r] and
// E_model[n_r] (and the spatial-agreement term) within oracleK standard
// errors of enumeration, on the harness shapes and on a graph with a learned
// spatial scale. The mutation half scores the model chain with the graph's
// folded programs instead of the nothing-frozen set: the free model chain
// then samples from the wrong conditionals, and the oracle must notice.
func TestChainsMatchExactGradient(t *testing.T) {
	if testing.Short() {
		t.Skip("long-running convergence property")
	}
	cases := oracleCases(t)
	for _, c := range cases {
		for _, msg := range gradientErrors(t, c, nil) {
			t.Error(msg)
		}
	}
	caught := 0
	for _, c := range cases {
		caught += len(gradientErrors(t, c, c.g.Kernels()))
	}
	if caught == 0 {
		t.Error("scoring the model chain with the folded programs passed the oracle")
	}
}
