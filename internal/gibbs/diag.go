package gibbs

import (
	"repro/internal/factorgraph"
)

// DiagStats is one convergence-diagnostic reading, taken at an epoch
// barrier. Two complementary signals:
//
//   - MaxDelta: the largest absolute change of any merged marginal entry
//     P(v=x) since the previous reading. A chain that has mixed moves its
//     running marginals very little between barriers, so MaxDelta → 0.
//   - Spread: the largest disagreement between the K sampler instances on
//     any marginal entry (max over (v,x) of max_k m_k − min_k m_k). This is
//     the cross-chain analogue of a Gelman–Rubin check: independent chains
//     that have converged to the stationary distribution agree; a large
//     spread means at least one chain is still in a different region.
//     Samplers with a single chain (hogwild, sequential) report 0.
type DiagStats struct {
	// Epoch is the sampler lifetime epoch the reading was taken at.
	Epoch int
	// MaxDelta is the running-marginal max change since the last reading.
	MaxDelta float64
	// Spread is the cross-instance marginal disagreement at this reading.
	Spread float64
}

// Progress is delivered to the callback installed with SetProgress after
// every diagnostic epoch.
type Progress struct {
	// Sampler is the variant name ("spatial", "hogwild", "sequential").
	Sampler string
	// Epoch is the sampler lifetime epoch of this reading.
	Epoch int
	// Diag is the convergence reading at that epoch.
	Diag DiagStats
}

// diagTracker computes DiagStats readings from the chains' raw counters.
// The previous merged marginals live in one flat slice seeded from the
// pre-sampling state (point mass for evidence, uniform for query
// variables) so the first reading measures movement away from the prior;
// update overwrites it in place, keeping readings allocation-free.
type diagTracker struct {
	g    *factorgraph.Graph
	prev []float64 // flattened prev merged marginals
	off  []int32   // per variable: offset into prev; len = NumVars()+1
}

func newDiagTracker(g *factorgraph.Graph) *diagTracker {
	n := g.NumVars()
	t := &diagTracker{g: g, off: make([]int32, n+1)}
	for i := 0; i < n; i++ {
		t.off[i+1] = t.off[i] + g.Var(factorgraph.VarID(i)).Domain
	}
	t.prev = make([]float64, t.off[n])
	for i := 0; i < n; i++ {
		copy(t.prev[t.off[i]:t.off[i+1]], g.PriorMarginal(factorgraph.VarID(i)))
	}
	return t
}

// update takes a reading at the given epoch from the chains' counters
// (spatial passes its K instance counters; single-chain samplers pass one).
// Evidence variables are skipped — their marginals are pinned. A variable a
// chain has not counted yet (burn-in, or pinned mid-run) reads as uniform,
// matching Marginals. The merged marginals overwrite prev in place.
func (t *diagTracker) update(epoch int, chains []*counts) DiagStats {
	d := DiagStats{Epoch: epoch}
	n := t.g.NumVars()
	for i := 0; i < n; i++ {
		v := t.g.Var(factorgraph.VarID(i))
		if v.Evidence != factorgraph.NoEvidence {
			continue
		}
		dom := int(v.Domain)
		inv := 1 / float64(dom)
		var mergedTotal int64
		for _, ch := range chains {
			mergedTotal += ch.totals[i]
		}
		base := int(t.off[i])
		for x := 0; x < dom; x++ {
			// Merged marginal across all chains (uniform before any counts).
			cur := inv
			if mergedTotal != 0 {
				var c int64
				for _, ch := range chains {
					c += ch.c[i][x]
				}
				cur = float64(c) / float64(mergedTotal)
			}
			if delta := cur - t.prev[base+x]; delta > d.MaxDelta {
				d.MaxDelta = delta
			} else if -delta > d.MaxDelta {
				d.MaxDelta = -delta
			}
			t.prev[base+x] = cur
			// Cross-instance spread on this entry.
			if len(chains) > 1 {
				lo, hi := 1.0, 0.0
				for _, ch := range chains {
					m := inv
					if ch.totals[i] != 0 {
						m = float64(ch.c[i][x]) / float64(ch.totals[i])
					}
					if m < lo {
						lo = m
					}
					if m > hi {
						hi = m
					}
				}
				if s := hi - lo; s > d.Spread {
					d.Spread = s
				}
			}
		}
	}
	return d
}
