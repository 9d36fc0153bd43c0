// Package stats implements the paper's evaluation metrics (Section VI-A):
//
//   - Precision: correctly inferred factual scores (within a 0.1 error of
//     the ground truth, or inside a ground-truth range as in Fig. 1) over
//     all scores the system commits to;
//   - Recall: correctly inferred scores over all scores that should be
//     predicted according to the evidence data;
//   - F1: their harmonic mean;
//   - average Kullback–Leibler divergence between estimated and true
//     marginal distributions (Fig. 14).
//
// The paper does not spell out when precision and recall denominators
// differ; this implementation makes the conventional choice explicit: a
// score is *committed* when it is at least DecisionMargin away from the
// indifferent 0.5 (margin 0 commits everything, making precision equal
// recall when every variable has ground truth), and the recall denominator
// is every variable carrying ground truth.
package stats

import (
	"fmt"
	"math"
)

// TruthRange is a ground-truth factual-score range; a point truth has
// Lo == Hi (the WHO infection-rate ranges of Fig. 1 motivate ranges).
type TruthRange struct {
	Lo, Hi float64
}

// Point returns a degenerate range.
func Point(v float64) TruthRange { return TruthRange{Lo: v, Hi: v} }

// Contains reports whether a score falls within the range widened by tol on
// both sides (the paper's "within 0.1 error" criterion).
func (r TruthRange) Contains(score, tol float64) bool {
	return score >= r.Lo-tol && score <= r.Hi+tol
}

// Options configures metric computation.
type Options struct {
	// Tolerance is the allowed score error. The paper uses 0.1.
	Tolerance float64
	// DecisionMargin: scores within this distance of 0.5 are treated as
	// abstentions and excluded from the precision denominator.
	DecisionMargin float64
}

// DefaultOptions matches the paper's setup (0.1 tolerance) with a small
// decision margin.
func DefaultOptions() Options {
	return Options{Tolerance: 0.1, DecisionMargin: 0.05}
}

// Example pairs one predicted factual score with its ground truth.
type Example struct {
	Score float64
	Truth TruthRange
	// HasTruth marks variables with usable ground truth (the recall
	// denominator).
	HasTruth bool
}

// Report holds the quality metrics of one run.
type Report struct {
	Precision float64
	Recall    float64
	F1        float64
	Committed int
	Expected  int
	Correct   int
}

// Evaluate computes precision, recall and F1 over the examples.
func Evaluate(examples []Example, opts Options) Report {
	var committed, expected, correctCommitted, correctExpected int
	for _, e := range examples {
		if !e.HasTruth {
			continue
		}
		expected++
		correct := e.Truth.Contains(e.Score, opts.Tolerance)
		if correct {
			correctExpected++
		}
		if math.Abs(e.Score-0.5) >= opts.DecisionMargin {
			committed++
			if correct {
				correctCommitted++
			}
		}
	}
	r := Report{Committed: committed, Expected: expected, Correct: correctExpected}
	if committed > 0 {
		r.Precision = float64(correctCommitted) / float64(committed)
	}
	if expected > 0 {
		r.Recall = float64(correctExpected) / float64(expected)
	}
	r.F1 = F1(r.Precision, r.Recall)
	return r
}

// F1 returns the harmonic mean of precision and recall.
func F1(p, r float64) float64 {
	if p+r == 0 {
		return 0
	}
	return 2 * p * r / (p + r)
}

// klEpsilon floors probabilities so KL stays finite when a sampler assigns
// zero mass to a value the truth supports.
const klEpsilon = 1e-9

// KL returns the Kullback–Leibler divergence KL(p ‖ q) in nats between two
// distributions over the same support.
func KL(p, q []float64) (float64, error) {
	if len(p) != len(q) {
		return 0, fmt.Errorf("stats: KL over mismatched supports %d and %d", len(p), len(q))
	}
	var d float64
	for i := range p {
		pi := math.Max(p[i], 0)
		if pi == 0 {
			continue
		}
		qi := math.Max(q[i], klEpsilon)
		d += pi * math.Log(pi/qi)
	}
	if d < 0 && d > -1e-12 {
		d = 0 // numerical noise
	}
	return d, nil
}

// AvgKL returns the mean KL(true ‖ estimated) over the selected variables —
// the Fig. 14 quality measure ("KL divergence between the estimated
// marginal probabilities ... and the true marginal probabilities").
func AvgKL(truth, estimated [][]float64, include func(v int) bool) (float64, error) {
	if len(truth) != len(estimated) {
		return 0, fmt.Errorf("stats: %d true vs %d estimated marginals", len(truth), len(estimated))
	}
	var sum float64
	n := 0
	for v := range truth {
		if include != nil && !include(v) {
			continue
		}
		d, err := KL(truth[v], estimated[v])
		if err != nil {
			return 0, fmt.Errorf("stats: variable %d: %w", v, err)
		}
		sum += d
		n++
	}
	if n == 0 {
		return 0, nil
	}
	return sum / float64(n), nil
}
