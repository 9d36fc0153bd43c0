package factorgraph

import (
	"fmt"
	"math"
)

// ExactMarginals computes the exact marginal distribution of every query
// variable by enumerating all joint assignments of the query variables
// (evidence variables stay fixed). It is exponential in the number of query
// variables and exists to provide ground truth for sampler tests and the
// KL-divergence experiment (paper Fig. 14). maxStates caps the enumeration
// size; exceeding it is an error.
//
// The result is indexed marginals[v][x] = P(v = x | evidence); evidence
// variables get a point mass on their observed value.
func ExactMarginals(g *Graph, maxStates int64) ([][]float64, error) {
	n := g.NumVars()
	var queries []VarID
	states := int64(1)
	for i := 0; i < n; i++ {
		v := g.Var(VarID(i))
		if v.Evidence == NoEvidence {
			queries = append(queries, VarID(i))
			states *= int64(v.Domain)
			if states > maxStates || states <= 0 {
				return nil, fmt.Errorf("factorgraph: exact inference needs %d+ states (cap %d)", states, maxStates)
			}
		}
	}
	assign := g.InitialAssignment()
	marginals := make([][]float64, n)
	for i := 0; i < n; i++ {
		marginals[i] = make([]float64, g.Var(VarID(i)).Domain)
	}
	// Enumerate with log-sum-exp for stability.
	energies := make([]float64, 0, states)
	assigns := make([][]int32, 0, states)
	var walk func(qi int)
	walk = func(qi int) {
		if qi == len(queries) {
			energies = append(energies, g.Energy(assign))
			assigns = append(assigns, append([]int32(nil), assign...))
			return
		}
		v := queries[qi]
		d := g.Var(v).Domain
		for x := int32(0); x < d; x++ {
			assign[v] = x
			walk(qi + 1)
		}
		assign[v] = 0
	}
	walk(0)
	maxE := math.Inf(-1)
	for _, e := range energies {
		if e > maxE {
			maxE = e
		}
	}
	var z float64
	weights := make([]float64, len(energies))
	for i, e := range energies {
		weights[i] = math.Exp(e - maxE)
		z += weights[i]
	}
	for i, a := range assigns {
		p := weights[i] / z
		for v := 0; v < n; v++ {
			marginals[v][a[v]] += p
		}
	}
	return marginals, nil
}
