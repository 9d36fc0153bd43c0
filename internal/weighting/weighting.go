// Package weighting implements the spatial weighing functions selectable via
// the @spatial(w) annotation in Sya's DDlog extension (paper Section III).
// A weighing function maps the distance between two spatial ground atoms to
// the weight w_d(vj,vk) of their spatial factor (Eq. 2 / Eq. 4): large for
// nearby atoms, decaying toward zero with distance, so that the factor
// e^{±w} favours agreement of close atoms and becomes neutral far away.
//
// The paper's default is the exponential distance weighing of GeoDa
// (Anselin et al. [2]); gaussian, inverse-distance and step variants are
// also provided, and users may register their own (the "user-defined in the
// DDlog program" option).
package weighting

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
)

// Func maps a distance (≥ 0) to a spatial weight (≥ 0).
type Func interface {
	// Name is the identifier used inside @spatial(name).
	Name() string
	// Weight returns the spatial weight for a distance.
	Weight(dist float64) float64
	// Support returns the effective neighbourhood radius: beyond it the
	// weight is negligible (< SupportEpsilon of the zero-distance weight)
	// and the grounding module may skip generating the spatial factor.
	Support() float64
}

// SupportEpsilon is the relative weight below which a spatial factor is
// considered negligible when computing Support radii.
const SupportEpsilon = 1e-3

// Exponential is the GeoDa-style exponential distance weighing
// w(d) = scale · exp(−d/bandwidth) — the paper's default (@spatial(exp)).
type Exponential struct {
	// Bandwidth is the decay length; weights fall to 1/e at this distance.
	Bandwidth float64
	// Scale is the zero-distance weight.
	Scale float64
}

// Name implements Func.
func (Exponential) Name() string { return "exp" }

// Weight implements Func.
func (e Exponential) Weight(d float64) float64 {
	if d < 0 {
		d = 0
	}
	return e.Scale * math.Exp(-d/e.Bandwidth)
}

// Support implements Func.
func (e Exponential) Support() float64 {
	return -e.Bandwidth * math.Log(SupportEpsilon)
}

// Gaussian is w(d) = scale · exp(−(d/bandwidth)²/2).
type Gaussian struct {
	Bandwidth float64
	Scale     float64
}

// Name implements Func.
func (Gaussian) Name() string { return "gauss" }

// Weight implements Func.
func (g Gaussian) Weight(d float64) float64 {
	if d < 0 {
		d = 0
	}
	z := d / g.Bandwidth
	return g.Scale * math.Exp(-z*z/2)
}

// Support implements Func.
func (g Gaussian) Support() float64 {
	return g.Bandwidth * math.Sqrt(-2*math.Log(SupportEpsilon))
}

// InverseDistance is w(d) = scale / (1 + d/bandwidth).
type InverseDistance struct {
	Bandwidth float64
	Scale     float64
}

// Name implements Func.
func (InverseDistance) Name() string { return "idw" }

// Weight implements Func.
func (w InverseDistance) Weight(d float64) float64 {
	if d < 0 {
		d = 0
	}
	return w.Scale / (1 + d/w.Bandwidth)
}

// Support implements Func.
func (w InverseDistance) Support() float64 {
	return w.Bandwidth * (1/SupportEpsilon - 1)
}

// Step is a piecewise-constant weighing: Weights[i] applies to distances in
// [Breaks[i-1], Breaks[i]) with Breaks[-1] = 0; distances ≥ the last break
// get weight 0. It models the paper's Fig. 10 step-function baseline, where
// DeepDive approximates distance decay with one rule per band.
type Step struct {
	Breaks  []float64 // ascending band upper bounds
	Weights []float64 // len(Weights) == len(Breaks)
}

// NewStep builds a Step from bands; it validates monotone breaks.
func NewStep(breaks, weights []float64) (Step, error) {
	if len(breaks) == 0 || len(breaks) != len(weights) {
		return Step{}, fmt.Errorf("weighting: step needs equal, non-zero breaks and weights (got %d, %d)",
			len(breaks), len(weights))
	}
	if !sort.Float64sAreSorted(breaks) {
		return Step{}, fmt.Errorf("weighting: step breaks must be ascending")
	}
	return Step{Breaks: breaks, Weights: weights}, nil
}

// Name implements Func.
func (Step) Name() string { return "step" }

// Weight implements Func.
func (s Step) Weight(d float64) float64 {
	if d < 0 {
		d = 0
	}
	i := sort.SearchFloat64s(s.Breaks, d)
	if i < len(s.Breaks) && s.Breaks[i] == d {
		i++ // bands are [lo, hi): a distance equal to a break falls in the next band
	}
	if i >= len(s.Weights) {
		return 0
	}
	return s.Weights[i]
}

// Support implements Func.
func (s Step) Support() float64 { return s.Breaks[len(s.Breaks)-1] }

// UniformSteps builds an n-band step function over [0, maxDist) whose
// weights decay linearly from maxWeight to maxWeight/n — the construction
// used by the Fig. 10 experiment (large weights for small distances).
func UniformSteps(n int, maxDist, maxWeight float64) (Step, error) {
	if n <= 0 {
		return Step{}, fmt.Errorf("weighting: need at least one step band, got %d", n)
	}
	breaks := make([]float64, n)
	weights := make([]float64, n)
	for i := 0; i < n; i++ {
		breaks[i] = maxDist * float64(i+1) / float64(n)
		weights[i] = maxWeight * float64(n-i) / float64(n)
	}
	return Step{Breaks: breaks, Weights: weights}, nil
}

// Registry resolves @spatial(name) identifiers to weighing functions. The
// built-ins of the paper are pre-registered with unit scale and a default
// bandwidth; programs that need different parameters register their own.
type Registry struct {
	mu    sync.RWMutex
	funcs map[string]Func
}

// NewRegistry returns a registry with the built-in functions registered at
// the given bandwidth and scale.
func NewRegistry(bandwidth, scale float64) *Registry {
	r := &Registry{funcs: map[string]Func{}}
	r.MustRegister(Exponential{Bandwidth: bandwidth, Scale: scale})
	r.MustRegister(Gaussian{Bandwidth: bandwidth, Scale: scale})
	r.MustRegister(InverseDistance{Bandwidth: bandwidth, Scale: scale})
	return r
}

// Register adds a function under its Name; duplicate names error.
func (r *Registry) Register(f Func) error {
	key := strings.ToLower(f.Name())
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.funcs[key]; dup {
		return fmt.Errorf("weighting: function %q already registered", f.Name())
	}
	r.funcs[key] = f
	return nil
}

// MustRegister panics on duplicate registration; for built-ins.
func (r *Registry) MustRegister(f Func) {
	if err := r.Register(f); err != nil {
		panic(err)
	}
}

// Lookup resolves a name.
func (r *Registry) Lookup(name string) (Func, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	f, ok := r.funcs[strings.ToLower(name)]
	if !ok {
		return nil, fmt.Errorf("weighting: unknown @spatial function %q", name)
	}
	return f, nil
}
