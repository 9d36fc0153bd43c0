package weighting

import (
	"math"
	"testing"
	"testing/quick"
)

func TestExponential(t *testing.T) {
	e := Exponential{Bandwidth: 10, Scale: 2}
	if w := e.Weight(0); w != 2 {
		t.Errorf("w(0) = %v", w)
	}
	if w := e.Weight(10); math.Abs(w-2/math.E) > 1e-12 {
		t.Errorf("w(bandwidth) = %v", w)
	}
	if w := e.Weight(-5); w != 2 {
		t.Errorf("negative distance should clamp: %v", w)
	}
	// Support: weight at support radius ≈ epsilon * scale.
	if w := e.Weight(e.Support()); math.Abs(w-2*SupportEpsilon) > 1e-9 {
		t.Errorf("w(support) = %v, want %v", w, 2*SupportEpsilon)
	}
}

func TestGaussian(t *testing.T) {
	g := Gaussian{Bandwidth: 5, Scale: 1}
	if w := g.Weight(0); w != 1 {
		t.Errorf("w(0) = %v", w)
	}
	if w := g.Weight(5); math.Abs(w-math.Exp(-0.5)) > 1e-12 {
		t.Errorf("w(bw) = %v", w)
	}
	if w := g.Weight(g.Support()); math.Abs(w-SupportEpsilon) > 1e-9 {
		t.Errorf("w(support) = %v", w)
	}
}

func TestInverseDistance(t *testing.T) {
	w := InverseDistance{Bandwidth: 10, Scale: 3}
	if got := w.Weight(0); got != 3 {
		t.Errorf("w(0) = %v", got)
	}
	if got := w.Weight(10); got != 1.5 {
		t.Errorf("w(bw) = %v", got)
	}
	if got := w.Weight(w.Support()); math.Abs(got-3*SupportEpsilon) > 1e-6 {
		t.Errorf("w(support) = %v", got)
	}
}

func TestStep(t *testing.T) {
	s, err := NewStep([]float64{10, 20, 30}, []float64{0.9, 0.5, 0.2})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		d, want float64
	}{
		{0, 0.9}, {9.99, 0.9}, {10, 0.5}, {15, 0.5}, {20, 0.2}, {29.9, 0.2}, {30, 0}, {100, 0},
	}
	for _, c := range cases {
		if got := s.Weight(c.d); got != c.want {
			t.Errorf("w(%v) = %v, want %v", c.d, got, c.want)
		}
	}
	if s.Support() != 30 {
		t.Errorf("support = %v", s.Support())
	}
}

func TestNewStepValidation(t *testing.T) {
	if _, err := NewStep(nil, nil); err == nil {
		t.Error("empty step should fail")
	}
	if _, err := NewStep([]float64{1, 2}, []float64{1}); err == nil {
		t.Error("length mismatch should fail")
	}
	if _, err := NewStep([]float64{2, 1}, []float64{1, 1}); err == nil {
		t.Error("non-ascending breaks should fail")
	}
}

func TestUniformSteps(t *testing.T) {
	s, err := UniformSteps(4, 100, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Breaks) != 4 || s.Breaks[3] != 100 {
		t.Errorf("breaks = %v", s.Breaks)
	}
	if s.Weights[0] != 0.8 || s.Weights[3] != 0.2 {
		t.Errorf("weights = %v", s.Weights)
	}
	// Monotone decay.
	for i := 1; i < len(s.Weights); i++ {
		if s.Weights[i] >= s.Weights[i-1] {
			t.Errorf("weights not decreasing: %v", s.Weights)
		}
	}
	if _, err := UniformSteps(0, 10, 1); err == nil {
		t.Error("zero bands should fail")
	}
}

// Property: all smooth weighing functions are non-negative and
// non-increasing in distance.
func TestMonotoneDecayProperty(t *testing.T) {
	funcs := []Func{
		Exponential{Bandwidth: 7, Scale: 1.5},
		Gaussian{Bandwidth: 7, Scale: 1.5},
		InverseDistance{Bandwidth: 7, Scale: 1.5},
	}
	f := func(a, b float64) bool {
		a, b = math.Abs(a), math.Abs(b)
		if math.IsNaN(a) || math.IsInf(a, 0) || math.IsNaN(b) || math.IsInf(b, 0) {
			return true
		}
		lo, hi := math.Min(a, b), math.Max(a, b)
		for _, fn := range funcs {
			wl, wh := fn.Weight(lo), fn.Weight(hi)
			if wl < 0 || wh < 0 || wh > wl {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

func TestRegistry(t *testing.T) {
	r := NewRegistry(50, 1)
	for _, name := range []string{"exp", "gauss", "idw", "EXP"} {
		if _, err := r.Lookup(name); err != nil {
			t.Errorf("Lookup(%q): %v", name, err)
		}
	}
	if _, err := r.Lookup("nope"); err == nil {
		t.Error("unknown lookup should fail")
	}
	s, _ := NewStep([]float64{10}, []float64{1})
	if err := r.Register(s); err != nil {
		t.Fatal(err)
	}
	if err := r.Register(s); err == nil {
		t.Error("duplicate register should fail")
	}
	if f, err := r.Lookup("STEP"); err != nil || f.Name() != s.Name() {
		t.Errorf("Lookup(STEP) = %v, %v; want the registered step", f, err)
	}
}
