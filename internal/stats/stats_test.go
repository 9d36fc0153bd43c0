package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestTruthRangeContains(t *testing.T) {
	r := TruthRange{Lo: 0.6, Hi: 0.8}
	cases := []struct {
		score, tol float64
		want       bool
	}{
		{0.7, 0, true},
		{0.6, 0, true},
		{0.8, 0, true},
		{0.55, 0, false},
		{0.55, 0.1, true},
		{0.95, 0.1, false},
		{0.9, 0.1, true},
	}
	for _, c := range cases {
		if got := r.Contains(c.score, c.tol); got != c.want {
			t.Errorf("Contains(%v, %v) = %v, want %v", c.score, c.tol, got, c.want)
		}
	}
	p := Point(0.5)
	if !p.Contains(0.55, 0.1) || p.Contains(0.65, 0.1) {
		t.Error("point range mismatch")
	}
}

func TestEvaluateAllCorrect(t *testing.T) {
	exs := []Example{
		{Score: 0.9, Truth: Point(0.85), HasTruth: true},
		{Score: 0.1, Truth: Point(0.15), HasTruth: true},
	}
	r := Evaluate(exs, DefaultOptions())
	if r.Precision != 1 || r.Recall != 1 || r.F1 != 1 {
		t.Errorf("report = %+v", r)
	}
}

func TestEvaluateAbstentions(t *testing.T) {
	// A score near 0.5 abstains: it hurts recall (if wrong) but not
	// precision.
	exs := []Example{
		{Score: 0.9, Truth: Point(0.9), HasTruth: true},
		{Score: 0.51, Truth: Point(0.9), HasTruth: true}, // abstains, wrong
	}
	r := Evaluate(exs, Options{Tolerance: 0.1, DecisionMargin: 0.05})
	if r.Precision != 1 {
		t.Errorf("precision = %v", r.Precision)
	}
	if r.Recall != 0.5 {
		t.Errorf("recall = %v", r.Recall)
	}
	if math.Abs(r.F1-2.0/3.0) > 1e-12 {
		t.Errorf("f1 = %v", r.F1)
	}
}

func TestEvaluateNoTruth(t *testing.T) {
	exs := []Example{{Score: 0.9, HasTruth: false}}
	r := Evaluate(exs, DefaultOptions())
	if r.Precision != 0 || r.Recall != 0 || r.Expected != 0 {
		t.Errorf("report = %+v", r)
	}
}

func TestEvaluateZeroMarginEqualsPR(t *testing.T) {
	exs := []Example{
		{Score: 0.52, Truth: Point(0.9), HasTruth: true},
		{Score: 0.88, Truth: Point(0.9), HasTruth: true},
		{Score: 0.2, Truth: Point(0.25), HasTruth: true},
	}
	r := Evaluate(exs, Options{Tolerance: 0.1, DecisionMargin: 0})
	if r.Precision != r.Recall {
		t.Errorf("margin 0 should equate P and R: %+v", r)
	}
}

func TestF1(t *testing.T) {
	if F1(0, 0) != 0 {
		t.Error("F1(0,0) != 0")
	}
	if got := F1(0.5, 1); math.Abs(got-2.0/3.0) > 1e-12 {
		t.Errorf("F1 = %v", got)
	}
}

func TestKL(t *testing.T) {
	p := []float64{0.5, 0.5}
	if d, err := KL(p, p); err != nil || d != 0 {
		t.Errorf("KL(p,p) = %v, %v", d, err)
	}
	q := []float64{0.9, 0.1}
	d, err := KL(p, q)
	if err != nil {
		t.Fatal(err)
	}
	want := 0.5*math.Log(0.5/0.9) + 0.5*math.Log(0.5/0.1)
	if math.Abs(d-want) > 1e-12 {
		t.Errorf("KL = %v, want %v", d, want)
	}
	if _, err := KL(p, []float64{1}); err == nil {
		t.Error("mismatched supports should fail")
	}
	// Zero in q is smoothed, not infinite.
	if d, err := KL([]float64{1, 0}, []float64{0, 1}); err != nil || math.IsInf(d, 0) {
		t.Errorf("smoothed KL = %v, %v", d, err)
	}
}

func TestKLNonNegativeProperty(t *testing.T) {
	f := func(a, b, c, d float64) bool {
		norm := func(x, y float64) []float64 {
			x, y = math.Abs(x)+0.01, math.Abs(y)+0.01
			if math.IsInf(x, 0) || math.IsNaN(x) || math.IsInf(y, 0) || math.IsNaN(y) {
				return []float64{0.5, 0.5}
			}
			s := x + y
			return []float64{x / s, y / s}
		}
		p, q := norm(a, b), norm(c, d)
		kl, err := KL(p, q)
		return err == nil && kl >= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestAvgKL(t *testing.T) {
	truth := [][]float64{{0.5, 0.5}, {0.9, 0.1}, {1, 0}}
	est := [][]float64{{0.5, 0.5}, {0.9, 0.1}, {1, 0}}
	d, err := AvgKL(truth, est, nil)
	if err != nil || d != 0 {
		t.Errorf("AvgKL = %v, %v", d, err)
	}
	// Only include variable 1.
	est[1] = []float64{0.5, 0.5}
	d2, err := AvgKL(truth, est, func(v int) bool { return v == 1 })
	if err != nil || d2 <= 0 {
		t.Errorf("selective AvgKL = %v, %v", d2, err)
	}
	if _, err := AvgKL(truth, est[:2], nil); err == nil {
		t.Error("length mismatch should fail")
	}
	if d, _ := AvgKL(truth, est, func(v int) bool { return false }); d != 0 {
		t.Errorf("empty selection AvgKL = %v", d)
	}
}
