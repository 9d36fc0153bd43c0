package main

import (
	"math"
	"regexp"
	"runtime"
	"testing"
)

// TestSmoke runs all six workloads at toy scale, both passes, and checks the
// output contract: every workload and metric BENCHMARK.json names is emitted
// with a finite value, nothing fails, and nothing is left running.
func TestSmoke(t *testing.T) {
	c, err := loadContract("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	if n := len(c.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2 to 8", n)
	}
	if n := len(c.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1 to 16", n)
	}
	if n := len(c.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1 to 128", n)
	}
	seen := map[string]bool{}
	for _, defs := range [][]metricDef{c.EndToEnd, c.PerLayer} {
		for _, d := range defs {
			if !name.MatchString(d.Name) || seen[d.Name] {
				t.Errorf("metric name %q is malformed or used twice", d.Name)
			}
			seen[d.Name] = true
		}
	}
	if len(c.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the benchmark runs %d", len(c.Workloads), len(workloads))
	}

	for i, w := range workloads {
		if c.Workloads[i].Name != w.name {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the benchmark", i, c.Workloads[i].Name, w.name)
		}
		for _, traced := range []bool{false, true} {
			defs, pass := c.EndToEnd, "untraced"
			if traced {
				defs, pass = c.PerLayer, "traced"
			}
			t.Run(w.name+"/"+pass, func(t *testing.T) {
				e := &env{spec: w.toy(), seed: 2, seconds: 0.2, tmp: t.TempDir()}
				if traced {
					e.rec = newRecorder(w.name)
				}
				baseline := runtime.NumGoroutine()
				if err := e.run(); err != nil {
					t.Fatal(err)
				}
				if leak := checkLeaks(baseline); leak != "" {
					t.Fatal("leak check: ", leak)
				}
				res, err := e.result(defs, traced)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Errorf("correct=%v attempted=%d failed=%d: %v", res.Correct, res.Attempted, res.Failed, e.notes)
				}
				if len(res.Metrics) != len(defs) {
					t.Errorf("%d metrics emitted, %d declared", len(res.Metrics), len(defs))
				}
				for _, d := range defs {
					m, ok := res.Metrics[d.Name]
					if !ok || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) || m.Unit != d.Unit {
						t.Errorf("metric %s: emitted=%v value=%v unit=%q", d.Name, ok, m.Value, m.Unit)
					}
					// F1 over the handful of atoms a toy region reaches (fewer
					// still under the race detector) can be 0; no timing can.
					if !traced && m.Value <= 0 && d.Name != "f1" {
						t.Errorf("end-to-end metric %s is %v, must never be 0", d.Name, m.Value)
					}
				}
				if traced {
					if err := e.rec.write(t.TempDir(), e.roots, res.Metrics); err != nil {
						t.Error(err)
					}
					for _, s := range e.rec.spans {
						if s.Name == "" || s.Workload != w.name || s.EndUS < s.StartUS || s.Parent >= s.ID {
							t.Fatalf("malformed span %+v", s)
						}
					}
				}
			})
		}
	}
}

// TestQuartiles pins the spread computation to Python's
// statistics.quantiles(xs, n=4), which the driver uses.
func TestQuartiles(t *testing.T) {
	q1, q2, q3 := quartiles([]float64{10, 1, 3, 2, 5, 4, 7, 6, 9, 8})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
}
