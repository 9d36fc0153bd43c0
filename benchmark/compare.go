package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"sort"
)

// sweepLine is one line of a file written by benchmark/sweep.sh: the last
// line of one untraced run, tagged with what was run.
type sweepLine struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Result   result `json:"result"`
}

// readSweep groups a sweep file's values by workload and metric.
func readSweep(path string) (map[string]map[string][]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string]map[string][]float64{}
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for n := 1; sc.Scan(); n++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var l sweepLine
		if err := json.Unmarshal(sc.Bytes(), &l); err != nil {
			return nil, fmt.Errorf("%s line %d: %w", path, n, err)
		}
		if !l.Result.Correct {
			return nil, fmt.Errorf("%s line %d: run of %s seed %d failed %d of %d operations",
				path, n, l.Workload, l.Seed, l.Result.Failed, l.Result.Attempted)
		}
		if out[l.Workload] == nil {
			out[l.Workload] = map[string][]float64{}
		}
		for name, m := range l.Result.Metrics {
			out[l.Workload][name] = append(out[l.Workload][name], m.Value)
		}
	}
	return out, sc.Err()
}

// quartiles are the first quartile, median and third quartile of a sample,
// by the exclusive method Python's statistics.quantiles(xs, n=4) uses, which
// is how the driver computes a spread.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 1 {
		return s[0], s[0], s[0]
	}
	at := func(i int) float64 {
		j := i * (n + 1) / 4
		j = min(max(j, 1), n-1)
		delta := float64(i*(n+1)) - float64(j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(2), at(3)
}

// spread is the interquartile range as a share of the median.
func spread(xs []float64) float64 {
	q1, q2, q3 := quartiles(xs)
	if q2 == 0 {
		return 0
	}
	return (q3 - q1) / q2
}

// compareFiles prints, per workload and end-to-end metric, both medians,
// their relative difference, the metric's bound and a verdict, and returns a
// non-zero exit code on any worse or unresolved pairing:
//
//	same        b's median is within the bound of a's
//	better      b's median is better than a's by more than the bound
//	worse       b's median is worse than a's by more than the bound
//	unresolved  either side's spread is wider than the bound, so the
//	            medians cannot say (setup_s is exempt, as in the driver's
//	            own rule: a batch set-up is 15 ms of datagen and loading)
func compareFiles(c *contract, pathA, pathB string) int {
	a, errA := readSweep(pathA)
	b, errB := readSweep(pathB)
	if err := errors.Join(errA, errB); err != nil {
		fmt.Fprintln(os.Stderr, "sya-benchmark:", err)
		return 1
	}
	return printComparison(c, a, b)
}

func printComparison(c *contract, a, b map[string]map[string][]float64) int {
	bad := 0
	fmt.Printf("%-13s %-12s %3s %12s %12s %8s %8s %8s %6s  %s\n",
		"workload", "metric", "n", "median a", "median b", "diff", "spread a", "spread b", "bound", "verdict")
	for _, w := range c.Workloads {
		for _, m := range c.EndToEnd {
			xa, xb := a[w.Name][m.Name], b[w.Name][m.Name]
			if len(xa) == 0 || len(xb) == 0 {
				fmt.Printf("%-13s %-12s missing from one side\n", w.Name, m.Name)
				bad++
				continue
			}
			_, ma, _ := quartiles(xa)
			_, mb, _ := quartiles(xb)
			diff := (mb - ma) / ma
			worse := diff
			if m.Better == "higher" {
				worse = -diff
			}
			verdict := "same"
			switch {
			case m.Name != "setup_s" && (spread(xa) > m.Bound || spread(xb) > m.Bound):
				verdict = "unresolved"
				bad++
			case worse > m.Bound:
				verdict = "worse"
				bad++
			case worse < -m.Bound:
				verdict = "better"
			}
			fmt.Printf("%-13s %-12s %3d %12.6g %12.6g %+7.1f%% %7.1f%% %7.1f%% %5.0f%%  %s\n",
				w.Name, m.Name, min(len(xa), len(xb)), ma, mb, 100*diff, 100*spread(xa), 100*spread(xb), 100*m.Bound, verdict)
		}
	}
	if bad > 0 {
		return 1
	}
	return 0
}
