// Command sya-benchmark is the repository's one benchmark: six seeded
// workloads driven in-process through the public functions of the packages
// under internal/, each reporting the same end-to-end metrics (untraced
// pass, --trace 0) or the per-layer metrics of a traced pass (--trace 1)
// whose spans the benchmark records itself, from outside the program.
// BENCHMARK.json at the root of the checkout names the workloads and the
// metrics; README.md in this directory defines them.
//
//	bash benchmark/run.sh --workload serve_read --seed 1 --seconds 10 --trace 0
//	bash benchmark/run.sh -compare a.jsonl b.jsonl
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"
)

// metricValue is one reported number, in the contract's output shape.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// metricDef is one metric as BENCHMARK.json declares it.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// contract is BENCHMARK.json: the single list of workload and metric names,
// so what a run emits cannot drift from what the file declares.
type contract struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func loadContract(path string) (*contract, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var c contract
	if err := json.Unmarshal(raw, &c); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &c, nil
}

// running names what the run is doing, for the watchdog's last words.
var running atomic.Value

func phase(format string, args ...any) { running.Store(fmt.Sprintf(format, args...)) }

func main() {
	var (
		workload = flag.String("workload", "", "workload to run (see BENCHMARK.json)")
		seed     = flag.Int64("seed", 1, "drives internal/datagen and request order; the program's own seed stays 1")
		seconds  = flag.Float64("seconds", 10, "length of the measured region")
		traced   = flag.Int("trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics from the traced pass")
		deadline = flag.Duration("deadline", 170*time.Second, "watchdog: print what was running and exit 2")
		out      = flag.String("out", ".bench_build/out", "directory for trace.json and layers.json (traced pass)")
		compare  = flag.Bool("compare", false, "compare two result files written by benchmark/sweep.sh")
		size     = flag.Int("size", 0, "override the workload's well count or raster side, for scaling studies outside the contract; the input pin is not checked")
	)
	flag.Parse()
	phase("starting")
	time.AfterFunc(*deadline, func() {
		fmt.Fprintf(os.Stderr, "sya-benchmark: deadline %v passed while %v\n", *deadline, running.Load())
		os.Exit(2)
	})
	c, err := loadContract("BENCHMARK.json")
	switch {
	case err != nil:
		fmt.Fprintln(os.Stderr, "sya-benchmark:", err)
		os.Exit(1)
	case *compare && flag.NArg() != 2:
		fmt.Fprintln(os.Stderr, "usage: -compare a.jsonl b.jsonl")
		os.Exit(1)
	case *compare:
		os.Exit(compareFiles(c, flag.Arg(0), flag.Arg(1)))
	}
	os.Exit(run(c, *workload, *seed, *seconds, *traced == 1, *out, *size))
}

func run(c *contract, workload string, seed int64, seconds float64, traced bool, out string, size int) int {
	w, ok := findWorkload(workload)
	if !ok {
		fmt.Fprintf(os.Stderr, "sya-benchmark: unknown workload %q\n", workload)
		return 1
	}
	if size > 0 {
		w.size, w.digest = size, ""
	}
	// One processor. On this two-vCPU host the second vCPU comes and goes:
	// two spinning goroutines take 70 to 250 ms for what one does in 72 to
	// 80, so nothing that runs on two processors repeats within any bound a
	// later change could be held to.
	runtime.GOMAXPROCS(1)

	e := &env{spec: w, seed: seed, seconds: seconds, tmp: filepath.Join(".bench_build", "tmp")}
	if traced {
		e.rec = newRecorder(w.name)
	}
	baseline := runtime.NumGoroutine()
	if err := e.run(); err != nil {
		fmt.Fprintf(os.Stderr, "sya-benchmark: %s: %v\n", w.name, err)
		return 1
	}
	if leak := checkLeaks(baseline); leak != "" {
		fmt.Fprintln(os.Stderr, "sya-benchmark: leak check:", leak)
		return 1
	}

	defs := c.EndToEnd
	if traced {
		defs = c.PerLayer
	}
	res, err := e.result(defs, traced)
	if err != nil {
		fmt.Fprintf(os.Stderr, "sya-benchmark: %s: %v\n", w.name, err)
		return 1
	}
	if traced {
		if err := e.rec.write(filepath.Join(out, w.name), e.roots, res.Metrics); err != nil {
			fmt.Fprintln(os.Stderr, "sya-benchmark:", err)
			return 1
		}
	}
	fmt.Printf("workload %s seed %d seconds %g trace %v gomaxprocs %d inputs %s\n",
		w.name, seed, seconds, traced, runtime.GOMAXPROCS(0), e.digest)
	for _, note := range e.notes {
		fmt.Println(note)
	}
	for _, d := range defs {
		fmt.Printf("%-34s %14.6g %s\n", d.Name, res.Metrics[d.Name].Value, d.Unit)
	}
	line, _ := json.Marshal(res) // plain numbers and strings always marshal
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// result turns what the run collected into the contract's output: every
// declared metric, with the declared unit. An end-to-end metric the run did
// not produce is an error; a per-layer metric of a layer the workload never
// enters reads 0.
func (e *env) result(defs []metricDef, traced bool) (*result, error) {
	res := &result{Attempted: e.attempted, Failed: e.failed, Metrics: map[string]metricValue{}}
	res.Correct = e.failed == 0 && e.attempted > 0
	for _, d := range defs {
		v, ok := e.metrics[d.Name]
		if !ok && !traced {
			return nil, fmt.Errorf("end-to-end metric %s was not measured", d.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is %v", d.Name, v)
		}
		res.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	return res, nil
}

// checkLeaks fails the run if a goroutine or a listening socket outlives the
// workload. HTTP transports wind their goroutines down asynchronously after
// CloseIdleConnections, so the goroutine count gets two seconds to settle.
func checkLeaks(baseline int) string {
	stop := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > baseline && time.Now().Before(stop) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > baseline {
		buf := make([]byte, 1<<16)
		buf = buf[:runtime.Stack(buf, true)]
		return fmt.Sprintf("%d goroutines, %d at start\n%s", n, baseline, buf)
	}
	if n := listeningSockets(); n > 0 {
		return fmt.Sprintf("%d listening sockets left open", n)
	}
	return ""
}

// listeningSockets counts this process's sockets in TCP LISTEN state: the
// inodes of its socket descriptors matched against /proc/net/tcp{,6}.
func listeningSockets() int {
	own := map[string]bool{}
	fds, _ := os.ReadDir("/proc/self/fd") // no /proc: nothing to match, count stays 0
	for _, fd := range fds {
		if link, err := os.Readlink("/proc/self/fd/" + fd.Name()); err == nil && strings.HasPrefix(link, "socket:[") {
			own[strings.TrimSuffix(strings.TrimPrefix(link, "socket:["), "]")] = true
		}
	}
	n := 0
	for _, path := range []string{"/proc/net/tcp", "/proc/net/tcp6"} {
		raw, _ := os.ReadFile(path)
		for _, line := range strings.Split(string(raw), "\n") {
			f := strings.Fields(line)
			if len(f) > 9 && f[3] == "0A" && own[f[9]] {
				n++
			}
		}
	}
	return n
}

// median of a sample; 0 for an empty one.
func median(xs []float64) float64 { return percentile(xs, 0.5) }

// percentile is the nearest-rank q-quantile of a sample.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[min(int(q*float64(len(s))), len(s)-1)]
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// resetPeakRSS starts a fresh VmHWM measurement: return freed memory to the
// OS, then clear the kernel's high-water mark. It reports whether the reset
// took; without it peakRSSMB covers the whole process.
func resetPeakRSS() bool {
	debug.FreeOSMemory()
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) == nil
}

// peakRSSMB reads VmHWM, the peak resident set since the last reset.
func peakRSSMB() float64 {
	raw, _ := os.ReadFile("/proc/self/status") // unreadable: reports 0, which result() lets through as a visible 0
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.Fields(rest)[0], 64)
			return kb / 1024
		}
	}
	return 0
}
