package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call into a layer's public functions, recorded by the
// benchmark from outside the program.
type span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"` // -1 for a root
	Name     string `json:"name"`   // "<layer>.<operation>"
	Workload string `json:"workload"`
	StartUS  int64  `json:"start_us"`
	EndUS    int64  `json:"end_us"`
	// AllocBytes and Mallocs are runtime.MemStats deltas over the span;
	// stage spans only (reading MemStats stops the world).
	AllocBytes uint64 `json:"alloc_bytes,omitempty"`
	Mallocs    uint64 `json:"mallocs,omitempty"`
	// Derived marks a span the benchmark did not time in place: its duration
	// is one the program returned (grounding.Stats and the like) or one
	// measured on a replay of the same call, and it is laid under the real
	// span that contains that work so self times add up.
	Derived bool `json:"derived,omitempty"`
}

// maxOpSpans caps the per-request spans one run keeps; the rest are counted
// in Dropped. Stage spans are never dropped.
const maxOpSpans = 20000

// recorder is the traced pass's in-memory span store. A nil recorder records
// nothing, which is the untraced pass.
type recorder struct {
	workload string
	t0       time.Time

	mu      sync.Mutex
	spans   []span
	opSpans int
	dropped int
}

func newRecorder(workload string) *recorder {
	return &recorder{workload: workload, t0: time.Now()}
}

func (r *recorder) add(s span) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	s.ID = len(r.spans)
	s.Workload = r.workload
	r.spans = append(r.spans, s)
	return s.ID
}

// stage times fn as a span with MemStats deltas and returns the span id (for
// children and for alloc) and the wall time.
func (r *recorder) stage(name string, parent int, fn func() error) (id int, d time.Duration, err error) {
	var before, after runtime.MemStats
	if r != nil {
		runtime.ReadMemStats(&before)
	}
	start := time.Now()
	err = fn()
	end := time.Now()
	if r == nil {
		return -1, end.Sub(start), err
	}
	runtime.ReadMemStats(&after)
	id = r.add(span{
		Parent: parent, Name: name,
		StartUS: start.Sub(r.t0).Microseconds(), EndUS: end.Sub(r.t0).Microseconds(),
		AllocBytes: after.TotalAlloc - before.TotalAlloc, Mallocs: after.Mallocs - before.Mallocs,
	})
	return id, end.Sub(start), err
}

// alloc reports the MemStats deltas a stage span recorded.
func (r *recorder) alloc(id int) (bytes, mallocs uint64) {
	if r == nil || id < 0 {
		return 0, 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.spans[id].AllocBytes, r.spans[id].Mallocs
}

// open starts a span that wraps several stages; close it with end.
func (r *recorder) open(name string, parent int) int {
	if r == nil {
		return -1
	}
	return r.add(span{Parent: parent, Name: name, StartUS: time.Since(r.t0).Microseconds(), EndUS: -1})
}

func (r *recorder) end(id int) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.spans[id].EndUS = time.Since(r.t0).Microseconds()
	r.mu.Unlock()
}

// op records one request or rep of the measured region.
func (r *recorder) op(name string, parent int, start, end time.Time) {
	if r == nil {
		return
	}
	r.mu.Lock()
	if r.opSpans >= maxOpSpans {
		r.dropped++
		r.mu.Unlock()
		return
	}
	r.opSpans++
	r.mu.Unlock()
	r.add(span{Parent: parent, Name: name, StartUS: start.Sub(r.t0).Microseconds(), EndUS: end.Sub(r.t0).Microseconds()})
}

// derive lays consecutive derived children under parent, starting where the
// parent starts and clipped to its end so children never outlast it. It
// returns the ids of the children.
func (r *recorder) derive(parent int, names []string, durs []time.Duration) []int {
	if r == nil || parent < 0 {
		return nil
	}
	r.mu.Lock()
	at, end := r.spans[parent].StartUS, r.spans[parent].EndUS
	r.mu.Unlock()
	ids := make([]int, len(names))
	for i, name := range names {
		stop := min(at+durs[i].Microseconds(), end)
		ids[i] = r.add(span{Parent: parent, Name: name, StartUS: at, EndUS: stop, Derived: true})
		at = stop
	}
	return ids
}

// layerOf is the module a span belongs to: its name up to the last dot.
func layerOf(name string) string {
	if i := strings.LastIndexByte(name, '.'); i > 0 {
		return name[:i]
	}
	return name
}

// selfTimes returns, per layer, the summed self time in milliseconds of the
// spans under root (root included): a span's duration minus what its direct
// children cover.
func (r *recorder) selfTimes(root int) map[string]float64 {
	children := make(map[int][]int)
	for _, s := range r.spans {
		children[s.Parent] = append(children[s.Parent], s.ID)
	}
	out := map[string]float64{}
	var walk func(id int)
	walk = func(id int) {
		s := r.spans[id]
		self := s.EndUS - s.StartUS
		for _, c := range children[id] {
			self -= r.spans[c].EndUS - r.spans[c].StartUS
			walk(c)
		}
		out[layerOf(s.Name)] += float64(max(self, 0)) / 1000
	}
	walk(root)
	return out
}

type layerSelf struct {
	Layer  string  `json:"layer"`
	SelfMS float64 `json:"self_ms"`
	Share  float64 `json:"share"`
}

// rankLayers orders self times by size, with each layer's share of the total.
func rankLayers(self map[string]float64) []layerSelf {
	var total float64
	for _, ms := range self {
		total += ms
	}
	out := make([]layerSelf, 0, len(self))
	for layer, ms := range self {
		out = append(out, layerSelf{Layer: layer, SelfMS: ms, Share: ms / total})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].SelfMS != out[j].SelfMS {
			return out[i].SelfMS > out[j].SelfMS
		}
		return out[i].Layer < out[j].Layer
	})
	return out
}

// write stores trace.json (every span) and layers.json (self time per layer
// under each root, plus the run's per-layer metrics) in dir.
func (r *recorder) write(dir string, roots map[string]int, metrics map[string]metricValue) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	trace := struct {
		Workload string `json:"workload"`
		Dropped  int    `json:"dropped_op_spans"`
		Spans    []span `json:"spans"`
	}{r.workload, r.dropped, r.spans}
	if err := writeJSON(filepath.Join(dir, "trace.json"), trace); err != nil {
		return err
	}
	layers := struct {
		Workload string                 `json:"workload"`
		Self     map[string][]layerSelf `json:"self_time_by_layer"`
		Metrics  map[string]metricValue `json:"metrics"`
	}{r.workload, map[string][]layerSelf{}, metrics}
	for name, root := range roots {
		layers.Self[name] = rankLayers(r.selfTimes(root))
	}
	return writeJSON(filepath.Join(dir, "layers.json"), layers)
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
