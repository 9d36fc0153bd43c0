// Package obs is the pipeline's observability layer: a zero-dependency,
// stdlib-only metrics registry (counters, gauges, histograms), a span-tree
// tracer for batch runs, boots and requests alike (span.go), and an HTTP
// exposition endpoint (Prometheus text, pprof).
//
// The design optimizes for a disabled-by-default hot path: every metric
// handle is nil-safe — a nil *Registry hands out nil *Counter/*Gauge/
// *Histogram values whose methods are single-branch no-ops — so call sites
// can record unconditionally and the uninstrumented sampler epoch pays one
// predictable nil check per record, a few nanoseconds in total. Enabled
// counters are one padded atomic add; no locks, no allocation, no
// formatting until an exposition request renders the registry.
//
// Instrumented code never samples inside the inner Gibbs loop: chunk-level
// events ride the worker pool's existing hook seam and epoch-level events
// are recorded at barriers, so per-sample cost is untouched either way.
package obs

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing metric. The value is padded out to
// a cache line so counters laid out contiguously (or next to other hot
// state) do not false-share under concurrent writers — the chunk counter is
// bumped by every pool worker.
//
// All methods are safe on a nil receiver (no-ops), which is the disabled
// fast path.
type Counter struct {
	v atomic.Uint64
	_ [56]byte // pad to 64 bytes against false sharing
}

// Inc adds one.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds n.
func (c *Counter) Add(n uint64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Value reads the current count (0 on nil).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a settable float64 metric (last-write-wins). Nil-safe like
// Counter.
type Gauge struct {
	bits atomic.Uint64
	_    [56]byte
}

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g != nil {
		g.bits.Store(math.Float64bits(v))
	}
}

// Value reads the gauge (0 on nil).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram is a fixed-boundary cumulative histogram in the Prometheus
// style: counts[i] tallies observations ≤ bounds[i], with one overflow
// bucket, plus a running sum and total count. Observation is lock-free
// (binary search over the boundaries + two atomic adds + a CAS loop for the
// float sum) and allocation-free. Nil-safe like Counter.
type Histogram struct {
	bounds  []float64
	counts  []atomic.Uint64 // len(bounds)+1, last = +Inf overflow
	sumBits atomic.Uint64
	count   atomic.Uint64
}

// DurationBuckets are the default boundaries (seconds) for latency
// histograms: 1µs to 1min in decade steps with midpoints, covering both a
// ~µs chunk merge and a multi-second epoch or WAL fsync.
var DurationBuckets = []float64{
	1e-6, 5e-6, 1e-5, 5e-5, 1e-4, 5e-4, 1e-3, 5e-3,
	1e-2, 5e-2, 0.1, 0.5, 1, 5, 10, 60,
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	// Lower-bound binary search: first boundary ≥ v.
	lo, hi := 0, len(h.bounds)
	for lo < hi {
		mid := (lo + hi) / 2
		if h.bounds[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	h.counts[lo].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count reads the total observation count (0 on nil).
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum reads the running observation sum (0 on nil).
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sumBits.Load())
}

// Registry is a named-metric table. Registration (Counter/Gauge/Histogram)
// is idempotent — the same name returns the same handle — and guarded by a
// mutex; handles are resolved once at wiring time, never on the hot path.
// A nil *Registry is the disabled mode: it hands out nil handles.
//
// A Registry is a view over shared state: With(k, v, ...) derives a view
// whose metrics carry extra labels, so per-shard or per-endpoint series
// share one exposition endpoint (e.g. sya_epochs_total vs
// sya_epochs_total{shard="0"}). All views registered through any
// derived Registry render through the root's WritePrometheus/Snapshot.
type Registry struct {
	st     *regState
	labels string // rendered label pairs `k="v",...`, "" for the root view
}

// regState is the label-shared metric table behind one or more Registry
// views. Series are keyed by family name plus rendered labels.
type regState struct {
	mu     sync.Mutex
	counts map[string]*Counter
	gauges map[string]*Gauge
	hists  map[string]*Histogram
	meta   map[string]seriesMeta // series key -> family + labels

	// hookMu guards the scrape hooks separately from mu: hooks run before
	// an exposition takes mu (they typically Set gauges, which needs it).
	hookMu      sync.Mutex
	hooks       []func()
	runtimeDone bool
}

// seriesMeta splits a series key back into its family name and label pairs
// for format-correct exposition (TYPE lines are per family, histogram
// bucket labels merge with the view labels).
type seriesMeta struct {
	family string
	labels string
}

// NewRegistry creates an empty registry (the unlabeled root view).
func NewRegistry() *Registry {
	return &Registry{st: &regState{
		counts: map[string]*Counter{},
		gauges: map[string]*Gauge{},
		hists:  map[string]*Histogram{},
		meta:   map[string]seriesMeta{},
	}}
}

// With derives a labeled view sharing this registry's state: metrics
// registered through the view get the extra key/value label pairs appended
// to any labels the view already carries. kv must alternate key, value; a
// trailing odd key is ignored. Nil registry → nil view (still no-op).
func (r *Registry) With(kv ...string) *Registry {
	if r == nil {
		return nil
	}
	labels := r.labels
	for i := 0; i+1 < len(kv); i += 2 {
		pair := kv[i] + "=\"" + escapeLabelValue(kv[i+1]) + "\""
		if labels == "" {
			labels = pair
		} else {
			labels += "," + pair
		}
	}
	return &Registry{st: r.st, labels: labels}
}

// escapeLabelValue escapes a label value per the Prometheus text exposition
// format: backslash, double-quote and newline, nothing else (Go's %q would
// emit \x/\u escapes the format does not define).
func escapeLabelValue(v string) string {
	for i := 0; i < len(v); i++ {
		if c := v[i]; c == '\\' || c == '"' || c == '\n' {
			out := make([]byte, 0, len(v)+4)
			for j := 0; j < len(v); j++ {
				switch v[j] {
				case '\\':
					out = append(out, '\\', '\\')
				case '"':
					out = append(out, '\\', '"')
				case '\n':
					out = append(out, '\\', 'n')
				default:
					out = append(out, v[j])
				}
			}
			return string(out)
		}
	}
	return v
}

// formatValue renders a sample value per the exposition format: the
// shortest float representation, with the spec's spellings for the
// non-finite values ("+Inf", "-Inf", "NaN").
func formatValue(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// OnScrape registers fn to run at the start of every exposition
// (WritePrometheus and Snapshot) — the hook point for gauges that sample
// process state (runtime health) at scrape time rather than continuously.
func (r *Registry) OnScrape(fn func()) {
	if r == nil || fn == nil {
		return
	}
	r.st.hookMu.Lock()
	r.st.hooks = append(r.st.hooks, fn)
	r.st.hookMu.Unlock()
}

// runScrapeHooks invokes the registered scrape hooks. It must be called
// before taking st.mu: hooks Set gauges, which acquires it.
func (r *Registry) runScrapeHooks() {
	r.st.hookMu.Lock()
	hooks := r.st.hooks
	r.st.hookMu.Unlock()
	for _, fn := range hooks {
		fn()
	}
}

// seriesKey renders the storage key for a family under this view's labels.
func (r *Registry) seriesKey(name string) string {
	if r.labels == "" {
		return name
	}
	return name + "{" + r.labels + "}"
}

// Counter returns the named counter, creating it on first use. A nil
// registry returns a nil (no-op) handle.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	key := r.seriesKey(name)
	r.st.mu.Lock()
	defer r.st.mu.Unlock()
	c, ok := r.st.counts[key]
	if !ok {
		c = new(Counter)
		r.st.counts[key] = c
		r.st.meta[key] = seriesMeta{family: name, labels: r.labels}
	}
	return c
}

// Gauge returns the named gauge, creating it on first use. Nil registry →
// nil handle.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	key := r.seriesKey(name)
	r.st.mu.Lock()
	defer r.st.mu.Unlock()
	g, ok := r.st.gauges[key]
	if !ok {
		g = new(Gauge)
		r.st.gauges[key] = g
		r.st.meta[key] = seriesMeta{family: name, labels: r.labels}
	}
	return g
}

// Histogram returns the named histogram, creating it with the given
// boundaries on first use (later calls ignore bounds; nil bounds selects
// DurationBuckets). Nil registry → nil handle.
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	if r == nil {
		return nil
	}
	key := r.seriesKey(name)
	r.st.mu.Lock()
	defer r.st.mu.Unlock()
	h, ok := r.st.hists[key]
	if !ok {
		if bounds == nil {
			bounds = DurationBuckets
		}
		h = &Histogram{
			bounds: append([]float64(nil), bounds...),
			counts: make([]atomic.Uint64, len(bounds)+1),
		}
		r.st.hists[key] = h
		r.st.meta[key] = seriesMeta{family: name, labels: r.labels}
	}
	return h
}

// familyOrder groups series keys by family for exposition: one TYPE line
// per family, label variants adjacent, everything in lexicographic order.
func (r *Registry) familyOrder(keys []string) [][]string {
	byFamily := map[string][]string{}
	for _, k := range keys {
		fam := r.st.meta[k].family
		byFamily[fam] = append(byFamily[fam], k)
	}
	fams := make([]string, 0, len(byFamily))
	for f := range byFamily {
		fams = append(fams, f)
	}
	sort.Strings(fams)
	out := make([][]string, 0, len(fams))
	for _, f := range fams {
		ks := byFamily[f]
		sort.Strings(ks)
		out = append(out, ks)
	}
	return out
}

// WritePrometheus renders the registry in the Prometheus text exposition
// format (version 0.0.4): one TYPE line per metric family, labeled series
// variants beneath it, cumulative histogram buckets with the canonical le
// labels, _sum and _count series.
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	r.runScrapeHooks()
	st := r.st
	st.mu.Lock()
	defer st.mu.Unlock()
	keys := func(m map[string]*Counter) []string {
		out := make([]string, 0, len(m))
		for k := range m {
			out = append(out, k)
		}
		return out
	}
	for _, group := range r.familyOrder(keys(st.counts)) {
		fam := st.meta[group[0]].family
		if _, err := fmt.Fprintf(w, "# TYPE %s counter\n", fam); err != nil {
			return err
		}
		for _, k := range group {
			if _, err := fmt.Fprintf(w, "%s %d\n", k, st.counts[k].Value()); err != nil {
				return err
			}
		}
	}
	gkeys := make([]string, 0, len(st.gauges))
	for k := range st.gauges {
		gkeys = append(gkeys, k)
	}
	for _, group := range r.familyOrder(gkeys) {
		fam := st.meta[group[0]].family
		if _, err := fmt.Fprintf(w, "# TYPE %s gauge\n", fam); err != nil {
			return err
		}
		for _, k := range group {
			if _, err := fmt.Fprintf(w, "%s %s\n", k, formatValue(st.gauges[k].Value())); err != nil {
				return err
			}
		}
	}
	hkeys := make([]string, 0, len(st.hists))
	for k := range st.hists {
		hkeys = append(hkeys, k)
	}
	for _, group := range r.familyOrder(hkeys) {
		fam := st.meta[group[0]].family
		if _, err := fmt.Fprintf(w, "# TYPE %s histogram\n", fam); err != nil {
			return err
		}
		for _, k := range group {
			h := st.hists[k]
			m := st.meta[k]
			// The le label merges with the view labels:
			// fam_bucket{system="x",le="0.1"}.
			series := func(suffix, extra string) string {
				labels := m.labels
				if extra != "" {
					if labels == "" {
						labels = extra
					} else {
						labels += "," + extra
					}
				}
				if labels == "" {
					return fam + suffix
				}
				return fam + suffix + "{" + labels + "}"
			}
			var cum uint64
			for i, b := range h.bounds {
				cum += h.counts[i].Load()
				if _, err := fmt.Fprintf(w, "%s %d\n", series("_bucket", `le="`+formatValue(b)+`"`), cum); err != nil {
					return err
				}
			}
			// _count is the +Inf cumulative count, by definition — rendering
			// h.Count() separately could disagree with the buckets within one
			// scrape (an Observe landing between the two reads).
			cum += h.counts[len(h.bounds)].Load()
			if _, err := fmt.Fprintf(w, "%s %d\n%s %s\n%s %d\n",
				series("_bucket", `le="+Inf"`), cum, series("_sum", ""), formatValue(h.Sum()), series("_count", ""), cum); err != nil {
				return err
			}
		}
	}
	return nil
}

// Snapshot returns a flat series→value view of the registry (histograms
// contribute _sum and _count entries; labeled series keep their rendered
// labels in the key); it backs test assertions and the benchmark's layer
// readings.
func (r *Registry) Snapshot() map[string]float64 {
	if r == nil {
		return nil
	}
	r.runScrapeHooks()
	st := r.st
	st.mu.Lock()
	defer st.mu.Unlock()
	out := make(map[string]float64, len(st.counts)+len(st.gauges)+2*len(st.hists))
	for key, c := range st.counts {
		out[key] = float64(c.Value())
	}
	for key, g := range st.gauges {
		out[key] = g.Value()
	}
	for key, h := range st.hists {
		m := st.meta[key]
		suffixed := func(sfx string) string {
			if m.labels == "" {
				return m.family + sfx
			}
			return m.family + sfx + "{" + m.labels + "}"
		}
		out[suffixed("_sum")] = h.Sum()
		out[suffixed("_count")] = float64(h.Count())
	}
	return out
}

// Handler serves the registry as Prometheus text (the /metrics endpoint).
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = r.WritePrometheus(w)
	})
}
