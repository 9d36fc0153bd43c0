// Package serve turns a grounded core.System into a resident knowledge-base
// server: factual-score point/range/k-NN queries answered from an R-tree
// over the grounded atoms, and evidence upserts folded in live through delta
// grounding plus dirty-conclique incremental resampling.
//
// Concurrency model: one RWMutex guards the system. Every read answers from
// one view — a generation's grounding, R-trees and marginal source. Queries
// hold the read lock and read the live view, whose marginals come straight
// off the sampler's counters (the sampler is quiescent between upserts);
// upserts hold the write lock across append → delta-ground → resample →
// generation bump, so readers never observe a half-applied update.
//
// Durability: with Options.WALPath set, every accepted evidence batch is
// appended to a CRC-framed write-ahead log *before* it is applied, so an
// acked upsert survives a crash; New replays the log into the storage tables
// before grounding, making restart = load + replay + one ground rather than
// re-derive-from-scratch. Replay is at-least-once — safe because evidence
// pins are first-pin-wins, so re-applying a batch is idempotent.
//
// Degradation: upserts publish a stale copy of the live view, with its
// marginals snapshotted, before they start mutating; readers that would
// block on the write lock answer from that copy with stale: true instead. A
// bounded in-flight upsert queue sheds excess writers with 429 rather than
// letting them pile up on the lock.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/pprof"
	"net/url"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/factorgraph"
	"repro/internal/geom"
	"repro/internal/gibbs"
	"repro/internal/grounding"
	"repro/internal/index/rtree"
	"repro/internal/obs"
	"repro/internal/wal"
)

// Options parameterizes a Server.
type Options struct {
	// Epochs is the inference budget per upsert: incremental epochs on the
	// delta path, full epochs after a structural re-ground (0 → the
	// system's configured epoch budget).
	Epochs int
	// Metrics receives the sya_serve_* series (nil disables).
	Metrics *obs.Registry

	// WALPath names the evidence write-ahead log ("" → durability off).
	// New replays any existing log before grounding; every append is
	// fsynced before the upsert is applied.
	WALPath string
	// MaxQueuedUpserts bounds in-flight evidence requests; excess upserts
	// are shed with 429 instead of queueing on the write lock (0 → 32).
	MaxQueuedUpserts int
	// UpsertTimeout bounds the inference phase of one upsert. 0 leaves
	// inference bounded only by the client's own context.
	UpsertTimeout time.Duration

	// Tracer records request-scoped span trees for /debug/traces and the
	// slow-request log (nil disables tracing; handlers then pay only a
	// branch per would-be span).
	Tracer *obs.Tracer

	// LocalBudget enables the lazy local-grounding path for point queries:
	// with a positive value, a point query is answered from a bounded
	// subgraph of at most this many sampled variables around the matched
	// atom instead of the full-graph marginal. A ?budget= query parameter
	// overrides it per request (?budget=0 forces the full path). 0
	// disables the lazy path by default.
	LocalBudget int
	// LocalEpochs is the sampling budget per lazy query (0 → the system's
	// configured epoch budget).
	LocalEpochs int
}

// Server is a resident KB: a grounded system plus its serving indexes.
type Server struct {
	opts Options

	// mu serializes upserts (write) against score reads (read). The
	// sampler only sweeps while the write lock is held, which is what
	// makes lock-free marginal reads under RLock sound.
	mu  sync.RWMutex
	sys *core.System
	// live is the view reads answer from under the read lock. Every write
	// re-points it at the system before releasing the lock (publishLive).
	live view

	// locals caches lazy point-query answers; generation-stamped keys make
	// upsert invalidation implicit.
	locals *localCache

	// wal is the evidence write-ahead log (nil when durability is off).
	// Appends happen under the write lock; Close syncs and closes it.
	wal    *wal.Log
	replay wal.ReplayStats

	// degraded holds the stale view published by an in-flight upsert; nil
	// when no writer is active. Readers that cannot take the read lock
	// answer from it instead of blocking.
	degraded atomic.Pointer[view]

	// upsertSlots is the bounded admission queue for evidence requests; a
	// full channel sheds the upsert with 429.
	upsertSlots chan struct{}
	inflight    atomic.Int64

	tracer *obs.Tracer

	mRequests   *obs.Counter
	mErrors     *obs.Counter
	mUpserts    *obs.Counter
	mGen        *obs.Gauge
	mAtoms      *obs.Gauge
	mStructural *obs.Counter
	mShed       *obs.Counter
	mInflight   *obs.Gauge
	mStaleReads *obs.Counter
	mStaleness  *obs.Histogram

	// latency holds one sya_serve_request_seconds series per
	// endpoint × outcome, prebuilt so the request path does a map read
	// instead of a labeled-registry lookup.
	latency map[latencyKey]*obs.Histogram
}

// latencyKey indexes the prebuilt request-latency series.
type latencyKey struct{ endpoint, outcome string }

// Request outcomes, the `outcome` label of sya_serve_request_seconds:
// outcomeOK for a fresh answer, outcomeStale for a degraded read served from
// the pre-upsert snapshot, outcomeShed for a 429'd upsert, outcomeError for
// everything else that failed.
const (
	outcomeOK    = "ok"
	outcomeStale = "stale"
	outcomeShed  = "shed"
	outcomeError = "error"
)

var endpoints = []string{"point", "range", "knn", "evidence", "explain"}
var outcomes = []string{outcomeOK, outcomeStale, outcomeShed, outcomeError}

// ErrSharded is New's refusal of a System configured with Shards > 1.
// Sharded inference is batch-only: it never builds the live sampler that
// reads come from and upserts pin evidence into.
var ErrSharded = errors.New("serve: a sharded system (Shards > 1) cannot be served")

// New wraps an already-constructed system. With a WALPath the evidence log
// is replayed into the storage tables first, so grounding (run here if the
// caller has not) derives a KB that already contains every acked upsert.
// Inference is left to Warmup so callers control the initial sampling
// budget. The server takes ownership: Close releases the system and the WAL.
func New(sys *core.System, opts Options) (*Server, error) {
	if sys.Config().Shards > 1 {
		return nil, ErrSharded
	}
	if opts.Epochs == 0 {
		opts.Epochs = sys.Config().Epochs
	}
	if opts.MaxQueuedUpserts <= 0 {
		opts.MaxQueuedUpserts = 32
	}
	var wlog *wal.Log
	var replay wal.ReplayStats
	if opts.WALPath != "" {
		var err error
		wlog, replay, err = wal.Open(opts.WALPath, wal.Options{Metrics: opts.Metrics})
		if err != nil {
			return nil, fmt.Errorf("serve: opening wal: %w", err)
		}
		replayed := wlog.Records()
		for _, rec := range replayed {
			rows, err := sys.ParseRows(rec.Relation, rec.Rows)
			if err == nil {
				err = sys.LoadRows(rec.Relation, rows)
			}
			if err != nil {
				wlog.Close()
				return nil, fmt.Errorf("serve: replaying wal record for %s: %w", rec.Relation, err)
			}
		}
		if len(replayed) > 0 && sys.Grounding() != nil {
			// The caller grounded before the replayed evidence landed in the
			// tables; re-derive so the grounding sees it.
			if _, err := sys.Ground(); err != nil {
				wlog.Close()
				return nil, fmt.Errorf("serve: re-grounding after wal replay: %w", err)
			}
		}
	}
	if sys.Grounding() == nil {
		if _, err := sys.Ground(); err != nil {
			if wlog != nil {
				wlog.Close()
			}
			return nil, fmt.Errorf("serve: grounding: %w", err)
		}
	}
	m := opts.Metrics
	obs.RegisterRuntimeMetrics(m)
	s := &Server{
		opts:        opts,
		sys:         sys,
		locals:      newLocalCache(localCacheSize, m),
		wal:         wlog,
		replay:      replay,
		upsertSlots: make(chan struct{}, opts.MaxQueuedUpserts),
		tracer:      opts.Tracer,
		mRequests:   m.Counter("sya_serve_requests_total"),
		mErrors:     m.Counter("sya_serve_errors_total"),
		mUpserts:    m.Counter("sya_serve_upserts_total"),
		mGen:        m.Gauge("sya_serve_generation"),
		mAtoms:      m.Gauge("sya_serve_atoms"),
		mStructural: m.Counter("sya_serve_structural_regrounds_total"),
		mShed:       m.Counter("sya_serve_shed_total"),
		mInflight:   m.Gauge("sya_serve_inflight"),
		mStaleReads: m.Counter("sya_serve_degraded_reads_total"),
		mStaleness:  m.Histogram("sya_serve_staleness_seconds", stalenessBuckets),
		latency:     make(map[latencyKey]*obs.Histogram, len(endpoints)*len(outcomes)),
	}
	for _, ep := range endpoints {
		for _, oc := range outcomes {
			s.latency[latencyKey{ep, oc}] =
				m.With("endpoint", ep, "outcome", oc).Histogram("sya_serve_request_seconds", latencyBuckets)
		}
	}
	s.syncLive()
	return s, nil
}

// ReplayStats reports what the boot-time WAL replay recovered (zero value
// when the server runs without a WAL).
func (s *Server) ReplayStats() wal.ReplayStats { return s.replay }

var latencyBuckets = []float64{.0001, .0005, .001, .005, .01, .05, .1, .5, 1, 5}

// stalenessBuckets cover the evidence-to-visible window: accept timestamp to
// generation publish, dominated by delta grounding plus the resample.
var stalenessBuckets = []float64{.001, .005, .01, .05, .1, .5, 1, 5, 10, 30}

// Warmup runs the initial inference pass so queries have converged scores.
// Reads arriving while it runs are served degraded rather than blocked. A
// span on ctx (syad's boot trace) gets it as a serve.warmup stage.
func (s *Server) Warmup(ctx context.Context, epochs int) error {
	span := obs.SpanFromContext(ctx).Child("serve.warmup")
	defer span.End()
	s.mu.Lock()
	defer s.mu.Unlock()
	s.publishStale()
	defer s.publishLive()
	if epochs == 0 {
		epochs = s.opts.Epochs
	}
	_, _, err := s.sys.InferContext(obs.ContextWithSpan(ctx, span), epochs)
	if err == nil {
		s.bumpGeneration()
	}
	return err
}

// Close releases the system's sampler pool and closes the WAL.
func (s *Server) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.sys.Close()
	s.syncLive() // drop the closed sampler from the live view
	if s.wal != nil {
		w := s.wal
		s.wal = nil
		return w.Close()
	}
	return nil
}

// System exposes the underlying system for in-process callers (tests and
// the bench harness); its use must follow the server's locking discipline.
func (s *Server) System() *core.System { return s.sys }

// Generation reports the current resample generation.
func (s *Server) Generation() uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.live.gen
}

// bumpGeneration publishes a resample: reads carry the new generation, and
// lazy answers stamped with the old one stop matching. Caller holds the
// write lock.
func (s *Server) bumpGeneration() {
	s.live.gen++
	s.mGen.Set(float64(s.live.gen))
}

// ScoredAtom is one query result: a grounded atom with its factual score.
type ScoredAtom struct {
	Key      string     `json:"key"`
	Location [2]float64 `json:"location"`
	// Score is core.ScoreOf(Marginal): P(true) for binary atoms, the modal
	// probability for categorical ones.
	Score    float64   `json:"score"`
	Marginal []float64 `json:"marginal"`

	// Lazy-path extras (point queries with an effective budget): the
	// sampled subgraph size, the truncation-error bound from the cut
	// factors' decay weights, and whether any uncertain tissue was cut.
	LocalVars  int     `json:"local_vars,omitempty"`
	ErrorBound float64 `json:"error_bound,omitempty"`
	Truncated  bool    `json:"truncated,omitempty"`
}

// view is one generation's read state: the grounding that atoms, keys and
// provenance resolve against, the R-trees over its located atoms, and the
// source of its marginals. The live view reads marginals off the sampler's
// counters; the stale copy an upsert publishes carries a snapshot taken
// before the writer started. Everything a view points at stays valid while
// a writer works: the trees are immutable after Bulk, and a structural
// re-ground replaces the grounding Result rather than mutating it.
type view struct {
	gen    uint64
	ground *grounding.Result
	// trees indexes each variable relation's grounded atoms by location;
	// Item.Data is the factor-graph VarID.
	trees map[string]*rtree.Tree
	// sampler is the live view's marginal source (nil before inference);
	// marginals is the stale view's (nil when no sampler had run).
	sampler   gibbs.Sampler
	marginals [][]float64
	stale     bool
}

// marginal reads one variable's marginal: the snapshot, the sampler, or —
// before any inference — the graph's prior.
func (v *view) marginal(vid factorgraph.VarID) []float64 {
	switch {
	case v.marginals != nil:
		return v.marginals[vid]
	case v.sampler != nil:
		return v.sampler.MarginalVar(vid)
	}
	return v.ground.Graph.PriorMarginal(vid)
}

func (v *view) atom(vid factorgraph.VarID) ScoredAtom {
	m := v.marginal(vid)
	loc := v.ground.Graph.Var(vid).Loc
	return ScoredAtom{
		Key:      v.ground.Keys[vid],
		Location: [2]float64{loc.X, loc.Y},
		Score:    core.ScoreOf(m),
		Marginal: m,
	}
}

// tree resolves a relation's spatial index.
func (v *view) tree(relation string) (*rtree.Tree, bool) {
	t, ok := v.trees[strings.ToLower(relation)]
	return t, ok
}

// syncLive re-points the live view at the system: its current sampler, and
// fresh R-trees when the grounding was replaced. Caller holds the write lock
// (or is in New).
func (s *Server) syncLive() {
	s.live.sampler = s.sys.Sampler()
	ground := s.sys.Grounding()
	if ground == s.live.ground {
		return
	}
	relNames := make(map[int32]string, len(ground.RelationIndex))
	for name, idx := range ground.RelationIndex {
		relNames[idx] = name
	}
	items := make(map[string][]rtree.Item)
	atoms := 0
	ground.Graph.Vars(func(id factorgraph.VarID, v factorgraph.Variable) bool {
		if !v.HasLoc {
			return true
		}
		rel := relNames[v.Relation]
		items[rel] = append(items[rel], rtree.Item{Rect: v.Loc.Bounds(), Data: int64(id)})
		atoms++
		return true
	})
	s.live.ground = ground
	s.live.trees = make(map[string]*rtree.Tree, len(items))
	for rel, its := range items {
		s.live.trees[rel] = rtree.Bulk(its)
	}
	s.mAtoms.Set(float64(atoms))
}

// publishStale publishes a stale copy of the live view into s.degraded so
// reads arriving during a write can be answered without the lock. Caller
// holds the write lock and must publishLive before releasing it.
func (s *Server) publishStale() {
	sv := s.live
	sv.stale, sv.sampler = true, nil
	if smp := s.live.sampler; smp != nil {
		// Marginals() allocates fresh slices, so the snapshot is decoupled
		// from the counters the resample is about to advance.
		sv.marginals = smp.Marginals()
	}
	s.degraded.Store(&sv)
}

// publishLive ends a write: it re-points the live view at the system and
// retires the stale copy. Caller still holds the write lock.
func (s *Server) publishLive() {
	s.syncLive()
	s.degraded.Store(nil)
}

// acquireRead is the read-side admission point. It returns the view a read
// answers from and the release the caller must defer: the live view under
// the read lock, or — while a writer holds the lock — its stale copy, which
// takes no lock and must not touch s.sys.
func (s *Server) acquireRead() (*view, func()) {
	for {
		v := s.degraded.Load()
		if v == nil {
			s.mu.RLock()
			return &s.live, s.mu.RUnlock
		}
		if !s.mu.TryRLock() {
			s.mStaleReads.Inc()
			return v, func() {}
		}
		// The writer retired between the load and the try. If no new writer
		// published in the meantime we hold a clean read lock; otherwise
		// release and re-decide.
		if s.degraded.Load() == nil {
			return &s.live, s.mu.RUnlock
		}
		s.mu.RUnlock()
	}
}

// Handler returns the server's HTTP API:
//
//	GET  /v1/score/point?relation=R&x=&y=        atoms exactly at (x,y)
//	GET  /v1/score/range?relation=R&minx=&miny=&maxx=&maxy=
//	GET  /v1/score/knn?relation=R&x=&y=&k=
//	GET  /v1/explain?key=relation|term,...       score provenance for one atom
//	POST /v1/evidence  {"relation": "...", "rows": [["cell", ...], ...]}
//	GET  /healthz
//	GET  /metrics, /debug/traces, /debug/pprof/*
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/score/point", s.instrument("point", s.handlePoint))
	mux.HandleFunc("/v1/score/range", s.instrument("range", s.handleRange))
	mux.HandleFunc("/v1/score/knn", s.instrument("knn", s.handleKNN))
	mux.HandleFunc("/v1/explain", s.instrument("explain", s.handleExplain))
	mux.HandleFunc("/v1/evidence", s.instrument("evidence", s.handleEvidence))
	mux.HandleFunc("/healthz", s.handleHealth)
	if s.opts.Metrics != nil {
		mux.Handle("/metrics", s.opts.Metrics.Handler())
	}
	mux.Handle("/debug/traces", s.tracer.TracesHandler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// reqScope carries one request's observability state through its handler:
// the trace span, the latency-label outcome, and the accept timestamp the
// staleness histogram measures from.
type reqScope struct {
	span    obs.Span
	start   time.Time
	outcome string
	stale   bool
}

// instrument wraps a handler with the per-request observability seam: a
// request counter, a trace span (opened from — and echoed to — the W3C
// traceparent header), and the endpoint × outcome latency histogram. With
// tracing disabled the span is a no-op value and the wrapper adds only the
// counter, a clock read and one map lookup.
func (s *Server) instrument(endpoint string, h func(http.ResponseWriter, *http.Request, *reqScope)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		rq := reqScope{start: time.Now(), outcome: outcomeOK}
		rq.span = s.tracer.StartRequest(endpoint, r.Header.Get("traceparent"))
		if rq.span.Enabled() {
			w.Header().Set("traceparent", rq.span.Traceparent())
			r = r.WithContext(obs.ContextWithSpan(r.Context(), rq.span))
		}
		s.mRequests.Inc()
		h(w, r, &rq)
		if rq.stale && rq.outcome == outcomeOK {
			rq.outcome = outcomeStale
		}
		rq.span.Finish(rq.outcome)
		if hist, ok := s.latency[latencyKey{endpoint, rq.outcome}]; ok {
			hist.Observe(time.Since(rq.start).Seconds())
		}
	}
}

func (s *Server) fail(w http.ResponseWriter, rq *reqScope, code int, format string, args ...any) {
	s.mErrors.Inc()
	if rq != nil {
		if code == http.StatusTooManyRequests {
			rq.outcome = outcomeShed
		} else {
			rq.outcome = outcomeError
		}
		rq.span.Notef("%d: "+format, append([]any{code}, args...)...)
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(map[string]string{"error": fmt.Sprintf(format, args...)})
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(v)
}

func queryFloat(q url.Values, name string) (float64, error) {
	raw := q.Get(name)
	if raw == "" {
		return 0, fmt.Errorf("missing query parameter %q", name)
	}
	return strconv.ParseFloat(raw, 64)
}

// queryResponse is the envelope of every score query. Stale marks scores
// served from the degraded-read snapshot (the generation they belong to)
// while an upsert or re-ground is in flight.
type queryResponse struct {
	Relation   string `json:"relation"`
	Generation uint64 `json:"generation"`
	Stale      bool   `json:"stale,omitempty"`
	// Budget is the lazy-path variable budget the atoms were answered
	// under; 0 means the full-graph path.
	Budget int          `json:"budget,omitempty"`
	Atoms  []ScoredAtom `json:"atoms"`
}

// beginRead is acquireRead recorded as the request's "acquire_read" stage,
// with a stale view propagated to the request's outcome.
func (s *Server) beginRead(rq *reqScope) (*view, func()) {
	sp := rq.span.Child("acquire_read")
	v, release := s.acquireRead()
	sp.End()
	rq.stale = v.stale
	return v, release
}

// probeAndScore runs the common tail of a score query: time the R-tree probe
// ("rtree_probe") and the marginal reads ("score") as stages of the request
// trace.
func probeAndScore(rq *reqScope, v *view, probe func() []rtree.Item) []ScoredAtom {
	sp := rq.span.Child("rtree_probe")
	items := probe()
	sp.Notef("hits=%d", len(items))
	sp.End()
	sp = rq.span.Child("score")
	atoms := make([]ScoredAtom, 0, len(items))
	for _, it := range items {
		atoms = append(atoms, v.atom(factorgraph.VarID(it.Data)))
	}
	sp.End()
	return atoms
}

func (s *Server) handlePoint(w http.ResponseWriter, r *http.Request, rq *reqScope) {
	q := r.URL.Query()
	rel := q.Get("relation")
	x, errX := queryFloat(q, "x")
	y, errY := queryFloat(q, "y")
	budget, errB := s.localBudget(q)
	if rel == "" || errX != nil || errY != nil || errB != nil || budget < 0 {
		s.fail(w, rq, http.StatusBadRequest, "point query needs relation, x, y (and budget ≥ 0)")
		return
	}
	v, release := s.beginRead(rq)
	defer release()
	tree, ok := v.tree(rel)
	if !ok {
		s.fail(w, rq, http.StatusNotFound, "unknown variable relation %q", rel)
		return
	}
	if budget > 0 && !v.stale {
		// Lazy path: answer from a bounded subgraph around each matched
		// atom. Degraded reads fall through to the snapshot marginals —
		// the system is mutating under the writer and cannot be sampled.
		sp := rq.span.Child("rtree_probe")
		items := tree.SearchAll(geom.Pt(x, y).Bounds())
		sp.Notef("hits=%d", len(items))
		sp.End()
		s.servePointLocal(w, r, rq, v, items, rel, budget)
		return
	}
	resp := queryResponse{Relation: rel, Generation: v.gen, Stale: v.stale}
	resp.Atoms = probeAndScore(rq, v, func() []rtree.Item {
		return tree.SearchAll(geom.Pt(x, y).Bounds())
	})
	writeJSON(w, resp)
}

func (s *Server) handleRange(w http.ResponseWriter, r *http.Request, rq *reqScope) {
	q := r.URL.Query()
	rel := q.Get("relation")
	minx, e1 := queryFloat(q, "minx")
	miny, e2 := queryFloat(q, "miny")
	maxx, e3 := queryFloat(q, "maxx")
	maxy, e4 := queryFloat(q, "maxy")
	if rel == "" || e1 != nil || e2 != nil || e3 != nil || e4 != nil {
		s.fail(w, rq, http.StatusBadRequest, "range query needs relation, minx, miny, maxx, maxy")
		return
	}
	v, release := s.beginRead(rq)
	defer release()
	tree, ok := v.tree(rel)
	if !ok {
		s.fail(w, rq, http.StatusNotFound, "unknown variable relation %q", rel)
		return
	}
	window := geom.NewRect(geom.Pt(minx, miny), geom.Pt(maxx, maxy))
	resp := queryResponse{Relation: rel, Generation: v.gen, Stale: v.stale}
	resp.Atoms = probeAndScore(rq, v, func() []rtree.Item {
		return tree.SearchAll(window)
	})
	// Window search order is tree order; sort for a stable API.
	sort.Slice(resp.Atoms, func(i, j int) bool { return resp.Atoms[i].Key < resp.Atoms[j].Key })
	writeJSON(w, resp)
}

func (s *Server) handleKNN(w http.ResponseWriter, r *http.Request, rq *reqScope) {
	q := r.URL.Query()
	rel := q.Get("relation")
	x, e1 := queryFloat(q, "x")
	y, e2 := queryFloat(q, "y")
	k, e3 := strconv.Atoi(q.Get("k"))
	if rel == "" || e1 != nil || e2 != nil || e3 != nil || k <= 0 {
		s.fail(w, rq, http.StatusBadRequest, "knn query needs relation, x, y, k>0")
		return
	}
	v, release := s.beginRead(rq)
	defer release()
	tree, ok := v.tree(rel)
	if !ok {
		s.fail(w, rq, http.StatusNotFound, "unknown variable relation %q", rel)
		return
	}
	resp := queryResponse{Relation: rel, Generation: v.gen, Stale: v.stale}
	resp.Atoms = probeAndScore(rq, v, func() []rtree.Item {
		return tree.NearestK(geom.Pt(x, y), k)
	})
	writeJSON(w, resp)
}

// evidenceRequest is the upsert payload: rows as text cells, parsed against
// the relation's schema with the same rules as the CSV loader.
type evidenceRequest struct {
	Relation string     `json:"relation"`
	Rows     [][]string `json:"rows"`
}

// evidenceResponse reports what the upsert did.
type evidenceResponse struct {
	Generation  uint64 `json:"generation"`
	Rows        int    `json:"rows"`
	Pins        int    `json:"pins"`
	SkippedPins int    `json:"skipped_pins"`
	Structural  bool   `json:"structural"`
	Reason      string `json:"reason,omitempty"`
	Epochs      int    `json:"epochs"`
}

func (s *Server) handleEvidence(w http.ResponseWriter, r *http.Request, rq *reqScope) {
	if r.Method != http.MethodPost {
		s.fail(w, rq, http.StatusMethodNotAllowed, "evidence upserts are POST")
		return
	}
	sp := rq.span.Child("decode")
	var req evidenceRequest
	err := json.NewDecoder(r.Body).Decode(&req)
	sp.End()
	if err != nil {
		s.fail(w, rq, http.StatusBadRequest, "decoding body: %v", err)
		return
	}
	if req.Relation == "" || len(req.Rows) == 0 {
		s.fail(w, rq, http.StatusBadRequest, "upsert needs relation and rows")
		return
	}

	// Admission control: a bounded number of upserts may wait on the write
	// lock; beyond that the server sheds load instead of queueing.
	select {
	case s.upsertSlots <- struct{}{}:
		s.mInflight.Set(float64(s.inflight.Add(1)))
		defer func() {
			s.mInflight.Set(float64(s.inflight.Add(-1)))
			<-s.upsertSlots
		}()
	default:
		s.mShed.Inc()
		s.fail(w, rq, http.StatusTooManyRequests, "upsert queue full (%d in flight)", cap(s.upsertSlots))
		return
	}

	// queue_wait is the admission-to-lock gap: time spent behind other
	// upserts already holding or waiting on the write lock.
	sp = rq.span.Child("queue_wait")
	s.mu.Lock()
	sp.End()
	defer s.mu.Unlock()
	// From here reads are served degraded from the pre-upsert view instead
	// of blocking on the lock. LIFO defers: the live view is re-pointed at
	// the system and the stale copy retired before the lock is released.
	s.publishStale()
	defer s.publishLive()

	sp = rq.span.Child("validate")
	if _, err := s.sys.DB().Table(req.Relation); err != nil {
		sp.End()
		s.fail(w, rq, http.StatusNotFound, "%v", err)
		return
	}
	rows, err := s.sys.ParseRows(req.Relation, req.Rows)
	sp.End()
	if err != nil {
		s.fail(w, rq, http.StatusBadRequest, "%v", err)
		return
	}

	// Once the batch is validated it is logged, then applied under a
	// context that survives client disconnects: an acked (or even
	// half-finished) upsert must never leave the WAL and the KB divergent.
	// Replay after a crash is at-least-once; first-pin-wins makes that
	// idempotent.
	applyCtx := context.WithoutCancel(r.Context())
	if s.wal != nil {
		wsp := rq.span.Child("wal_append")
		err := s.wal.AppendCtx(obs.ContextWithSpan(applyCtx, wsp),
			wal.Record{Relation: req.Relation, Rows: req.Rows})
		wsp.End()
		if err != nil {
			s.fail(w, rq, http.StatusInternalServerError, "wal append: %v", err)
			return
		}
	}
	// UpsertEvidence nests its own stages (delta_ground, pin_apply or
	// reground) under the request span it finds on the context.
	stats, err := s.sys.UpsertEvidence(applyCtx, req.Relation, rows)
	if err != nil {
		s.fail(w, rq, http.StatusInternalServerError, "upsert: %v", err)
		return
	}
	s.mUpserts.Inc()

	// Inference is the long tail of an upsert and tolerates interruption
	// (partial epochs still leave a consistent sampler), so it stays
	// client-cancellable, optionally bounded by the server's own deadline.
	inferCtx := r.Context()
	if s.opts.UpsertTimeout > 0 {
		var cancel context.CancelFunc
		inferCtx, cancel = context.WithTimeout(applyCtx, s.opts.UpsertTimeout)
		defer cancel()
	}
	epochs := 0
	if stats.Structural || stats.Pins > 0 {
		// The resample stage owns the context so the sampler's own stages
		// (the dirty-conclique sweep) nest under it rather than under the
		// request root.
		rsp := rq.span.Child("resample")
		rsp.Notef("structural=%v pins=%d", stats.Structural, stats.Pins)
		inferCtx = obs.ContextWithSpan(inferCtx, rsp)
		epochs = s.opts.Epochs
		if stats.Structural {
			// The grounding (and its VarIDs) changed wholesale: re-infer
			// from scratch (publishLive rebuilds the R-trees).
			s.mStructural.Inc()
			_, _, err = s.sys.InferContext(inferCtx, epochs)
		} else {
			_, _, err = s.sys.InferIncrementalContext(inferCtx, epochs)
		}
		rsp.End()
		if err != nil {
			s.fail(w, rq, http.StatusInternalServerError, "re-inference: %v", err)
			return
		}
		s.bumpGeneration()
		// Evidence staleness: how long the accepted batch took to become
		// visible to readers (accept timestamp → generation publish).
		s.mStaleness.Observe(time.Since(rq.start).Seconds())
	}
	writeJSON(w, evidenceResponse{
		Generation:  s.live.gen,
		Rows:        stats.Rows,
		Pins:        stats.Pins,
		SkippedPins: stats.SkippedPins,
		Structural:  stats.Structural,
		Reason:      stats.Reason,
		Epochs:      epochs,
	})
}

// healthResponse is the /healthz body. Degraded means an upsert or
// re-ground is in flight and reads are being served from the stale snapshot.
type healthResponse struct {
	Status     string `json:"status"`
	Engine     string `json:"engine"`
	Vars       int    `json:"vars"`
	Generation uint64 `json:"generation"`
	Degraded   bool   `json:"degraded,omitempty"`
}

func (s *Server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	v, release := s.acquireRead()
	defer release()
	resp := healthResponse{
		Status: "ok",
		// Config is immutable, so the engine name needs no lock either way.
		Engine:     s.sys.Config().Engine.String(),
		Vars:       v.ground.Stats.Vars,
		Generation: v.gen,
		Degraded:   v.stale,
	}
	if v.stale {
		resp.Status = "degraded"
	}
	writeJSON(w, resp)
}
