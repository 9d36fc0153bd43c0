// Command syad runs a resident KB server: it loads and grounds a spatial
// DDlog program exactly like the sya batch CLI, warms the sampler up, and
// then serves factual-score queries and evidence upserts over HTTP until
// interrupted.
//
// Usage:
//
//	syad -program kb.ddlog -load County=counties.csv -load CountyEvidence=ev.csv \
//	    [-addr host:port] [-engine sya|deepdive] [-metric euclidean|miles|km] \
//	    [-epochs N] [-warmup-epochs N] [-upsert-epochs N] [-cache-ttl D] \
//	    [-local-budget N] [-local-epochs N] \
//	    [-bandwidth B] [-scale S] [-seed N] [-ground-workers N] [-label NAME] \
//	    [-trace-out file.jsonl] [-trace-max-mb N] \
//	    [-trace-ring N] [-slow-ms D] \
//	    [-wal file.wal] [-wal-sync-every N] [-wal-snapshot-every N] \
//	    [-max-queued-upserts N] [-upsert-timeout D] \
//	    [-read-timeout D] [-read-header-timeout D] [-write-timeout D] \
//	    [-drain-timeout D]
//
// API (JSON):
//
//	GET  /v1/score/point?relation=R&x=X&y=Y[&budget=N]  score at a location
//	GET  /v1/score/range?relation=R&minx&miny&maxx&maxy
//	GET  /v1/score/knn?relation=R&x=X&y=Y&k=K        k nearest atoms
//	GET  /v1/explain?key=relation|term,...           score provenance for one atom
//	POST /v1/evidence {"relation": R, "rows": [[cell, ...], ...]}
//	GET  /healthz
//	GET  /metrics, /debug/traces, /debug/pprof/*
//
// Every request is traced: per-stage timings (lock wait, R-tree probe,
// WAL fsync, delta grounding, conclique resample) land in a ring of the
// last -trace-ring completed traces served at /debug/traces, W3C
// traceparent headers are accepted and echoed, and requests slower than
// -slow-ms are logged as structured JSON on stderr. -trace-ring 0 turns
// request tracing off entirely (the handlers then pay only a branch per
// stage).
//
// Evidence upserts fold in without a restart: the delta grounder re-evaluates
// only the rules that touch the upserted relation, pins the affected
// variables, and resamples the dirty concliques for -upsert-epochs epochs.
// A structural change (new ground atoms, variable-relation rows) falls back
// to a full re-ground + re-warmup automatically.
//
// With -wal, every accepted evidence batch is appended to a CRC-framed
// write-ahead log before it is applied, and replayed on the next boot — a
// crash (even SIGKILL mid-upsert) loses nothing that was acked. The log is
// compacted into a rotating snapshot pair every -wal-snapshot-every records.
// Overload is shed: at most -max-queued-upserts evidence requests may be in
// flight (429 beyond that), and reads during an upsert or re-ground are
// served from the previous generation's snapshot with "stale": true.
//
// The -load pairs, engine and metric spellings are shared with the sya CLI,
// so a batch invocation can be lifted into a resident server by swapping the
// binary name. ^C / SIGTERM drains in-flight requests for -drain-timeout,
// fsyncs and closes the WAL, and exits cleanly.
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/cliutil"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/serve"
)

func main() {
	var loads cliutil.LoadFlag
	var (
		programPath = flag.String("program", "", "DDlog program file (required)")
		addr        = flag.String("addr", "127.0.0.1:8090", "HTTP listen address")
		engine      = flag.String("engine", "sya", "engine: sya | deepdive")
		metric      = flag.String("metric", "euclidean", "distance metric: euclidean | miles | km")
		epochs      = flag.Int("epochs", 1000, "default inference epoch budget")
		warmupEp    = flag.Int("warmup-epochs", 0, "initial sampling epochs before serving (0 = -epochs)")
		upsertEp    = flag.Int("upsert-epochs", 0, "incremental epochs after each evidence upsert (0 = -epochs)")
		cacheTTL    = flag.Duration("cache-ttl", 0, "score-cache entry lifetime (0 = entries live until the next resample)")
		localBudget = flag.Int("local-budget", 0, "default lazy-grounding variable budget for point queries: answer from a bounded subgraph of at most N sampled variables (0 = full-graph path; ?budget= overrides per request)")
		localEpochs = flag.Int("local-epochs", 0, "sampling epochs per lazy point query (0 = -epochs)")
		bandwidth   = flag.Float64("bandwidth", 50, "spatial weighing bandwidth")
		scale       = flag.Float64("scale", 1, "spatial weighing zero-distance scale")
		seed        = flag.Int64("seed", 1, "sampler seed")
		groundWork  = flag.Int("ground-workers", 0, "grounding worker-pool width (0 = GOMAXPROCS)")
		label       = flag.String("label", "", "metrics label: scope all series with {system=NAME}")
		traceOut    = flag.String("trace-out", "", "write structured JSONL phase-trace events to this file")
		traceMaxMB  = flag.Int("trace-max-mb", 0, "rotate -trace-out to <file>.1 when it exceeds this many MB (0 = unbounded)")
		traceRing   = flag.Int("trace-ring", 64, "completed request traces retained for /debug/traces (0 = request tracing off)")
		slowMS      = flag.Int("slow-ms", 0, "log requests slower than this many milliseconds as structured JSON (0 = off)")

		walPath       = flag.String("wal", "", "evidence write-ahead log file: append accepted upserts before applying, replay on boot (\"\" = durability off)")
		walSyncEvery  = flag.Int("wal-sync-every", 1, "fsync the WAL after every N appends (1 = every append)")
		walSnapEvery  = flag.Int("wal-snapshot-every", 64, "compact the WAL into its snapshot pair after N log records (0 = never)")
		maxUpserts    = flag.Int("max-queued-upserts", 32, "maximum in-flight evidence upserts before shedding with 429")
		upsertTimeout = flag.Duration("upsert-timeout", 0, "server-side deadline for the inference phase of one upsert (0 = client-bounded only)")
		readTimeout   = flag.Duration("read-timeout", time.Minute, "http.Server ReadTimeout (whole-request read deadline)")
		readHdrTO     = flag.Duration("read-header-timeout", 10*time.Second, "http.Server ReadHeaderTimeout (slowloris guard)")
		writeTimeout  = flag.Duration("write-timeout", 5*time.Minute, "http.Server WriteTimeout (bounds slow upserts + slow readers)")
		drainTimeout  = flag.Duration("drain-timeout", 5*time.Second, "how long shutdown waits for in-flight requests before force-closing")
	)
	flag.Var(&loads, "load", "Relation=file.csv (repeatable)")
	flag.Parse()
	if *programPath == "" {
		fmt.Fprintln(os.Stderr, "syad: -program is required")
		flag.Usage()
		os.Exit(2)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	err := run(ctx, runOpts{
		program: *programPath, loads: loads.Pairs,
		addr: *addr, engine: *engine, metric: *metric,
		epochs: *epochs, warmupEpochs: *warmupEp, upsertEpochs: *upsertEp,
		cacheTTL: *cacheTTL, localBudget: *localBudget, localEpochs: *localEpochs,
		bandwidth: *bandwidth, scale: *scale, seed: *seed,
		groundWorkers: *groundWork, label: *label,
		traceOut: *traceOut, traceMaxMB: *traceMaxMB,
		traceRing: *traceRing, slowMS: *slowMS,
		walPath: *walPath, walSyncEvery: *walSyncEvery, walSnapshotEvery: *walSnapEvery,
		maxQueuedUpserts: *maxUpserts, upsertTimeout: *upsertTimeout,
		readTimeout: *readTimeout, readHeaderTimeout: *readHdrTO,
		writeTimeout: *writeTimeout, drainTimeout: *drainTimeout,
		ready: func(addr string) {
			fmt.Fprintf(os.Stderr, "# syad: serving http://%s (metrics at /metrics, pprof under /debug/pprof/)\n", addr)
		},
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "syad: %v\n", err)
		os.Exit(1)
	}
}

// runOpts carries the resolved command-line configuration into run.
type runOpts struct {
	program string
	loads   [][2]string
	addr    string
	engine  string
	metric  string

	epochs       int
	warmupEpochs int
	upsertEpochs int
	cacheTTL     time.Duration
	localBudget  int
	localEpochs  int

	bandwidth     float64
	scale         float64
	seed          int64
	groundWorkers int
	label         string
	traceOut      string
	traceMaxMB    int
	traceRing     int
	slowMS        int

	walPath          string
	walSyncEvery     int
	walSnapshotEvery int
	maxQueuedUpserts int
	upsertTimeout    time.Duration

	readTimeout       time.Duration
	readHeaderTimeout time.Duration
	writeTimeout      time.Duration
	drainTimeout      time.Duration

	// ready, when non-nil, is called with the bound listen address once the
	// server is warmed up and accepting requests.
	ready func(addr string)
}

// run builds the system, warms it up, and serves until ctx is canceled.
func run(ctx context.Context, o runOpts) (err error) {
	src, err := os.ReadFile(o.program)
	if err != nil {
		return err
	}
	reg := obs.NewRegistry()
	cfg := core.Config{
		Epochs:    o.epochs,
		Bandwidth: o.bandwidth, SpatialScale: o.scale,
		Seed:          o.seed,
		GroundWorkers: o.groundWorkers,
		Metrics:       reg,
		MetricLabel:   o.label,
	}
	if cfg.Engine, err = cliutil.ParseEngine(o.engine); err != nil {
		return err
	}
	if cfg.Metric, err = cliutil.ParseMetric(o.metric); err != nil {
		return err
	}
	if o.traceOut != "" {
		tr, err := obs.OpenTraceRotating(o.traceOut, int64(o.traceMaxMB)<<20)
		if err != nil {
			return err
		}
		cfg.Trace = tr
		defer func() {
			if err := tr.Close(); err != nil {
				fmt.Fprintf(os.Stderr, "# WARNING: trace %s: %v\n", o.traceOut, err)
			}
		}()
	}
	sys := core.NewSystem(cfg)
	if err := sys.LoadProgram(string(src)); err != nil {
		sys.Close()
		return err
	}
	for _, pair := range o.loads {
		if err := cliutil.LoadCSV(sys, pair[0], pair[1]); err != nil {
			sys.Close()
			return fmt.Errorf("loading %s from %s: %w", pair[0], pair[1], err)
		}
	}
	if _, err := sys.GroundContext(ctx); err != nil {
		sys.Close()
		return err
	}

	serveMetrics := reg
	if o.label != "" {
		serveMetrics = reg.With("system", o.label)
	}
	var tracer *obs.Tracer
	if o.traceRing > 0 {
		tracer = obs.NewTracer(obs.TracerOptions{
			RingSize:      o.traceRing,
			SlowThreshold: time.Duration(o.slowMS) * time.Millisecond,
			Logger:        slog.New(slog.NewJSONHandler(os.Stderr, nil)),
		})
	}
	srv, err := serve.New(sys, serve.Options{
		Epochs:           o.upsertEpochs,
		CacheTTL:         o.cacheTTL,
		Metrics:          serveMetrics,
		WALPath:          o.walPath,
		WALSyncEvery:     o.walSyncEvery,
		WALSnapshotEvery: o.walSnapshotEvery,
		MaxQueuedUpserts: o.maxQueuedUpserts,
		UpsertTimeout:    o.upsertTimeout,
		Tracer:           tracer,
		LocalBudget:      o.localBudget,
		LocalEpochs:      o.localEpochs,
	})
	if err != nil {
		sys.Close()
		return err
	}
	// Close syncs the WAL: surface its error so a failed final fsync is not
	// silently swallowed on shutdown.
	defer func() {
		if cerr := srv.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}()
	if o.walPath != "" {
		rs := srv.ReplayStats()
		fmt.Fprintf(os.Stderr, "# syad: wal %s: replayed %d snapshot + %d log records", o.walPath, rs.SnapshotRecords, rs.LogRecords)
		if rs.Truncated {
			fmt.Fprintf(os.Stderr, " (torn tail truncated at byte %d)", rs.TruncatedAt)
		}
		if rs.SnapshotFallback {
			fmt.Fprint(os.Stderr, " (snapshot fell back to previous generation)")
		}
		fmt.Fprintln(os.Stderr)
	}
	if err := srv.Warmup(ctx, o.warmupEpochs); err != nil {
		return err
	}

	ln, err := net.Listen("tcp", o.addr)
	if err != nil {
		return err
	}
	if o.ready != nil {
		o.ready(ln.Addr().String())
	}
	// The explicit timeouts close the slowloris hole: a client that trickles
	// its headers or body, or never reads its response, is disconnected
	// instead of pinning a connection (and an upsert slot) forever.
	hsrv := &http.Server{
		Handler:           srv.Handler(),
		ReadTimeout:       o.readTimeout,
		ReadHeaderTimeout: o.readHeaderTimeout,
		WriteTimeout:      o.writeTimeout,
	}
	errc := make(chan error, 1)
	go func() { errc <- hsrv.Serve(ln) }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	// Drain in-flight requests, then force-close stragglers. The deferred
	// srv.Close fsyncs the WAL after the drain, so a SIGTERM never loses an
	// acked upsert.
	shutdownCtx, cancel := context.WithTimeout(context.Background(), o.drainTimeout)
	defer cancel()
	if err := hsrv.Shutdown(shutdownCtx); err != nil {
		hsrv.Close()
	}
	<-errc // always http.ErrServerClosed after Shutdown/Close
	return nil
}
