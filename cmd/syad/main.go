// Command syad runs a resident KB server: it loads and grounds a spatial
// DDlog program exactly like the sya batch CLI, warms the sampler up, and
// then serves factual-score queries and evidence upserts over HTTP until
// interrupted.
//
// Usage:
//
//	syad -program kb.ddlog -load County=counties.csv -load CountyEvidence=ev.csv \
//	    [-addr host:port] [-engine sya|deepdive] [-metric euclidean|miles|km] \
//	    [-epochs N] [-warmup-epochs N] [-upsert-epochs N] \
//	    [-local-budget N] [-local-epochs N] \
//	    [-bandwidth B] [-scale S] [-seed N] [-workers N] \
//	    [-trace-ring N] [-slow-ms D] \
//	    [-wal file.wal] [-max-queued-upserts N] [-upsert-timeout D] \
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
// -slow-ms are logged as structured JSON on stderr. The boot (ground, WAL
// replay, warm-up) is the ring's first trace, in the same stage vocabulary
// as a batch `sya -trace-out` run, and a slow boot reaches the same log.
// -trace-ring 0 turns tracing off entirely (the handlers then pay only a
// branch per stage).
//
// Evidence upserts fold in without a restart: the delta grounder re-evaluates
// only the rules that touch the upserted relation, pins the affected
// variables, and resamples the dirty concliques for -upsert-epochs epochs.
// A structural change (new ground atoms, variable-relation rows) falls back
// to a full re-ground + re-warmup automatically.
//
// With -wal, every accepted evidence batch is appended to a CRC-framed
// write-ahead log and fsynced before it is applied, and replayed on the next
// boot — a crash (even SIGKILL mid-upsert) loses nothing that was acked.
// Overload is shed: at most -max-queued-upserts evidence requests may be in
// flight (429 beyond that), and reads during an upsert or re-ground are
// served from the previous generation's snapshot with "stale": true.
//
// The pipeline flags (-program, -load, -engine, -metric, -epochs,
// -bandwidth, -scale, -seed, -workers) are bound once in cliutil and
// shared with the sya CLI, so a batch invocation can be lifted into a
// resident server by swapping the binary name. ^C / SIGTERM drains
// in-flight requests for -drain-timeout, closes the WAL, and exits
// cleanly.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/cliutil"
	"repro/internal/obs"
	"repro/internal/serve"
)

func main() {
	o, err := parseArgs(os.Args[1:], os.Stderr)
	if errors.Is(err, flag.ErrHelp) {
		return
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "syad: %v\n", err)
		os.Exit(2)
	}
	o.ready = func(addr string) {
		fmt.Fprintf(os.Stderr, "# syad: serving http://%s (metrics at /metrics, pprof under /debug/pprof/)\n", addr)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, o); err != nil {
		fmt.Fprintf(os.Stderr, "syad: %v\n", err)
		os.Exit(1)
	}
}

// runOpts carries the resolved command-line configuration into run: the
// shared pipeline flags, then syad's own.
type runOpts struct {
	cliutil.Pipeline
	addr string

	warmupEpochs int
	upsertEpochs int
	localBudget  int
	localEpochs  int

	traceRing int
	slowMS    int

	walPath          string
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

// parseArgs resolves a command line into runOpts: the shared pipeline flags
// are bound by cliutil, syad's own are declared here, each straight into the
// field run reads. Parse errors and usage go to stderr the way the flag
// package writes them; the returned error repeats the reason.
func parseArgs(args []string, stderr io.Writer) (runOpts, error) {
	var o runOpts
	fs := flag.NewFlagSet("syad", flag.ContinueOnError)
	fs.SetOutput(stderr)
	o.Bind(fs)
	fs.StringVar(&o.addr, "addr", "127.0.0.1:8090", "HTTP listen address")
	fs.IntVar(&o.warmupEpochs, "warmup-epochs", 0, "initial sampling epochs before serving (0 = -epochs)")
	fs.IntVar(&o.upsertEpochs, "upsert-epochs", 0, "incremental epochs after each evidence upsert (0 = -epochs)")
	fs.IntVar(&o.localBudget, "local-budget", 0, "default lazy-grounding variable budget for point queries: answer from a bounded subgraph of at most N sampled variables (0 = full-graph path; ?budget= overrides per request)")
	fs.IntVar(&o.localEpochs, "local-epochs", 0, "sampling epochs per lazy point query (0 = -epochs)")
	fs.IntVar(&o.traceRing, "trace-ring", 64, "completed traces (requests and the boot) retained for /debug/traces (0 = tracing off)")
	fs.IntVar(&o.slowMS, "slow-ms", 0, "log requests (and a boot) slower than this many milliseconds as structured JSON (0 = off)")

	fs.StringVar(&o.walPath, "wal", "", "evidence write-ahead log file: append accepted upserts before applying, replay on boot (\"\" = durability off)")
	fs.IntVar(&o.maxQueuedUpserts, "max-queued-upserts", 32, "maximum in-flight evidence upserts before shedding with 429")
	fs.DurationVar(&o.upsertTimeout, "upsert-timeout", 0, "server-side deadline for the inference phase of one upsert (0 = client-bounded only)")
	fs.DurationVar(&o.readTimeout, "read-timeout", time.Minute, "http.Server ReadTimeout (whole-request read deadline)")
	fs.DurationVar(&o.readHeaderTimeout, "read-header-timeout", 10*time.Second, "http.Server ReadHeaderTimeout (slowloris guard)")
	fs.DurationVar(&o.writeTimeout, "write-timeout", 5*time.Minute, "http.Server WriteTimeout (bounds slow upserts + slow readers)")
	fs.DurationVar(&o.drainTimeout, "drain-timeout", 5*time.Second, "how long shutdown waits for in-flight requests before force-closing")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if err := o.Validate(); err != nil {
		fs.Usage()
		return o, err
	}
	return o, nil
}

// run boots the server and serves until ctx is canceled.
func run(ctx context.Context, o runOpts) (err error) {
	var tracer *obs.Tracer
	if o.traceRing > 0 {
		tracer = obs.NewTracer(obs.TracerOptions{
			RingSize:      o.traceRing,
			SlowThreshold: time.Duration(o.slowMS) * time.Millisecond,
			Logger:        slog.New(slog.NewJSONHandler(os.Stderr, nil)),
		})
	}
	// The boot is a trace like any request: it lands in the ring served at
	// /debug/traces, and a slow one reaches the -slow-ms log.
	span := tracer.StartRequest("boot", "")
	srv, err := boot(obs.ContextWithSpan(ctx, span), o, tracer)
	if err != nil {
		span.Finish("error")
		return err
	}
	span.Finish("ok")
	// Close closes the WAL: surface its error rather than swallow it on
	// shutdown.
	defer func() {
		if cerr := srv.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}()

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
	// Drain in-flight requests, then force-close stragglers; the deferred
	// srv.Close closes the WAL after the drain.
	shutdownCtx, cancel := context.WithTimeout(context.Background(), o.drainTimeout)
	defer cancel()
	if err := hsrv.Shutdown(shutdownCtx); err != nil {
		hsrv.Close()
	}
	<-errc // always http.ErrServerClosed after Shutdown/Close
	return nil
}

// boot builds the system — load, ground, WAL replay, warm-up — under the
// boot span on ctx: core.ground, serve.boot (serve.New: the replay and the
// serving indexes) and serve.warmup are its stages. The returned server
// owns the system.
func boot(ctx context.Context, o runOpts, tracer *obs.Tracer) (*serve.Server, error) {
	reg := obs.NewRegistry()
	o.Config.Metrics = reg
	sys, err := o.Build(ctx)
	if err != nil {
		return nil, err
	}

	sp := obs.SpanFromContext(ctx).Child("serve.boot")
	srv, err := serve.New(sys, serve.Options{
		Epochs:           o.upsertEpochs,
		Metrics:          reg,
		WALPath:          o.walPath,
		MaxQueuedUpserts: o.maxQueuedUpserts,
		UpsertTimeout:    o.upsertTimeout,
		Tracer:           tracer,
		LocalBudget:      o.localBudget,
		LocalEpochs:      o.localEpochs,
	})
	if err != nil {
		sys.Close()
		return nil, err
	}
	rs := srv.ReplayStats()
	sp.Notef("wal_records=%d", rs.LogRecords)
	sp.End()
	if o.walPath != "" {
		fmt.Fprintf(os.Stderr, "# syad: wal %s: replayed %d records", o.walPath, rs.LogRecords)
		if rs.Truncated {
			fmt.Fprintf(os.Stderr, " (torn tail truncated at byte %d)", rs.TruncatedAt)
		}
		fmt.Fprintln(os.Stderr)
	}
	if err := srv.Warmup(ctx, o.warmupEpochs); err != nil {
		srv.Close() // the warm-up error is the one to report
		return nil, err
	}
	return srv, nil
}
