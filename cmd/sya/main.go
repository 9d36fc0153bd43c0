// Command sya compiles and runs a spatial DDlog program: it loads input
// relations from CSV files, grounds the program into a spatial factor
// graph, runs inference, and prints the factual score of every ground atom.
//
// Usage:
//
//	sya -program kb.ddlog -load County=counties.csv -load CountyEvidence=ev.csv \
//	    [-engine sya|deepdive] [-metric euclidean|miles|km] [-epochs N] \
//	    [-bandwidth B] [-scale S] [-seed N] [-stats] [-workers N] \
//	    [-timeout D] \
//	    [-metrics-addr host:port] [-trace-out run.json] \
//	    [-progress N] [-local-atom relation|terms -local-budget N]
//	    [-shards N [-shard-addrs host:port,...]]
//
// CSV files need a header row naming the relation's columns (order free).
// Spatial columns parse WKT ("POINT (1 2)"); boolean columns accept
// true/false/1/0; empty cells load as NULL.
//
// Long runs are interruptible: -timeout bounds the whole pipeline, and ^C
// (SIGINT/SIGTERM) stops sampling gracefully — either way the scores
// accumulated so far are still printed, flagged as partial.
//
// Observability: -metrics-addr serves live Prometheus-text /metrics and
// /debug/pprof/ while the run is in flight; -trace-out
// writes the finished run as one JSON line — the same span-tree record syad
// serves per request at /debug/traces: a core.ground stage with a child per
// rule and per @spatial relation, learn.weights with an event per iteration,
// core.infer with one sweep span (epoch count, stop reason) carrying the
// -progress readings as events; -progress N prints a
// convergence diagnostic line to stderr every N epochs.
//
// Grounding and sampling run on worker pools sized by -workers (default
// GOMAXPROCS); the grounded factor graph is bit-identical for any width.
//
// Sharded batch inference: -shards N partitions the ground graph by pyramid
// subtree into N share-nothing shards (each with its own subgraph, compiled
// kernels and sampler) synchronized by a halo exchange at every epoch
// barrier; -shard-addrs switches the exchange from in-process channels to
// length-prefixed CRC-framed TCP.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"sort"
	"strings"
	"syscall"
	"time"

	"repro/internal/cliutil"
	"repro/internal/core"
	"repro/internal/gibbs"
	"repro/internal/learn"
	"repro/internal/obs"
)

func main() {
	o, err := parseArgs(os.Args[1:], os.Stderr)
	if errors.Is(err, flag.ErrHelp) {
		return
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "sya: %v\n", err)
		os.Exit(2)
	}
	if err := run(o); err != nil {
		fmt.Fprintf(os.Stderr, "sya: %v\n", err)
		os.Exit(1)
	}
}

// runOpts carries the resolved command-line configuration into run: the
// shared pipeline flags, then sya's own.
type runOpts struct {
	cliutil.Pipeline

	stats      bool
	learnIters int

	timeout time.Duration

	metricsAddr string
	traceOut    string
	progress    int
	shards      int
	shardAddrs  string

	localAtom   string
	localBudget int
}

// parseArgs resolves a command line into runOpts: the shared pipeline flags
// are bound by cliutil, sya's own are declared here, each straight into the
// field run reads. Parse errors and usage go to stderr the way the flag
// package writes them; the returned error repeats the reason.
func parseArgs(args []string, stderr io.Writer) (runOpts, error) {
	var o runOpts
	fs := flag.NewFlagSet("sya", flag.ContinueOnError)
	fs.SetOutput(stderr)
	o.Bind(fs)
	fs.BoolVar(&o.stats, "stats", false, "print grounding statistics")
	fs.IntVar(&o.learnIters, "learn", 0, "learn rule weights from evidence for N iterations before inference")
	fs.DurationVar(&o.timeout, "timeout", 0, "bound the whole run; partial scores are still printed (0 = none)")
	fs.StringVar(&o.metricsAddr, "metrics-addr", "", "serve /metrics and /debug/pprof on this address while running")
	fs.StringVar(&o.traceOut, "trace-out", "", "write the run's span tree (one JSON trace record, the /debug/traces schema) to this file")
	fs.IntVar(&o.progress, "progress", 0, "print a convergence diagnostic to stderr every N epochs (0 = off)")
	fs.StringVar(&o.localAtom, "local-atom", "", "answer one atom key (relation|term,...) by lazy local grounding instead of full inference")
	fs.IntVar(&o.localBudget, "local-budget", 0, "variable budget for -local-atom: sample a bounded subgraph of at most N variables (0 = 256)")
	fs.IntVar(&o.shards, "shards", 0, "partition the ground graph into N share-nothing shards with halo exchange (sya engine, batch inference; 0/1 = single-process)")
	fs.StringVar(&o.shardAddrs, "shard-addrs", "", "comma-separated per-shard TCP listen addresses (length -shards); empty = in-process transports")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	err := o.Validate()
	switch {
	case err != nil:
	case o.shardAddrs != "" && strings.Count(o.shardAddrs, ",")+1 != o.shards:
		err = fmt.Errorf("-shard-addrs %q does not list one address per shard (-shards is %d)", o.shardAddrs, o.shards)
	}
	if err != nil {
		fs.Usage()
	}
	return o, err
}

func run(o runOpts) (err error) {
	// One context governs the whole pipeline: grounding, learning and
	// sampling all stop within a chunk of ^C or the -timeout deadline.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if o.timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, o.timeout)
		defer cancel()
	}
	cfg := &o.Config
	cfg.Shards = o.shards
	if o.shardAddrs != "" {
		cfg.ShardAddrs = strings.Split(o.shardAddrs, ",")
	}
	if o.metricsAddr != "" {
		cfg.Metrics = obs.NewRegistry()
		srv, err := obs.Serve(o.metricsAddr, cfg.Metrics)
		if err != nil {
			return err
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "# metrics: http://%s/metrics (pprof under /debug/pprof/)\n", srv.Addr)
	}
	if o.traceOut != "" {
		// The whole run is one trace, like a served request: every layer
		// below nests its stages under the span on ctx, and the finished
		// record is written as one JSON line.
		f, ferr := os.Create(o.traceOut)
		if ferr != nil {
			return ferr
		}
		tracer := obs.NewTracer(obs.TracerOptions{RingSize: 1})
		root := tracer.StartRequest("batch", "")
		ctx = obs.ContextWithSpan(ctx, root)
		defer func() {
			outcome := "ok"
			if err != nil {
				outcome = "error"
			}
			root.Finish(outcome)
			werr := json.NewEncoder(f).Encode(tracer.Recent(1)[0])
			if cerr := f.Close(); werr == nil {
				werr = cerr
			}
			if werr != nil {
				fmt.Fprintf(os.Stderr, "# WARNING: trace %s: %v\n", o.traceOut, werr)
			}
		}()
	}
	if o.progress > 0 {
		cfg.ProgressEvery = o.progress
		cfg.Progress = func(p gibbs.Progress) {
			fmt.Fprintf(os.Stderr, "# progress: %s epoch %d, max-delta %.6f, spread %.6f\n",
				p.Sampler, p.Epoch, p.Diag.MaxDelta, p.Diag.Spread)
		}
	}
	s, err := o.Build(ctx)
	if err != nil {
		return err
	}
	defer s.Close()
	if o.stats {
		st := s.Grounding().Stats
		fmt.Printf("# grounding: %d vars (%d evidence, %d query), %d logical factors, %d spatial pairs (%d ground spatial factors) in %v\n",
			st.Vars, st.EvidenceVars, st.QueryVars, st.LogicalFactors,
			st.SpatialPairs, st.GroundSpatialFactors, st.TotalTime.Round(1e6))
		var rules []string
		for r := range st.RuleFactors {
			rules = append(rules, r)
		}
		sort.Strings(rules)
		for _, r := range rules {
			fmt.Printf("# rule %s: %d factors\n", r, st.RuleFactors[r])
		}
	}
	if o.learnIters > 0 {
		weights, err := s.LearnWeightsContext(ctx, learn.Options{Iterations: o.learnIters, Seed: cfg.Seed})
		if err != nil {
			return err
		}
		var names []string
		for r := range weights {
			names = append(names, r)
		}
		sort.Strings(names)
		for _, r := range names {
			fmt.Printf("# learned weight %s = %+.4f\n", r, weights[r])
		}
	}
	if o.localAtom != "" {
		return runLocal(ctx, s, o)
	}
	scores, stats, err := s.InferContext(ctx, cfg.Epochs)
	if err != nil {
		var wp *gibbs.WorkerPanicError
		if errors.As(err, &wp) {
			fmt.Fprintf(os.Stderr, "sya: sampler worker panicked; chain state kept at the last epoch barrier\n%s", wp.Stack)
		}
		return err
	}
	fmt.Printf("# inference: %d epochs in %v (%s engine)\n", cfg.Epochs, s.InferenceTime().Round(1e6), cfg.Engine)
	if stats.DiagValid {
		fmt.Printf("# convergence: max-delta %.6f, spread %.6f at epoch %d\n",
			stats.Diag.MaxDelta, stats.Diag.Spread, stats.Diag.Epoch)
	}
	if stats.Reason != gibbs.ReasonDone {
		fmt.Printf("# WARNING: run stopped early (%s) after %d full epochs — scores below are partial\n",
			stats.Reason, stats.Epochs)
	}
	// Print factual scores per variable relation, sorted by key.
	for _, rel := range s.Program().VariableRelations() {
		type entry struct {
			key string
			m   []float64
		}
		var entries []entry
		scores.Each(rel.Name, func(key string, _ int32, m []float64) bool {
			entries = append(entries, entry{key: key, m: m})
			return true
		})
		sort.Slice(entries, func(i, j int) bool { return entries[i].key < entries[j].key })
		for _, e := range entries {
			if len(e.m) == 2 {
				fmt.Printf("%s\t%.4f\n", e.key, e.m[1])
				continue
			}
			parts := make([]string, len(e.m))
			for i, p := range e.m {
				parts[i] = fmt.Sprintf("%.4f", p)
			}
			fmt.Printf("%s\t[%s]\n", e.key, strings.Join(parts, " "))
		}
	}
	return nil
}

// runLocal answers one atom by query-driven lazy grounding: a bounded
// subgraph around the atom is extracted, compiled and sampled — the rest of
// the KB is never touched by inference.
func runLocal(ctx context.Context, s *core.System, o runOpts) error {
	res, err := s.QueryLocal(ctx, o.localAtom, core.LocalBudget{MaxVars: o.localBudget, Epochs: o.Config.Epochs})
	if err != nil {
		return err
	}
	fmt.Printf("# local query: %d vars (+%d frozen boundary), %d factors, %d spatial pairs\n",
		res.Vars, res.BoundaryVars, res.Factors, res.SpatialPairs)
	fmt.Printf("# local query: ground %v, sample %v, truncation bound %.4f (truncated: %v)\n",
		res.GroundTime.Round(time.Microsecond), res.SampleTime.Round(time.Microsecond), res.ErrorBound, res.Truncated)
	keys := make([]string, 0, len(res.Interior))
	for k := range res.Interior {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		m := res.Interior[k]
		if len(m) == 2 {
			fmt.Printf("%s\t%.4f\n", k, m[1])
			continue
		}
		parts := make([]string, len(m))
		for i, p := range m {
			parts[i] = fmt.Sprintf("%.4f", p)
		}
		fmt.Printf("%s\t[%s]\n", k, strings.Join(parts, " "))
	}
	return nil
}
