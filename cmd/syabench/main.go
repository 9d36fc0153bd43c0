// Command syabench regenerates the paper's evaluation tables and figures
// (Section VI) over the synthetic GWDB and NYCCAS datasets. It measures
// nothing else: the system's performance ledger (batch builds, sharded
// inference, serving reads, upserts and lazy queries, per-layer timings) is
// the benchmark under benchmark/, run with `bash benchmark/run.sh`.
//
// Usage:
//
//	syabench [flags] <experiment>...
//	syabench -list
//	syabench all
//
// Experiments: table1, fig1, fig8, fig9, fig10, fig11, fig12, fig13,
// fig14, ablation. Flags scale the workloads; -paper approaches the paper's
// sizes (slow), with any explicitly given -wells/-side/-epochs/-runs applied
// on top. -metrics-addr serves live Prometheus metrics and pprof for the
// duration of the suite (where an experiment's time went is `bash
// benchmark/run.sh --trace 1`). -phase=grounding restricts the suite to
// grounding-only comparisons (table1, fig9, fig10 with inference skipped);
// -workers sizes the grounding and sampler worker pools.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"time"

	"repro/internal/bench"
	"repro/internal/obs"
)

var experiments = map[string]func(bench.Params) (*bench.Table, error){
	"table1":   bench.Table1,
	"fig1":     bench.Fig1,
	"fig8":     bench.Fig8,
	"fig9":     bench.Fig9,
	"fig10":    bench.Fig10,
	"fig11":    bench.Fig11,
	"fig12":    bench.Fig12,
	"fig13":    bench.Fig13,
	"fig14":    bench.Fig14,
	"ablation": bench.Ablation,
}

// order fixes the "all" execution sequence.
var order = []string{
	"table1", "fig1", "fig8", "fig9", "fig10", "fig11", "fig12", "fig13", "fig14", "ablation",
}

// groundingPhase lists the experiments that remain meaningful under
// -phase=grounding (their ground-time/size columns do not need inference);
// the rest are inference-bound and are skipped in that mode.
var groundingPhase = map[string]bool{
	"table1": true,
	"fig9":   true,
	"fig10":  true,
}

// runOptions carries the flags that configure the run around the
// experiments rather than the experiments themselves.
type runOptions struct {
	list        bool
	timeout     time.Duration
	metricsAddr string
}

// parseArgs resolves a command line into the suite parameters and the
// experiments to run, in order. Parse errors and usage go to stderr the way
// the flag package writes them; the returned error repeats the reason.
func parseArgs(args []string, stderr io.Writer) (bench.Params, []string, runOptions, error) {
	p := bench.DefaultParams()
	var o runOptions
	fs := flag.NewFlagSet("syabench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.BoolVar(&o.list, "list", false, "list experiments and exit")
	paper := fs.Bool("paper", false, "approach the paper's workload sizes (slow); explicit -wells/-side/-epochs/-runs still apply")
	fs.IntVar(&p.GWDBWells, "wells", p.GWDBWells, "GWDB synthetic well count")
	fs.IntVar(&p.NYCCASSide, "side", p.NYCCASSide, "NYCCAS raster side length (cells)")
	fs.IntVar(&p.Epochs, "epochs", p.Epochs, "inference epoch budget E")
	fs.IntVar(&p.Runs, "runs", p.Runs, "averaging runs for quality metrics")
	fs.Int64Var(&p.Seed, "seed", p.Seed, "base RNG seed")
	fs.IntVar(&p.Workers, "workers", p.Workers, "grounding and sampler worker-pool width (0 = GOMAXPROCS, 1 = sequential; the ground graph is identical)")
	phase := fs.String("phase", "", "restrict to one pipeline phase: grounding (skip inference, blank quality columns)")
	fs.DurationVar(&o.timeout, "timeout", 0, "stop starting new experiments after this long (0 = none)")
	fs.StringVar(&o.metricsAddr, "metrics-addr", "", "serve live /metrics and pprof on this address while experiments run")
	if err := fs.Parse(args); err != nil {
		return p, nil, o, err
	}
	if *paper {
		// Paper scale replaces the default of every scale flag; a flag the
		// user actually gave (Visit walks exactly those) keeps its value.
		pp := bench.PaperScaleParams()
		scale := map[string]struct {
			dst   *int
			paper int
		}{
			"wells":  {&p.GWDBWells, pp.GWDBWells},
			"side":   {&p.NYCCASSide, pp.NYCCASSide},
			"epochs": {&p.Epochs, pp.Epochs},
			"runs":   {&p.Runs, pp.Runs},
		}
		fs.Visit(func(f *flag.Flag) { delete(scale, f.Name) })
		for _, s := range scale {
			*s.dst = s.paper
		}
	}
	switch *phase {
	case "":
	case "grounding":
		p.GroundOnly = true
	default:
		return p, nil, o, fmt.Errorf("unknown -phase %q (supported: grounding)", *phase)
	}
	if o.list {
		return p, nil, o, nil
	}
	names := fs.Args()
	if len(names) == 0 {
		return p, nil, o, errors.New("usage: syabench [flags] <experiment>... | all | -list")
	}
	if len(names) == 1 && names[0] == "all" {
		names = order
	}
	for _, name := range names {
		if experiments[name] == nil {
			return p, nil, o, fmt.Errorf("unknown experiment %q (try -list)", name)
		}
	}
	return p, names, o, nil
}

func main() {
	p, names, o, err := parseArgs(os.Args[1:], os.Stderr)
	if errors.Is(err, flag.ErrHelp) {
		return
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "syabench: %v\n", err)
		os.Exit(2)
	}
	if o.list {
		names := append([]string(nil), order...)
		sort.Strings(names)
		for _, n := range names {
			fmt.Println(n)
		}
		return
	}
	if o.metricsAddr != "" {
		p.Metrics = obs.NewRegistry()
		srv, err := obs.Serve(o.metricsAddr, p.Metrics)
		if err != nil {
			fmt.Fprintf(os.Stderr, "syabench: %v\n", err)
			os.Exit(1)
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "# metrics: http://%s/metrics (pprof under /debug/pprof/)\n", srv.Addr)
	}
	// -timeout is a between-experiments budget: each experiment runs to
	// completion (its tables stay internally consistent), but once the
	// deadline passes no further experiment starts.
	var deadline time.Time
	if o.timeout > 0 {
		deadline = time.Now().Add(o.timeout)
	}
	for i, name := range names {
		if p.GroundOnly && !groundingPhase[name] {
			fmt.Fprintf(os.Stderr, "syabench: -phase=grounding: skipping inference-bound experiment %s\n", name)
			continue
		}
		if !deadline.IsZero() && time.Now().After(deadline) {
			fmt.Fprintf(os.Stderr, "syabench: -timeout %v reached, skipping %v\n", o.timeout, names[i:])
			break
		}
		start := time.Now()
		tbl, err := experiments[name](p)
		if err != nil {
			fmt.Fprintf(os.Stderr, "syabench: %s: %v\n", name, err)
			os.Exit(1)
		}
		tbl.Fprint(os.Stdout)
		fmt.Printf("(%s in %v)\n\n", name, time.Since(start).Round(time.Millisecond))
	}
}
