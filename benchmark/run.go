package main

import (
	"context"
	"fmt"
	"os"
	"time"

	"repro/internal/core"
	"repro/internal/grounding"
	"repro/internal/obs"
)

// env is one run: a workload, a seed, and what the run has measured so far.
type env struct {
	spec    spec
	seed    int64
	seconds float64
	tmp     string // WAL files live under here

	// rec is the traced pass's span store; nil on the untraced pass, where
	// every recorder method only times.
	rec   *recorder
	roots map[string]int // named root spans, for layers.json

	digest    string
	notes     []string
	attempted int
	failed    int
	metrics   map[string]float64
	// layer holds the traced pass's samples per per-layer metric.
	layer map[string][]float64
}

// minReps is the fewest reps a batch region runs, however short --seconds.
const minReps = 3

// setups is how many times a serving or shard workload sets up, each set-up
// followed by a fifth of the measured region; setup_s, ground_s and infer_s
// of those workloads are taken over the five.
const setups = 5

// fail counts a failed operation and keeps the first few reasons.
func (e *env) fail(format string, args ...any) {
	e.failed++
	if e.failed <= 5 {
		e.notes = append(e.notes, "FAILED: "+fmt.Sprintf(format, args...))
	}
}

func (e *env) note(format string, args ...any) {
	e.notes = append(e.notes, fmt.Sprintf(format, args...))
}

func (e *env) run() error {
	e.metrics = map[string]float64{}
	e.roots = map[string]int{}
	e.digest = e.spec.generate(e.seed).digest()
	if e.seed == 1 && e.spec.digest != "" && e.digest != e.spec.digest {
		return fmt.Errorf("seed-1 inputs hash to %s, pinned %s: internal/datagen, a DDlog program or the workload's configuration changed, so earlier numbers no longer describe this workload",
			e.digest, e.spec.digest)
	}
	if err := os.MkdirAll(e.tmp, 0o755); err != nil {
		return err
	}
	if e.rec != nil {
		return e.runTraced()
	}
	switch e.spec.kind {
	case kindBatch:
		return e.runBatch()
	case kindShard:
		return e.runShard()
	default:
		return e.runServe()
	}
}

// built is a System carried through load and Ground, with how long each took.
type built struct {
	data   *dataset
	sys    *core.System
	ground *grounding.Result
	// setupDur covers datagen, LoadProgram and LoadRows; groundDur is
	// System.Ground alone.
	setupDur, groundDur time.Duration
	loadDur             time.Duration // LoadRows alone
	groundSpan          int
}

// construct generates the inputs, loads them and grounds, under parent when
// tracing. reg is the registry the program reports to (nil untraced).
func (e *env) construct(parent int, reg *obs.Registry) (*built, error) {
	b := &built{}
	_, genDur, _ := e.rec.stage("bench.datagen", parent, func() error {
		b.data = e.spec.generate(e.seed)
		return nil
	})
	_, progDur, err := e.rec.stage("core.load_program", parent, func() error {
		cfg := b.data.cfg
		cfg.Metrics = reg
		var err error
		b.sys, err = b.data.newSystem(cfg)
		return err
	})
	if err != nil {
		return nil, err
	}
	_, rowsDur, err := e.rec.stage("storage.load", parent, func() error { return b.data.loadRows(b.sys) })
	if err != nil {
		b.sys.Close()
		return nil, err
	}
	b.setupDur, b.loadDur = genDur+progDur+rowsDur, rowsDur
	b.groundSpan, b.groundDur, err = e.rec.stage("core.ground", parent, func() error {
		var err error
		b.ground, err = b.sys.Ground()
		return err
	})
	if err != nil {
		b.sys.Close()
		return nil, fmt.Errorf("Ground: %w", err)
	}
	return b, nil
}

// scoreF1 evaluates batch scores against the planted truth.
func (b *built) scoreF1(scores *core.Scores) float64 {
	return b.data.f1(func(a *atom) (float64, bool) {
		return scores.TrueProb(b.data.relation, a.vals)
	})
}

// checkF1 counts an operation that fails when quality falls below the floor.
func (e *env) checkF1(f1 float64) {
	e.attempted++
	if f1 < e.spec.f1Floor {
		e.fail("f1 %.4f below floor %.2f", f1, e.spec.f1Floor)
	}
}

// samples collects the timings every workload reports.
type samples struct {
	setup, ground, infer, build []float64 // seconds
	// op holds the latency of each operation of the measured region in ms,
	// opAt when it completed, in seconds into the region. window is the
	// length of the windows the region is cut into; 0 makes every operation
	// a window of its own (the batch reps, each longer than any window).
	op, opAt []float64
	window   float64
	// rates holds one completion rate per slice, in operations per second.
	// Every slice of a serving workload replays the same seeded sequence
	// against a fresh server, so the rates differ by the host's doing only.
	rates   []float64
	f1      float64
	elapsed time.Duration // measured region, all slices together
	// peakRSS is the highest VmHWM any slice of the region reached, in MB;
	// rssReset says whether the mark could be reset before the region.
	peakRSS  float64
	rssReset bool
}

// slice starts one slice of the measured region: a fresh high-water mark.
func (s *samples) slice() { s.rssReset = resetPeakRSS() }

// sliceDone folds a finished slice in: its operations, shifted to where the
// slice lies in the region, and its peak memory. opAt is nil where the
// region is not cut into windows.
func (s *samples) sliceDone(op, opAt []float64, elapsed time.Duration) {
	for _, at := range opAt {
		s.opAt = append(s.opAt, s.elapsed.Seconds()+at)
	}
	s.op = append(s.op, op...)
	s.rates = append(s.rates, float64(len(op))/elapsed.Seconds())
	s.elapsed += elapsed
	s.peakRSS = max(s.peakRSS, peakRSSMB())
}

// serveWindow is the window length of the serving regions.
const serveWindow = 0.5

// quiet is the lower quartile of a sample of timings, which is what every
// timing is reported as (a rate as the upper quartile). This host alternates,
// every few seconds, between two speeds about 1.5× apart (half-second medians
// of one serve_read run: 87 88 92 126 131 130 µs, whichever vCPU the process
// is pinned to), and which share of a run is slow is the neighbours' doing,
// so a median over the run lands on either side. Interference only ever adds
// time: the lower quartile is the program's own speed as long as a quarter
// of the run was undisturbed.
func quiet(xs []float64) float64 { return percentile(xs, 0.25) }

// windows cuts the region's operations into windows by completion time and
// returns each full window's median latency.
func (s *samples) windows() []float64 {
	if s.window == 0 {
		return s.op
	}
	n := int(s.elapsed.Seconds() / s.window)
	if n < 2 { // a smoke-test region, shorter than two windows
		return []float64{median(s.op)}
	}
	buckets := make([][]float64, n)
	for i, at := range s.opAt {
		if w := int(at / s.window); w < n {
			buckets[w] = append(buckets[w], s.op[i])
		}
	}
	var p50s []float64
	for _, b := range buckets {
		if len(b) > 0 {
			p50s = append(p50s, median(b))
		}
	}
	return p50s
}

// quietOp is the operation latency publish reports.
func (s *samples) quietOp() float64 { return quiet(s.windows()) }

// publish turns the samples into the eight end-to-end metrics.
func (e *env) publish(s *samples) {
	e.metrics["setup_s"] = quiet(s.setup)
	e.metrics["ground_s"] = quiet(s.ground)
	e.metrics["infer_s"] = quiet(s.infer)
	e.metrics["build_s"] = quiet(s.build)
	e.metrics["f1"] = s.f1
	windows := s.windows()
	e.metrics["op_p50_ms"] = quiet(windows)
	e.metrics["ops_per_s"] = percentile(s.rates, 0.75)
	e.metrics["peak_rss_mb"] = s.peakRSS
	source := "VmHWM over the measured region"
	if !s.rssReset {
		source = "VmHWM over the whole process (/proc/self/clear_refs is not writable here)"
	}
	e.note("peak_rss_mb: %s; op_p50_ms over %d operations in %d windows of %.2f s", source, len(s.op), len(windows), s.elapsed.Seconds())
	e.note("ground_s samples %.3f", s.ground)
	e.note("infer_s samples %.3f", s.infer)
}

// runBatch is gwdb_build and nyccas_infer: cold reps of generate → load →
// Ground → Infer until --seconds have passed.
func (e *env) runBatch() error {
	s := &samples{}
	s.slice()
	start := time.Now()
	for rep := 0; rep < minReps || time.Since(start).Seconds() < e.seconds; rep++ {
		phase("%s rep %d", e.spec.name, rep)
		t0 := time.Now()
		b, err := e.construct(-1, nil)
		if err != nil {
			return err
		}
		t1 := time.Now()
		scores, err := b.sys.Infer()
		inferDur := time.Since(t1)
		op := time.Since(t0)
		b.sys.Close()
		if err != nil {
			return fmt.Errorf("Infer: %w", err)
		}
		s.setup = append(s.setup, b.setupDur.Seconds())
		s.ground = append(s.ground, b.groundDur.Seconds())
		s.infer = append(s.infer, inferDur.Seconds())
		s.build = append(s.build, (b.groundDur + inferDur).Seconds())
		s.op = append(s.op, ms(op))
		s.f1 = b.scoreF1(scores)
		e.checkF1(s.f1)
		s.rates = append(s.rates, 1/time.Since(t0).Seconds())
	}
	s.elapsed = time.Since(start)
	s.peakRSS = peakRSSMB()
	e.publish(s)
	return nil
}

// runShard is shard_infer: five times over, ground in set-up and then a
// slice of reps of Close → InferContext, each building a fresh partition,
// subgraphs, kernel slabs and transports before sampling. Set-ups and slices
// alternate so the set-up timings are spread over the whole run and not
// bunched into whichever speed the host had in its first seconds.
func (e *env) runShard() error {
	s := &samples{}
	for i := 0; i < setups; i++ {
		phase("%s set-up %d", e.spec.name, i)
		b, err := e.construct(-1, nil)
		if err != nil {
			return err
		}
		s.setup = append(s.setup, (b.setupDur + b.groundDur).Seconds())
		s.ground = append(s.ground, b.groundDur.Seconds())
		err = e.shardReps(b, s, e.seconds/setups, -1)
		b.sys.Close()
		if err != nil {
			return err
		}
	}
	// Ground runs once per set-up and inference once per rep, so build_s is
	// the sum of their quiet quartiles here, not a quartile of sums.
	s.build = []float64{quiet(s.ground) + quiet(s.infer)}
	e.publish(s)
	return nil
}

// shardReps runs one slice of the shard_infer measured region on b.
func (e *env) shardReps(b *built, s *samples, seconds float64, parent int) error {
	s.slice()
	var op []float64
	start := time.Now()
	for rep := 0; rep == 0 || time.Since(start).Seconds() < seconds; rep++ {
		phase("%s rep %d", e.spec.name, rep)
		b.sys.Close()
		t0 := time.Now()
		scores, _, err := b.sys.InferContext(context.Background(), e.spec.epochs)
		t1 := time.Now()
		if err != nil {
			return fmt.Errorf("InferContext: %w", err)
		}
		e.rec.op("bench.op.infer", parent, t0, t1)
		s.infer = append(s.infer, t1.Sub(t0).Seconds())
		op = append(op, ms(t1.Sub(t0)))
		s.f1 = b.scoreF1(scores)
		e.checkF1(s.f1)
	}
	s.sliceDone(op, nil, time.Since(start))
	return nil
}
