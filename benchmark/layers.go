package main

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"time"

	"repro/internal/core"
	"repro/internal/ddlog"
	"repro/internal/factorgraph"
	"repro/internal/geom"
	"repro/internal/gibbs"
	"repro/internal/index/pyramid"
	"repro/internal/index/rtree"
	"repro/internal/obs"
	"repro/internal/shard"
	"repro/internal/sqlx"
	"repro/internal/translate"
	"repro/internal/wal"
)

// This file is the traced pass (--trace 1). It runs the same workloads with
// the benchmark's own span recorder around every call into a layer's public
// functions, replays the calls a System makes internally (rule SQL, sampler
// construction and epochs, partitioning) directly against the same inputs so
// each layer gets a time of its own, and hands the program an obs.Registry —
// on this pass only — to read the counters it already keeps. Nothing inside
// the program is changed or configured for it.

// Probe sizes: how many direct calls a layer probe times. Small enough that
// all probes of a run finish in about a second.
const (
	probeReads      = 300 // handler and R-tree probes, per kind
	probeUpserts    = 24
	probeLocal      = 60
	probeWALAppends = 100
)

// observe adds one sample of a per-layer metric; the run reports the median.
func (e *env) observe(name string, v float64) {
	if e.layer == nil {
		e.layer = map[string][]float64{}
	}
	e.layer[name] = append(e.layer[name], v)
}

// runTraced dispatches the traced pass and folds the samples into metrics.
func (e *env) runTraced() error {
	var err error
	switch e.spec.kind {
	case kindBatch:
		err = e.tracedBatch()
	case kindShard:
		err = e.tracedShard()
	default:
		err = e.tracedServe()
	}
	if err != nil {
		return err
	}
	for name, xs := range e.layer {
		e.metrics[name] = median(xs)
	}
	// The first 12 hex digits of the input digest as a number: a changed
	// workload shows as a changed value in every traced result.
	var id uint64
	fmt.Sscanf(e.digest[:12], "%x", &id)
	e.metrics["bench.input_digest"] = float64(id)
	return nil
}

// stagedBuild is one cold construction with a span per layer call: datagen,
// LoadProgram, LoadRows, Ground, kernel compile, then finish (Infer, or
// serve.New and Warmup), which returns the span sampling ran under. The
// replays follow, and their durations are laid under the real spans as
// derived children so the self times of the build add up layer by layer.
func (e *env) stagedBuild(reg *obs.Registry, finish func(root int, b *built) (int, error)) (*built, time.Duration, error) {
	root := e.rec.open("bench.build", -1)
	start := time.Now()
	b, err := e.construct(root, reg)
	if err != nil {
		return nil, 0, err
	}
	var kern *factorgraph.Kernels
	_, compileDur, _ := e.rec.stage("factorgraph.compile", root, func() error {
		kern = b.ground.Graph.Kernels()
		return nil
	})
	inferSpan, err := finish(root, b)
	if err != nil {
		b.sys.Close()
		return nil, 0, err
	}
	wall := time.Since(start)
	e.rec.end(root)
	e.roots["build"] = root

	st := b.ground.Stats
	e.observe("storage.load_ms", ms(b.loadDur))
	rows := 0
	for _, t := range b.data.tables {
		rows += len(t.rows)
	}
	e.observe("storage.rows", float64(rows))
	e.observe("core.ground_ms", ms(b.groundDur))
	e.observe("grounding.ground_ms", ms(st.TotalTime))
	e.observe("grounding.rules_ms", ms(st.RulesTime))
	e.observe("grounding.spatial_ms", ms(st.SpatialTime))
	e.observe("grounding.self_ms", ms(st.TotalTime-st.RulesTime-st.SpatialTime))
	groundAlloc, _ := e.rec.alloc(b.groundSpan)
	e.observe("grounding.alloc_mb", float64(groundAlloc)/(1<<20))
	e.observe("grounding.vars", float64(st.Vars))
	e.observe("grounding.logical_factors", float64(st.LogicalFactors))
	e.observe("grounding.spatial_factors", float64(st.SpatialPairs))
	ks := kern.Stats()
	e.observe("factorgraph.compile_ms", ms(compileDur))
	e.observe("factorgraph.kernel_ops", float64(ks.Ops))
	e.observe("factorgraph.generic_ops", float64(ks.GenericOps))
	e.observe("factorgraph.slab_mb", float64(ks.SlabBytes)/(1<<20))

	if err := e.replayLayers(b, root, inferSpan); err != nil {
		b.sys.Close()
		return nil, 0, err
	}
	return b, wall, nil
}

// replayLayers calls, directly and one at a time, what System.Ground and
// System.Infer did inside the staged build — parse, translate, each rule's
// SQL, one conditional-score sweep, the pyramid, the sampler's construction,
// burn-in, steady epochs and marginals — and lays the measured durations
// under the build's real spans as derived children.
func (e *env) replayLayers(b *built, root, inferSpan int) error {
	g, st, cfg := b.ground.Graph, b.ground.Stats, b.data.cfg
	kern := g.Kernels()
	rp := e.rec.open("bench.replay", -1)
	defer e.rec.end(rp)
	phase("%s replaying layers", e.spec.name)

	var prog *ddlog.Program
	_, parseDur, err := e.rec.stage("ddlog.parse", rp, func() error {
		var err error
		prog, err = ddlog.ParseAndValidate(b.data.program)
		return err
	})
	if err != nil {
		return err
	}
	e.observe("ddlog.parse_ms", ms(parseDur))
	e.observe("ddlog.rules", float64(len(prog.Derivations)+len(prog.Rules)))

	var queries []translate.Query
	var labels []string
	_, translateDur, err := e.rec.stage("translate.rules", rp, func() error {
		opts := translate.Options{Metric: b.data.cfg.Metric}
		for _, d := range prog.Derivations {
			q, err := translate.Derivation(prog, d, opts)
			if err != nil {
				return err
			}
			queries, labels = append(queries, q), append(labels, d.Label)
		}
		for _, r := range prog.Rules {
			q, err := translate.Inference(prog, r, opts)
			if err != nil {
				return err
			}
			queries, labels = append(queries, q), append(labels, r.Label)
		}
		return nil
	})
	if err != nil {
		return err
	}
	e.observe("translate.rules_ms", ms(translateDur))

	var rowsOut int
	var slowest time.Duration
	var slowestLabel string
	sqlSpan, sqlDur, err := e.rec.stage("sqlx.rules", rp, func() error {
		eng := sqlx.NewEngine(b.sys.DB())
		for i, q := range queries {
			t0 := time.Now()
			res, err := eng.Exec(q.SQL, q.Params)
			if err != nil {
				return err
			}
			if d := time.Since(t0); d > slowest {
				slowest, slowestLabel = d, labels[i]
			}
			rowsOut += len(res.Rows)
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("replaying rule SQL: %w", err)
	}
	sqlAlloc, _ := e.rec.alloc(sqlSpan)
	e.observe("sqlx.rules_ms", ms(sqlDur))
	e.observe("sqlx.rows_out", float64(rowsOut))
	e.observe("sqlx.top_rule_share", slowest.Seconds()/sqlDur.Seconds())
	e.note("slowest rule SQL: %s, %.1f of %.1f ms", slowestLabel, ms(slowest), ms(sqlDur))
	e.observe("sqlx.alloc_mb", float64(sqlAlloc)/(1<<20))

	// One sweep of the compiled conditional over every variable.
	assign := g.InitialAssignment()
	var sink float64
	_, sweepDur, _ := e.rec.stage("factorgraph.score_sweep", rp, func() error {
		for v := 0; v < g.NumVars(); v++ {
			s0, s1 := kern.BinaryConditionalScores(factorgraph.VarID(v), assign)
			sink += s0 + s1
		}
		return nil
	})
	if sink != sink { // NaN: a broken kernel, and keeps the sweep from being optimized away
		return fmt.Errorf("conditional scores are NaN")
	}
	e.observe("factorgraph.score_ns", float64(sweepDur.Nanoseconds())/float64(g.NumVars()))

	var entries []pyramid.Entry
	var space geom.Rect
	g.Vars(func(id factorgraph.VarID, v factorgraph.Variable) bool {
		if v.HasLoc && v.Evidence == factorgraph.NoEvidence {
			if len(entries) == 0 {
				space = v.Loc.Bounds()
			}
			space = space.Union(v.Loc.Bounds())
			entries = append(entries, pyramid.Entry{ID: int64(id), Loc: v.Loc})
		}
		return true
	})
	_, pyramidDur, err := e.rec.stage("index.pyramid.build", rp, func() error {
		_, err := pyramid.Build(space.Expand(1), entries, pyramid.Options{Levels: pyramidLevels})
		return err
	})
	if err != nil {
		return err
	}
	e.observe("index.pyramid.build_ms", ms(pyramidDur))

	// The sampler, built and run as core.System does it.
	per := (cfg.Epochs + cfg.Instances - 1) / cfg.Instances
	burn := cfg.Epochs / (10 * cfg.Instances)
	var sp *gibbs.Spatial
	_, buildDur, err := e.rec.stage("gibbs.build", rp, func() error {
		var err error
		sp, err = gibbs.NewSpatial(g, gibbs.SpatialOptions{
			Levels: cfg.PyramidLevels, LocalityLevel: cfg.LocalityLevel,
			Instances: cfg.Instances, Seed: cfg.Seed, BurnIn: burn,
		})
		return err
	})
	if err != nil {
		return err
	}
	defer sp.Close()
	ctx := context.Background()
	_, warmDur, err := e.rec.stage("gibbs.warmup", rp, func() error {
		_, err := sp.Run(ctx, burn)
		return err
	})
	if err != nil {
		return err
	}
	steadySpan, steadyDur, err := e.rec.stage("gibbs.steady", rp, func() error {
		_, err := sp.Run(ctx, per-burn)
		return err
	})
	if err != nil {
		return err
	}
	_, margDur, _ := e.rec.stage("gibbs.marginals", rp, func() error {
		sp.Marginals()
		return nil
	})
	_, steadyMallocs := e.rec.alloc(steadySpan)
	steadyEpochs := float64(per - burn)
	e.observe("gibbs.build_ms", ms(buildDur))
	e.observe("gibbs.warmup_ms", ms(warmDur))
	e.observe("gibbs.epoch_us", float64(steadyDur.Microseconds())/steadyEpochs)
	e.observe("gibbs.updates_per_s", float64(st.QueryVars*cfg.Instances)*steadyEpochs/steadyDur.Seconds())
	e.observe("gibbs.alloc_per_epoch", float64(steadyMallocs)/steadyEpochs)
	e.observe("gibbs.marginals_ms", ms(margDur))

	// Lay what the replays measured under the real spans.
	e.rec.derive(e.childNamed(root, "core.load_program"), []string{"ddlog.parse"}, []time.Duration{parseDur})
	gg := e.rec.derive(b.groundSpan, []string{"grounding.ground"}, []time.Duration{st.TotalTime})
	if gg != nil {
		phases := e.rec.derive(gg[0], []string{"grounding.rules", "grounding.spatial"}, []time.Duration{st.RulesTime, st.SpatialTime})
		e.rec.derive(phases[0], []string{"translate.rules", "sqlx.rules"}, []time.Duration{translateDur, sqlDur})
	}
	// Sharded inference is replayed by tracedShard, which lays its own
	// children: the single-process sampler above is not what ran there.
	if cfg.Shards <= 1 {
		if ids := e.rec.derive(inferSpan, []string{"gibbs.build", "gibbs.warmup", "gibbs.steady", "gibbs.marginals"},
			[]time.Duration{buildDur, warmDur, steadyDur, margDur}); ids != nil {
			e.rec.derive(ids[0], []string{"index.pyramid.build"}, []time.Duration{pyramidDur})
		}
	}
	return nil
}

// untraced runs fn with the recorder off: the plain side of an overhead
// ratio.
func (e *env) untraced(fn func() error) error {
	rec := e.rec
	e.rec = nil
	defer func() { e.rec = rec }()
	return fn()
}

// childNamed finds the direct child of parent with the given name.
func (e *env) childNamed(parent int, name string) int {
	for _, s := range e.rec.spans {
		if s.Parent == parent && s.Name == name {
			return s.ID
		}
	}
	return -1
}

// coverage reports how much of the build's wall time the layers below core
// account for, after the derived children are in place: a value under 0.9 is
// a hole in the trace and is printed as one.
func (e *env) coverage() {
	self := e.rec.selfTimes(e.roots["build"])
	var total float64
	for _, v := range self {
		total += v
	}
	unexplained := self["core"] + self["bench"] + self["serve"]
	cov := 1 - unexplained/total
	e.observe("bench.trace_coverage", cov)
	e.observe("core.self_ms", self["core"])
	if cov < 0.9 {
		e.note("hole in the trace: layers below core explain %.0f%% of the build (core %.1f ms, serve %.1f ms, bench %.1f ms of %.1f ms unexplained)",
			100*cov, self["core"], self["serve"], self["bench"], total)
	}
	for i, l := range rankLayers(self) {
		if i < 3 {
			e.note("build self time #%d: %-12s %9.1f ms  %4.1f%%", i+1, l.Layer, l.SelfMS, 100*l.Share)
		}
	}
}

// tracedBatch alternates plain and staged cold builds: the staged ones give
// the per-layer numbers, and the ratio of the two quiet quartiles is the
// tracing overhead.
func (e *env) tracedBatch() error {
	var plain, staged []float64
	start := time.Now()
	for rep := 0; rep < 2 || time.Since(start).Seconds() < e.seconds; rep++ {
		phase("%s plain rep %d", e.spec.name, rep)
		t0 := time.Now()
		err := e.untraced(func() error {
			b, err := e.construct(-1, nil)
			if err != nil {
				return err
			}
			defer b.sys.Close()
			_, err = b.sys.Infer()
			return err
		})
		if err != nil {
			return err
		}
		plain = append(plain, time.Since(t0).Seconds())

		phase("%s staged rep %d", e.spec.name, rep)
		var scores *core.Scores
		var inferDur time.Duration
		b, wall, err := e.stagedBuild(obs.NewRegistry(), func(root int, b *built) (int, error) {
			id, d, err := e.rec.stage("core.infer", root, func() error {
				var err error
				scores, err = b.sys.Infer()
				return err
			})
			inferDur = d
			return id, err
		})
		if err != nil {
			return err
		}
		b.sys.Close()
		staged = append(staged, wall.Seconds())
		e.observe("core.infer_ms", ms(inferDur))
		e.coverage()
		e.checkF1(b.scoreF1(scores))
	}
	e.observe("bench.trace_overhead_ratio", quiet(staged)/quiet(plain))
	return nil
}

// tracedShard stages one construction, replays partitioning, group
// construction and a run directly against internal/shard, then measures the
// region without and with the registry.
func (e *env) tracedShard() error {
	var inferDur time.Duration
	reg := obs.NewRegistry()
	b, _, err := e.stagedBuild(reg, func(root int, b *built) (int, error) {
		id, d, err := e.rec.stage("core.infer", root, func() error {
			_, err := b.sys.Infer()
			return err
		})
		inferDur = d
		return id, err
	})
	if err != nil {
		return err
	}
	defer b.sys.Close()
	e.observe("core.infer_ms", ms(inferDur))

	cfg := b.data.cfg
	opts := shard.Options{
		Shards: cfg.Shards, Levels: cfg.PyramidLevels, LocalityLevel: cfg.LocalityLevel,
		Instances: cfg.Instances, Seed: cfg.Seed, BurnIn: cfg.Epochs / (10 * cfg.Instances),
	}
	g := b.ground.Graph
	rp := e.rec.open("bench.replay", -1)
	_, partDur, err := e.rec.stage("shard.partition", rp, func() error {
		_, err := shard.Partition(g, opts)
		return err
	})
	if err != nil {
		return err
	}
	var gr *shard.Group
	_, newDur, err := e.rec.stage("shard.build", rp, func() error {
		var err error
		gr, err = shard.New(g, opts)
		return err
	})
	if err != nil {
		return err
	}
	_, runDur, err := e.rec.stage("shard.run", rp, func() error {
		_, err := gr.Run(context.Background(), cfg.Epochs)
		return err
	})
	xs := gr.ExchangeStats()
	gr.Close()
	e.rec.end(rp)
	if err != nil {
		return err
	}
	e.observe("shard.partition_ms", ms(partDur))
	e.observe("shard.build_ms", ms(newDur))
	e.observe("shard.run_ms", ms(runDur))
	e.observe("shard.exchange_share", xs.Seconds/float64(cfg.Shards)/runDur.Seconds())
	e.observe("shard.exchange_bytes", float64(xs.Bytes))
	e.observe("shard.boundary_vars", float64(xs.BoundaryVars))
	if ids := e.rec.derive(e.childNamed(e.roots["build"], "core.infer"), []string{"shard.build", "shard.run"},
		[]time.Duration{newDur, runDur}); ids != nil {
		e.rec.derive(ids[0], []string{"shard.partition"}, []time.Duration{partDur})
	}
	e.coverage()

	// The measured region, without and then with the registry.
	plain := &samples{}
	err = e.untraced(func() error {
		b, err := e.construct(-1, nil)
		if err != nil {
			return err
		}
		defer b.sys.Close()
		return e.shardReps(b, plain, e.seconds/3, -1)
	})
	if err != nil {
		return err
	}
	region := e.rec.open("bench.region", -1)
	traced := &samples{}
	err = e.shardReps(b, traced, e.seconds/3, region)
	e.rec.end(region)
	if err != nil {
		return err
	}
	e.observe("bench.trace_overhead_ratio", traced.quietOp()/plain.quietOp())
	return nil
}

// tracedServe stages one server boot, probes the serving layers directly,
// then measures the region on a plain server and on one with the registry.
func (e *env) tracedServe() error {
	reg := obs.NewRegistry()
	var s *server
	defer func() {
		if s != nil {
			s.close(false)
		}
	}()
	_, _, err := e.stagedBuild(reg, func(root int, b *built) (int, error) {
		var err error
		if s, err = e.bootOn(root, reg, b); err != nil {
			return -1, err
		}
		return s.warmupSpan, nil
	})
	if err != nil {
		return err
	}
	e.observe("serve.boot_ms", ms(s.bootDur))
	e.observe("serve.warmup_ms", ms(s.inferDur))
	e.observe("core.infer_ms", ms(s.inferDur))
	e.coverage()

	// A plain server: its region is the untraced side of the overhead ratio,
	// and afterwards it takes the probes that consume wells or bypass the
	// server's lock, so the traced server's counters stay clean.
	var plain *server
	var pr *region
	err = e.untraced(func() error {
		var err error
		if plain, err = e.boot(-1, nil); err != nil {
			return err
		}
		pr, err = e.measure(plain, e.seconds/3, -1)
		return err
	})
	if err == nil {
		e.absorb(pr)
		err = e.probeServing(plain, len(pr.acked))
	}
	if plain != nil {
		plain.close(false)
	}
	if err != nil {
		return err
	}

	region := e.rec.open("bench.region", -1)
	phase("%s traced region", e.spec.name)
	tr, err := e.measure(s, e.seconds/3, region)
	e.rec.end(region)
	if err != nil {
		return err
	}
	e.absorb(tr)
	plainOps, tracedOps := samples{window: serveWindow}, samples{window: serveWindow}
	plainOps.sliceDone(pr.ops, pr.opAt, pr.elapsed)
	tracedOps.sliceDone(tr.ops, tr.opAt, tr.elapsed)
	e.observe("bench.trace_overhead_ratio", tracedOps.quietOp()/plainOps.quietOp())
	e.clientMetrics(tr)
	e.registryMetrics(reg, tr)
	keep := e.spec.kind == kindWrite
	err = s.close(keep)
	acked, srv := tr.acked, s
	s = nil
	if err != nil {
		return err
	}
	if keep {
		return e.checkDurable(srv, acked)
	}
	return nil
}

// clientMetrics reports what the clients of the traced region observed.
func (e *env) clientMetrics(r *region) {
	reads := r.pooledReads()
	if len(reads) > 0 {
		e.observe("client.read_p50_ms", median(reads))
		e.observe("client.read_p99_ms", percentile(reads, 0.99))
		e.observe("client.read_qps", float64(len(reads))/r.elapsed.Seconds())
	}
	if e.spec.kind == kindWrite {
		e.observe("client.upsert_p50_ms", median(r.ops))
		e.observe("client.upsert_p95_ms", percentile(r.ops, 0.95))
		e.observe("bench.reader_late_p99_ms", percentile(r.late, 0.99))
	}
	e.observe("client.fail_ratio", float64(len(r.failures))/float64(max(r.attempted, 1)))
	if e.spec.kind == kindRead {
		// What is not the program's: loopback, net/http and the client.
		handler := median([]float64{
			median(e.layer["serve.handler_point_us"]),
			median(e.layer["serve.handler_range_us"]),
			median(e.layer["serve.handler_knn_us"]),
		})
		e.observe("serve.http_overhead_us", 1000*median(reads)-handler)
	}
}

// registryMetrics reads the counters the program keeps, after the traced
// region.
func (e *env) registryMetrics(reg *obs.Registry, r *region) {
	snap := reg.Snapshot()
	ratio := func(num, den float64) float64 {
		if den == 0 {
			return 0
		}
		return num / den
	}
	hits, misses := snap["sya_serve_cache_hits_total"], snap["sya_serve_cache_misses_total"]
	e.observe("serve.cache_hit_ratio", ratio(hits, hits+misses))
	reads := float64(len(r.pooledReads()))
	e.observe("serve.stale_read_ratio", ratio(snap["sya_serve_degraded_reads_total"], reads))
	e.observe("serve.shed_ratio", ratio(snap["sya_serve_shed_total"], snap["sya_serve_requests_total"]))
	e.observe("serve.generations", snap["sya_serve_generation"])
	lh, li, lm := snap["sya_local_cache_hits_total"], snap["sya_local_cache_interior_hits_total"], snap["sya_local_cache_misses_total"]
	e.observe("serve.local_hit_ratio", ratio(lh+li, lh+li+lm))
	e.observe("serve.local_interior_hit_ratio", ratio(li, lh+li+lm))
	e.observe("serve.local_miss_count", lm)
	if n := snap["sya_wal_appends_total"]; n > 0 {
		e.observe("wal.bytes_per_upsert", snap["sya_wal_appended_bytes_total"]/n)
	}
}

// probeServing times the serving layers by calling them directly on a server
// whose measured region is over: the R-tree, the handlers without a socket,
// the WAL, and — bypassing the server, which is idle — System.UpsertEvidence,
// InferIncrementalContext and QueryLocal. used is how many unlabeled wells
// the region already upserted.
func (e *env) probeServing(s *server, used int) error {
	phase("%s probing serving layers", e.spec.name)
	rp := e.rec.open("bench.replay", -1)
	defer e.rec.end(rp)
	data, g := s.data, s.ground.Graph
	n := min(probeReads, len(data.atoms))

	var items []rtree.Item
	g.Vars(func(id factorgraph.VarID, v factorgraph.Variable) bool {
		if v.HasLoc {
			items = append(items, rtree.Item{Rect: v.Loc.Bounds(), Data: int64(id)})
		}
		return true
	})
	var tree *rtree.Tree
	_, bulkDur, _ := e.rec.stage("index.rtree.bulk", rp, func() error {
		tree = rtree.Bulk(items)
		return nil
	})
	e.observe("index.rtree.bulk_ms", ms(bulkDur))
	found := 0
	_, searchDur, _ := e.rec.stage("index.rtree.search", rp, func() error {
		for i := 0; i < n; i++ {
			p := data.atoms[i].loc
			found += len(tree.SearchAll(p.Bounds()))
			found += len(tree.SearchAll(geom.NewRect(geom.Pt(p.X-rangeHalf, p.Y-rangeHalf), geom.Pt(p.X+rangeHalf, p.Y+rangeHalf))))
		}
		return nil
	})
	_, knnDur, _ := e.rec.stage("index.rtree.knn", rp, func() error {
		for i := 0; i < n; i++ {
			found += len(tree.NearestK(data.atoms[i].loc, knnK))
		}
		return nil
	})
	if found < 3*n {
		return fmt.Errorf("R-tree probes found %d items for %d wells", found, n)
	}
	e.observe("index.rtree.search_us", float64(searchDur.Microseconds())/float64(2*n))
	e.observe("index.rtree.knn_us", float64(knnDur.Microseconds())/float64(n))

	// Handlers, no socket: ServeHTTP into an in-memory recorder.
	handler := s.srv.Handler()
	for k := readPoint; k <= readKNN; k++ {
		_, d, err := e.rec.stage("serve.handler_"+readKindNames[k], rp, func() error {
			for i := 0; i < n; i++ {
				rec := httptest.NewRecorder()
				handler.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, s.readURL(k, &data.atoms[i]), nil))
				if rec.Code != http.StatusOK {
					return fmt.Errorf("handler %s: status %d", readKindNames[k], rec.Code)
				}
			}
			return nil
		})
		if err != nil {
			return err
		}
		e.observe("serve.handler_"+readKindNames[k]+"_us", float64(d.Microseconds())/float64(n))
	}
	s.stopHTTP()

	// The WAL on its own: the record shape of an upsert, fsync per append.
	walDir, err := os.MkdirTemp(e.tmp, "walprobe")
	if err != nil {
		return err
	}
	defer os.RemoveAll(walDir)
	walReg := obs.NewRegistry()
	path := filepath.Join(walDir, "probe.wal")
	log, _, err := wal.Open(path, wal.Options{Metrics: walReg})
	if err != nil {
		return err
	}
	_, appendDur, err := e.rec.stage("wal.append", rp, func() error {
		for i := 0; i < probeWALAppends; i++ {
			a := &data.atoms[i%len(data.atoms)]
			if err := log.Append(wal.Record{Relation: data.evidence, Rows: [][]string{a.cells}}); err != nil {
				return err
			}
		}
		return nil
	})
	if cerr := log.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	snap := walReg.Snapshot()
	fsyncUS := 1e6 * snap["sya_wal_fsync_seconds_sum"] / snap["sya_wal_fsync_seconds_count"]
	e.observe("wal.fsync_us", fsyncUS)
	e.observe("wal.append_us", float64(appendDur.Microseconds())/probeWALAppends-fsyncUS)
	if e.spec.kind != kindWrite {
		e.observe("wal.bytes_per_upsert", snap["sya_wal_appended_bytes_total"]/probeWALAppends)
	}
	_, replayDur, err := e.rec.stage("wal.replay", rp, func() error {
		log, _, err := wal.Open(path, wal.Options{})
		if err != nil {
			return err
		}
		return log.Close()
	})
	if err != nil {
		return err
	}
	e.observe("wal.replay_ms", ms(replayDur))

	// Direct upserts, on wells the region did not reach.
	ctx := context.Background()
	sys := s.srv.System()
	fresh := data.queryOrder(e.seed, func(a *atom) bool { return !a.evidence })
	fresh = fresh[min(used, len(fresh)):]
	for i := 0; i < min(probeUpserts, len(fresh)); i++ {
		a := &data.atoms[fresh[len(fresh)-1-i]]
		rows, err := sys.ParseRows(data.evidence, [][]string{a.cells})
		if err != nil {
			return err
		}
		var ds core.DeltaStats
		_, upDur, err := e.rec.stage("core.upsert", rp, func() error {
			var err error
			ds, err = sys.UpsertEvidence(ctx, data.evidence, rows)
			return err
		})
		if err != nil {
			return err
		}
		_, incrDur, err := e.rec.stage("gibbs.incr", rp, func() error {
			_, _, err := sys.InferIncrementalContext(ctx, e.spec.epochs)
			return err
		})
		if err != nil {
			return err
		}
		e.observe("core.upsert_ms", ms(upDur))
		e.observe("grounding.delta_ms", ms(ds.GroundTime))
		e.observe("gibbs.incr_ms", ms(incrDur))
	}

	// Direct lazy queries, cold: no subgraph cache in front of them.
	for i := 0; i < min(probeLocal, len(fresh)); i++ {
		a := &data.atoms[fresh[i]]
		var lr *core.LocalResult
		_, d, err := e.rec.stage("core.querylocal", rp, func() error {
			var err error
			lr, err = sys.QueryLocal(ctx, a.key, core.LocalBudget{MaxVars: lazyBudget})
			return err
		})
		if err != nil {
			return err
		}
		e.observe("core.querylocal_ms", ms(d))
		e.observe("grounding.extract_ms", ms(lr.GroundTime))
		e.observe("gibbs.local_sample_ms", ms(lr.SampleTime))
		e.observe("grounding.local_vars", float64(lr.Vars))
		e.observe("grounding.local_factors", float64(lr.Factors+lr.SpatialPairs))
	}
	return nil
}
