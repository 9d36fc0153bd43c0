// Package core wires the paper's modules into the end-to-end Sya system of
// Fig. 2: the language module (internal/ddlog) compiles a program, the
// grounding module (internal/translate + internal/sqlx + internal/grounding)
// evaluates it against the storage database into a spatial factor graph,
// and the inference module (internal/gibbs) estimates the factual scores.
//
// The same pipeline runs in two engine modes, mirroring the paper's
// evaluation: EngineSya (spatial factors + Spatial Gibbs Sampling) and
// EngineDeepDive (the baseline: @spatial stripped, boolean spatial
// predicates only, hogwild parallel Gibbs).
package core

import (
	"context"
	"fmt"
	"strings"
	"time"

	"repro/internal/ddlog"
	"repro/internal/deepdive"
	"repro/internal/factorgraph"
	"repro/internal/geom"
	"repro/internal/gibbs"
	"repro/internal/grounding"
	"repro/internal/learn"
	"repro/internal/obs"
	"repro/internal/shard"
	"repro/internal/storage"
	"repro/internal/translate"
	"repro/internal/weighting"
)

// Engine selects the pipeline mode.
type Engine int

// Engine modes.
const (
	// EngineSya is the paper's system: spatial factor graph + Spatial
	// Gibbs Sampling.
	EngineSya Engine = iota
	// EngineDeepDive is the baseline: plain factor graph + hogwild Gibbs.
	EngineDeepDive
)

// String names the engine.
func (e Engine) String() string {
	if e == EngineDeepDive {
		return "deepdive"
	}
	return "sya"
}

// MarshalText writes the engine's name.
func (e Engine) MarshalText() ([]byte, error) { return []byte(e.String()), nil }

// UnmarshalText reads an engine name, case-insensitively: "" or "sya",
// "deepdive".
func (e *Engine) UnmarshalText(text []byte) error {
	switch strings.ToLower(string(text)) {
	case "", "sya":
		*e = EngineSya
	case "deepdive":
		*e = EngineDeepDive
	default:
		return fmt.Errorf("unknown engine %q", text)
	}
	return nil
}

// Config parameterizes a System. Zero values select the paper's defaults.
type Config struct {
	Engine Engine
	// Metric for distance predicates and spatial weights.
	Metric geom.Metric
	// Weighting registry for @spatial(w); nil selects exp/gauss/idw with
	// the given Bandwidth.
	Weighting *weighting.Registry
	// Bandwidth of the default weighting registry (0 → 50).
	Bandwidth float64
	// SpatialScale is the zero-distance spatial factor weight (0 → 1).
	// Values well below 1 make spatial factors pool neighbouring evidence
	// (calibrated scores); values near 1 enforce hard agreement.
	SpatialScale float64
	// PruneThreshold is the Section IV-C T (0 → 0.5).
	PruneThreshold float64
	// SupportRadius caps spatial-factor generation distance (0 → the
	// weighing function's support).
	SupportRadius float64
	// MaxNeighbors caps spatial factors per atom (0 → unlimited).
	MaxNeighbors int
	// UDFs for function implementations.
	UDFs map[string]grounding.UDF
	// SkipFactorTables is a no-op: the per-rule factor relations it used to
	// switch off are no longer materialized at all. The field stays only
	// because benchmark/workloads.go sets it; it goes when that stops.
	SkipFactorTables bool

	// Epochs is the total inference epochs E (0 → 1000, the paper's
	// default).
	Epochs int
	// Instances is K for the spatial sampler (0 → 2).
	Instances int
	// Workers is the worker-pool width of every parallel stage (0 →
	// GOMAXPROCS, 1 → sequential): grounding's concurrent rule and
	// derivation evaluation, batched join probes and sharded spatial sweeps;
	// the spatial sampler's workers, each chunk sweeping all K instances;
	// and the hogwild baseline's. The grounded factor graph is identical for
	// any setting.
	Workers int
	// Seed drives all sampling randomness.
	Seed int64
	// PyramidLevels is L (0 → 8, the paper's setting).
	PyramidLevels int
	// LocalityLevel is the deepest swept pyramid level (0 → L−1).
	LocalityLevel int
	// BurnIn discards this many initial epochs per sampler chain from the
	// marginal counters (0 → one tenth of the per-chain epoch budget;
	// negative → no burn-in).
	BurnIn int

	// Shards enables sharded share-nothing inference (Sya engine, batch
	// inference only): the ground graph is partitioned by pyramid subtree
	// into this many shards, each with its own subgraph, compiled score
	// programs and sampler, synchronized by a halo exchange at every epoch
	// barrier (see internal/shard). 0 or 1 keeps the single-process sampler.
	// The incremental and QueryLocal paths stay single-process.
	Shards int
	// ShardAddrs are per-shard TCP listen addresses (len must equal
	// Shards): the shards then exchange halos over the length-prefixed
	// CRC-framed TCP transport instead of in-process channels. Empty uses
	// in-process transports.
	ShardAddrs []string

	// Metrics, when non-nil, receives pipeline metrics: sampler epoch/chunk
	// counters and timing histograms, and grounding size gauges. nil
	// disables (the samplers then skip instrumentation entirely).
	Metrics *obs.Registry
	// ProgressEvery enables sampler convergence diagnostics every that many
	// epochs (0 disables): running marginal max-delta and cross-instance
	// spread, surfaced through RunStats, the diag gauges, diag events on the
	// sweep's span, and — when non-nil — the Progress callback.
	ProgressEvery int
	Progress      func(gibbs.Progress)
}

func (c Config) withDefaults() Config {
	if c.Bandwidth == 0 {
		c.Bandwidth = 50
	}
	if c.SpatialScale == 0 {
		c.SpatialScale = 1
	}
	if c.Weighting == nil {
		c.Weighting = weighting.NewRegistry(c.Bandwidth, c.SpatialScale)
	}
	if c.PruneThreshold == 0 {
		c.PruneThreshold = 0.5
	}
	if c.Epochs == 0 {
		c.Epochs = 1000
	}
	if c.Instances == 0 {
		c.Instances = 2
	}
	if c.PyramidLevels == 0 {
		c.PyramidLevels = 8
	}
	return c
}

// System is one knowledge-base construction pipeline instance.
type System struct {
	cfg  Config
	db   *storage.DB
	prog *ddlog.Program

	ground  *grounding.Result
	sampler gibbs.Sampler
	// shardGroup is the sharded-inference engine when cfg.Shards > 1 (built
	// lazily by the first InferContext, like the sampler).
	shardGroup *shard.Group
	learned    bool

	// pinned holds the value of every evidence pin since the last full
	// grounding (UpdateEvidence and UpsertEvidence patches). The first pin
	// per atom wins — matching the batch dedup rule. Every sampler built
	// within the grounding gets the pins re-applied, and the record resets
	// when a re-ground bakes the evidence into the graph.
	pinned map[factorgraph.VarID]int32

	groundDur time.Duration
	inferDur  time.Duration
}

// NewSystem creates a system with an empty database.
func NewSystem(cfg Config) *System {
	return &System{cfg: cfg.withDefaults(), db: storage.NewDB()}
}

// Config returns the effective configuration.
func (s *System) Config() Config { return s.cfg }

// DB exposes the underlying database for direct loading.
func (s *System) DB() *storage.DB { return s.db }

// LoadProgram compiles and validates a DDlog program; in DeepDive mode the
// @spatial annotations are stripped (the baseline has no spatial factors).
// Input relation tables are created from the program schemas if missing.
func (s *System) LoadProgram(src string) error {
	prog, err := ddlog.ParseAndValidate(src)
	if err != nil {
		return err
	}
	if s.cfg.Engine == EngineDeepDive {
		prog, err = deepdive.StripSpatial(prog)
		if err != nil {
			return err
		}
	}
	s.prog = prog
	for _, rel := range prog.Relations {
		if rel.IsVariable {
			continue // materialized during grounding
		}
		if _, err := s.db.Table(rel.Name); err == nil {
			continue
		}
		if _, err := s.db.Create(translate.SchemaFor(rel)); err != nil {
			return err
		}
	}
	return nil
}

// Program returns the compiled (possibly engine-transformed) program.
func (s *System) Program() *ddlog.Program { return s.prog }

// ExpandStepRules replaces the labelled rule with n step-function band
// rules (the Fig. 10 DeepDive workaround). Must be called after LoadProgram
// and before Ground.
func (s *System) ExpandStepRules(label string, n int, maxDist, maxWeight float64) error {
	if s.prog == nil {
		return fmt.Errorf("core: no program loaded")
	}
	prog, err := deepdive.ExpandStepRules(s.prog, label, n, maxDist, maxWeight)
	if err != nil {
		return err
	}
	s.prog = prog
	return nil
}

// ExpandStepRulesWeighted replaces the labelled rule with n band rules
// whose weights follow a weighing function — the banded approximation of
// Sya's continuous spatial decay that Fig. 10 sweeps.
func (s *System) ExpandStepRulesWeighted(label string, n int, maxDist float64, fn weighting.Func) error {
	if s.prog == nil {
		return fmt.Errorf("core: no program loaded")
	}
	prog, err := deepdive.ExpandStepRulesWeighted(s.prog, label, n, maxDist, fn)
	if err != nil {
		return err
	}
	s.prog = prog
	return nil
}

// LoadRows appends rows to a relation table.
func (s *System) LoadRows(relation string, rows []storage.Row) error {
	tbl, err := s.db.Table(relation)
	if err != nil {
		return err
	}
	return tbl.AppendAll(rows)
}

// ParseRows converts textual rows (CSV fields, JSON strings) into typed
// storage rows against the relation's schema, with the same per-cell rules
// as the CSV loader. It validates width and syntax without touching the
// table, so callers can parse-then-log-then-apply.
func (s *System) ParseRows(relation string, raw [][]string) ([]storage.Row, error) {
	tbl, err := s.db.Table(relation)
	if err != nil {
		return nil, err
	}
	schema := tbl.Schema()
	rows := make([]storage.Row, 0, len(raw))
	for i, cells := range raw {
		if len(cells) != len(schema.Cols) {
			return nil, fmt.Errorf("row %d has %d cells, schema %s has %d columns",
				i, len(cells), schema.Name, len(schema.Cols))
		}
		row := make(storage.Row, len(cells))
		for c, cell := range cells {
			v, err := storage.ParseCell(schema.Cols[c], cell)
			if err != nil {
				return nil, fmt.Errorf("row %d column %s: %w", i, schema.Cols[c].Name, err)
			}
			row[c] = v
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// Ground runs the grounding module and returns its result.
func (s *System) Ground() (*grounding.Result, error) {
	return s.GroundContext(context.Background())
}

// GroundContext is Ground under a context: cancellation is honoured between
// grounding phases and inside the row/atom loops. A cancelled grounding
// returns the context error and leaves the previous grounding (if any)
// untouched. A span on ctx gets a core.ground stage with the grounding
// module's phases under it.
func (s *System) GroundContext(ctx context.Context) (*grounding.Result, error) {
	if s.prog == nil {
		return nil, fmt.Errorf("core: no program loaded")
	}
	start := time.Now()
	span := obs.SpanFromContext(ctx).Child("core.ground")
	defer span.End()
	res, err := grounding.New(s.prog, s.db, s.groundingOptions()).GroundContext(obs.ContextWithSpan(ctx, span))
	if err != nil {
		return nil, err
	}
	span.Notef("vars=%d evidence=%d query=%d logical_factors=%d spatial_pairs=%d workers=%d",
		res.Stats.Vars, res.Stats.EvidenceVars, res.Stats.QueryVars,
		res.Stats.LogicalFactors, res.Stats.SpatialPairs, res.Stats.Workers)
	s.ground = res
	s.closeSampler() // the old sampler's graph is gone; release its pool
	s.pinned = nil   // prior pins are baked into the fresh graph's evidence
	s.groundDur = time.Since(start)
	if r := s.cfg.Metrics; r != nil {
		r.Gauge("sya_ground_vars").Set(float64(res.Stats.Vars))
		r.Gauge("sya_ground_logical_factors").Set(float64(res.Stats.LogicalFactors))
		r.Gauge("sya_ground_spatial_pairs").Set(float64(res.Stats.SpatialPairs))
		r.Gauge("sya_ground_workers").Set(float64(res.Stats.Workers))
		r.Gauge("sya_ground_rules_seconds").Set(res.Stats.RulesTime.Seconds())
		r.Gauge("sya_ground_spatial_seconds").Set(res.Stats.SpatialTime.Seconds())
		r.Gauge("sya_ground_seconds").Set(s.groundDur.Seconds())
	}
	return res, nil
}

// groundingOptions maps the System config onto grounding options — shared
// by the batch and delta grounding paths.
func (s *System) groundingOptions() grounding.Options {
	return grounding.Options{
		Metric:         s.cfg.Metric,
		Weighting:      s.cfg.Weighting,
		PruneThreshold: s.cfg.PruneThreshold,
		SupportRadius:  s.cfg.SupportRadius,
		MaxNeighbors:   s.cfg.MaxNeighbors,
		UDFs:           s.cfg.UDFs,
		Workers:        s.cfg.Workers,
	}
}

// closeSampler releases the live sampler (and its worker pool) and the
// sharded-inference group, if any. Called wherever the graph or its weights
// change, so the next inference rebuilds against fresh state.
func (s *System) closeSampler() {
	if s.sampler != nil {
		s.sampler.Close()
		s.sampler = nil
	}
	if s.shardGroup != nil {
		s.shardGroup.Close()
		s.shardGroup = nil
	}
}

// Close releases the System's resources — the live sampler (or shard group)
// and the persistent worker goroutines of the pool it owns. The System stays
// usable for loading and grounding; the next inference call builds a fresh
// sampler. Idempotent.
func (s *System) Close() { s.closeSampler() }

// Grounding returns the last grounding result (nil before Ground).
func (s *System) Grounding() *grounding.Result { return s.ground }

// GroundingTime reports the wall time of the last Ground call.
func (s *System) GroundingTime() time.Duration { return s.groundDur }

// newSampler builds the engine's sampler over the ground graph.
func (s *System) newSampler() (gibbs.Sampler, error) {
	switch s.cfg.Engine {
	case EngineDeepDive:
		h := gibbs.NewHogwild(s.ground.Graph, s.cfg.Seed, s.cfg.Workers)
		h.SetBurnIn(s.burnIn(1))
		return h, nil
	default:
		return gibbs.NewSpatial(s.ground.Graph, gibbs.SpatialOptions{
			Levels:        s.cfg.PyramidLevels,
			LocalityLevel: s.cfg.LocalityLevel,
			Instances:     s.cfg.Instances,
			Workers:       s.cfg.Workers,
			Seed:          s.cfg.Seed,
			BurnIn:        s.burnIn(s.cfg.Instances),
		})
	}
}

// burnIn resolves the per-chain burn-in for a sampler running `chains`
// parallel chains over the configured epoch budget.
func (s *System) burnIn(chains int) int {
	switch {
	case s.cfg.BurnIn > 0:
		return s.cfg.BurnIn
	case s.cfg.BurnIn < 0:
		return 0
	default:
		return s.cfg.Epochs / (10 * chains)
	}
}

// Infer runs (or continues) inference for the configured number of epochs
// and returns the factual scores. Grounding must have run.
func (s *System) Infer() (*Scores, error) {
	return s.InferEpochs(s.cfg.Epochs)
}

// InferEpochs runs a specific number of total epochs. If the program
// declares @weight(?) rules and LearnWeights has not run, weights are
// learned first with default options.
func (s *System) InferEpochs(epochs int) (*Scores, error) {
	scores, _, err := s.InferContext(context.Background(), epochs)
	return scores, err
}

// InferContext is InferEpochs under a context. Cancellation (or a deadline)
// stops sampling within one dispatch chunk and still returns the scores
// estimated so far — partial marginals are statistically valid, just noisier
// — with stats.Reason recording why the run stopped and stats.Epochs how
// many full epochs it completed. A non-nil error means the run failed (for
// example a *gibbs.WorkerPanicError); cancellation alone is not an error.
//
// The sampler is built once per grounding and reused across inference calls
// (its worker pool persists); Close releases it.
//
// A span on ctx gets a core.infer stage whose children are what the call
// did: learn.weights (auto-learning), gibbs.build or shard.build (first call
// per grounding), the sweep (gibbs.steady, or shard.run) and
// gibbs.marginals.
func (s *System) InferContext(ctx context.Context, epochs int) (*Scores, gibbs.RunStats, error) {
	var stats gibbs.RunStats
	if s.ground == nil {
		return nil, stats, fmt.Errorf("core: Ground must run before Infer")
	}
	span := obs.SpanFromContext(ctx).Child("core.infer")
	defer span.End()
	ctx = obs.ContextWithSpan(ctx, span)
	if !s.learned && s.hasLearnedRules() {
		if _, err := s.LearnWeightsContext(ctx, learn.Options{Seed: s.cfg.Seed}); err != nil {
			return nil, stats, fmt.Errorf("core: auto-learning @weight(?) rules: %w", err)
		}
	}
	var run func(context.Context, int) (gibbs.RunStats, error)
	if s.cfg.Shards > 1 {
		if s.cfg.Engine == EngineDeepDive {
			return nil, stats, fmt.Errorf("core: sharded inference needs the Sya engine")
		}
		if err := s.ensureShardGroup(ctx); err != nil {
			return nil, stats, err
		}
		run = s.shardGroup.Run
	} else {
		if err := s.ensureSampler(ctx); err != nil {
			return nil, stats, err
		}
		run = s.sampler.RunTotal
	}
	start := time.Now()
	stats, err := run(ctx, epochs)
	s.inferDur += time.Since(start)
	if err != nil {
		return nil, stats, err
	}
	sp := span.Child("gibbs.marginals")
	defer sp.End()
	return s.scores(), stats, nil
}

// ensureShardGroup builds the sharded-inference group if none is live:
// partition, per-shard subgraphs/samplers, transports (TCP when ShardAddrs
// is set, in-process channels otherwise) — a shard.build stage of the span
// on ctx.
func (s *System) ensureShardGroup(ctx context.Context) error {
	if s.shardGroup != nil {
		return nil
	}
	span := obs.SpanFromContext(ctx).Child("shard.build")
	defer span.End()
	opts := shard.Options{
		Shards:        s.cfg.Shards,
		Levels:        s.cfg.PyramidLevels,
		LocalityLevel: s.cfg.LocalityLevel,
		Instances:     s.cfg.Instances,
		Workers:       s.cfg.Workers,
		Seed:          s.cfg.Seed,
		BurnIn:        s.burnIn(s.cfg.Instances),
		Metrics:       s.cfg.Metrics,
	}
	if len(s.cfg.ShardAddrs) > 0 {
		if len(s.cfg.ShardAddrs) != s.cfg.Shards {
			return fmt.Errorf("core: %d shard addresses for %d shards", len(s.cfg.ShardAddrs), s.cfg.Shards)
		}
		trs := make([]shard.Transport, s.cfg.Shards)
		for i := range trs {
			tr, err := shard.NewTCPTransport(i, s.cfg.ShardAddrs)
			if err != nil {
				for _, prior := range trs[:i] {
					prior.Close()
				}
				return fmt.Errorf("core: %w", err)
			}
			trs[i] = tr
		}
		opts.Transports = trs
	}
	gr, err := shard.New(s.ground.Graph, opts)
	if err != nil {
		for _, tr := range opts.Transports {
			tr.Close()
		}
		return fmt.Errorf("core: building shard group: %w", err)
	}
	span.Notef("shards=%d boundary_vars=%d", s.cfg.Shards, gr.ExchangeStats().BoundaryVars)
	s.shardGroup = gr
	return nil
}

// ensureSampler builds the engine sampler if none is live, wiring the
// observability plane into it — a gibbs.build stage of the span on ctx —
// and re-applies the grounding's evidence pins to it.
func (s *System) ensureSampler(ctx context.Context) error {
	if s.sampler != nil {
		return nil
	}
	span := obs.SpanFromContext(ctx).Child("gibbs.build")
	defer span.End()
	sampler, err := s.newSampler()
	if err != nil {
		return err
	}
	sampler.SetMetrics(gibbs.NewMetrics(s.cfg.Metrics))
	sampler.SetProgress(s.cfg.ProgressEvery, s.cfg.Progress)
	// Pins exist only where UpdateEvidence / UpsertEvidence found the
	// incremental sampler, so a rebuilt one within the grounding is one too.
	if sp, ok := sampler.(*gibbs.Spatial); ok {
		for v, val := range s.pinned {
			if err := sp.UpdateEvidence(v, val); err != nil {
				sampler.Close()
				return err
			}
		}
	}
	s.sampler = sampler
	return nil
}

// InferenceTime reports the cumulative wall time spent sampling.
func (s *System) InferenceTime() time.Duration { return s.inferDur }

// Sampler exposes the live sampler (nil before Infer).
func (s *System) Sampler() gibbs.Sampler { return s.sampler }

// incremental returns the live sampler as the spatial sampler — the only
// variant with evidence pins and restricted resampling.
func (s *System) incremental() (*gibbs.Spatial, error) {
	sp, ok := s.sampler.(*gibbs.Spatial)
	if !ok {
		return nil, fmt.Errorf("core: incremental inference needs the Sya engine with a live sampler")
	}
	return sp, nil
}

// UpdateEvidence pins a ground atom to a value (incremental inference; Sya
// engine only) — the atom is identified by its relation and term values.
// The first pin of an atom wins, as in UpsertEvidence: pinning the same
// value again does nothing, a different value is an error.
func (s *System) UpdateEvidence(relation string, vals []storage.Value, value int32) error {
	sp, err := s.incremental()
	if err != nil {
		return err
	}
	vid, ok := s.VarIDFor(relation, vals)
	if !ok {
		return fmt.Errorf("core: no ground atom %s(%v)", relation, vals)
	}
	if old, ok := s.pinned[vid]; ok {
		if old != value {
			return fmt.Errorf("core: %s is pinned to %d; cannot pin it to %d", s.ground.Graph.Var(vid).Name, old, value)
		}
		return nil
	}
	return s.pin(sp, vid, value)
}

// pin applies one new evidence pin to the live sampler and records it.
func (s *System) pin(sp *gibbs.Spatial, v factorgraph.VarID, value int32) error {
	if err := sp.UpdateEvidence(v, value); err != nil {
		return err
	}
	if s.pinned == nil {
		s.pinned = map[factorgraph.VarID]int32{}
	}
	s.pinned[v] = value
	return nil
}

// InferIncremental resamples only the concliques affected by evidence
// updates (paper Fig. 13a). Sya engine only.
func (s *System) InferIncremental(epochs int) (*Scores, error) {
	scores, _, err := s.InferIncrementalContext(context.Background(), epochs)
	return scores, err
}

// InferIncrementalContext is InferIncremental under a context, with the
// same cancellation and error semantics as InferContext.
func (s *System) InferIncrementalContext(ctx context.Context, epochs int) (*Scores, gibbs.RunStats, error) {
	sp, err := s.incremental()
	if err != nil {
		return nil, gibbs.RunStats{}, err
	}
	start := time.Now()
	stats, err := sp.RunIncrementalContext(ctx, epochs)
	s.inferDur += time.Since(start)
	if err != nil {
		return nil, stats, err
	}
	return s.scores(), stats, nil
}

// LearnWeights learns the inference rules' tied weights (and optionally a
// spatial-scale multiplier) from the graph's evidence by contrastive
// divergence, updating the ground factor graph in place. It must run after
// Ground and before (or instead of the program's fixed weights for) Infer;
// any live sampler is reset so inference restarts under the learned
// weights. It returns the learned weight per rule, keyed by rule name.
func (s *System) LearnWeights(opts learn.Options) (map[string]float64, error) {
	return s.LearnWeightsContext(context.Background(), opts)
}

// LearnWeightsContext is LearnWeights under a context, checked every chain
// sweep; a cancelled run takes no step for the iteration it cut and returns
// the context error.
func (s *System) LearnWeightsContext(ctx context.Context, opts learn.Options) (map[string]float64, error) {
	if s.ground == nil {
		return nil, fmt.Errorf("core: Ground must run before LearnWeights")
	}
	res, err := learn.Weights(ctx, s.ground.Graph, s.ground.FactorRule, len(s.ground.RuleNames), opts)
	if err != nil {
		return nil, err
	}
	s.learned = true
	s.closeSampler() // resample under the learned weights
	out := make(map[string]float64, len(res.Weights))
	for i, w := range res.Weights {
		out[s.ground.RuleNames[i]] = w
	}
	return out, nil
}

// World is a single joint assignment of all ground atoms — the output of
// MAP inference.
type World struct {
	assign factorgraph.Assignment
	Energy float64
	ground *grounding.Result
}

// Value returns the atom's value in the world (0/1 for binary atoms).
func (w *World) Value(relation string, vals []storage.Value) (int32, bool) {
	vid, ok := w.ground.VarID[grounding.AtomKey(relation, vals)]
	if !ok {
		return 0, false
	}
	return w.assign[vid], true
}

// MAP estimates the most probable world by simulated annealing (see
// gibbs.MAP). Grounding must have run.
func (s *System) MAP(opts gibbs.MAPOptions) (*World, error) {
	world, _, err := s.MAPContext(context.Background(), opts)
	return world, err
}

// MAPContext is MAP under a context. On cancellation the best (greedily
// polished) world found so far is still returned; interrupted reports
// whether annealing ran to completion.
func (s *System) MAPContext(ctx context.Context, opts gibbs.MAPOptions) (world *World, interrupted bool, err error) {
	if s.ground == nil {
		return nil, false, fmt.Errorf("core: Ground must run before MAP")
	}
	assign, energy, ctxErr := gibbs.MAPContext(ctx, s.ground.Graph, opts)
	if assign == nil {
		return nil, true, ctxErr
	}
	return &World{assign: assign, Energy: energy, ground: s.ground}, ctxErr != nil, nil
}

// hasLearnedRules reports whether the program declares @weight(?) rules.
func (s *System) hasLearnedRules() bool {
	if s.prog == nil {
		return false
	}
	for _, r := range s.prog.Rules {
		if r.LearnedWeight {
			return true
		}
	}
	return false
}

// VarIDFor resolves a ground atom.
func (s *System) VarIDFor(relation string, vals []storage.Value) (factorgraph.VarID, bool) {
	if s.ground == nil {
		return 0, false
	}
	vid, ok := s.ground.VarID[grounding.AtomKey(relation, vals)]
	return vid, ok
}

// Scores holds inference output.
type Scores struct {
	// Marginals per variable per value.
	Marginals [][]float64
	ground    *grounding.Result
}

func (s *System) scores() *Scores {
	if s.shardGroup != nil {
		return &Scores{Marginals: s.shardGroup.Marginals(), ground: s.ground}
	}
	return &Scores{Marginals: s.sampler.Marginals(), ground: s.ground}
}

// TrueProb returns the factual score (P(value 1)) of a binary ground atom
// by relation and term values.
func (sc *Scores) TrueProb(relation string, vals []storage.Value) (float64, bool) {
	vid, ok := sc.ground.VarID[grounding.AtomKey(relation, vals)]
	if !ok {
		return 0, false
	}
	m := sc.Marginals[vid]
	if len(m) < 2 {
		return 0, false
	}
	return m[1], true
}

// Marginal returns the full marginal distribution of a ground atom.
func (sc *Scores) Marginal(relation string, vals []storage.Value) ([]float64, bool) {
	vid, ok := sc.ground.VarID[grounding.AtomKey(relation, vals)]
	if !ok {
		return nil, false
	}
	return sc.Marginals[vid], true
}

// Each iterates ground atoms of a relation with their marginals, in
// unspecified order.
func (sc *Scores) Each(relation string, fn func(key string, vid factorgraph.VarID, marginal []float64) bool) {
	prefix := strings.ToLower(relation) + "|"
	for key, vid := range sc.ground.VarID {
		if !strings.HasPrefix(key, prefix) {
			continue
		}
		if !fn(key, vid, sc.Marginals[vid]) {
			return
		}
	}
}
