// Package grounding implements Sya's grounding module (paper Section IV):
// it evaluates a validated DDlog program against the storage database and
// constructs the spatial factor graph.
//
// The phases mirror the paper's pipeline:
//
//  1. UDF applications run first (feature extraction, e.g. spatial NER);
//  2. derivation rules materialize the variable relations — one ground atom
//     per distinct head-key tuple, with evidence from the label term;
//  3. inference rules are translated to SQL (internal/translate), executed
//     by the sqlx engine (which re-orders range predicates before spatial
//     joins, Fig. 5), and every result row becomes one weighted logical
//     factor (Eq. 1);
//  4. for every @spatial variable relation, spatial factors (Eq. 2/Eq. 4)
//     are generated between atom pairs within the weighing function's
//     support radius, using an R-tree to avoid the all-pairs scan;
//  5. for categorical spatial relations, the co-occurrence pruning of
//     Section IV-C computes P(i|j) and P(j|i) over neighbouring evidence
//     atoms and keeps only domain-value pairs exceeding the threshold T.
package grounding

import (
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"runtime"
	"slices"
	"strings"
	"time"

	"repro/internal/ddlog"
	"repro/internal/factorgraph"
	"repro/internal/geom"
	"repro/internal/index/rtree"
	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/sqlx"
	"repro/internal/storage"
	"repro/internal/translate"
	"repro/internal/weighting"
)

// UDF is a user-defined function implementation: one input tuple in, zero
// or more output rows out (paper Section III, "Spatial UDFs").
type UDF func(args []storage.Value) ([]storage.Row, error)

// Options configures grounding.
type Options struct {
	// Metric is the distance metric for rule distance predicates and
	// spatial-factor weights.
	Metric geom.Metric
	// Weighting resolves @spatial(w) names; nil uses a default registry
	// with bandwidth 50 and unit scale.
	Weighting *weighting.Registry
	// PruneThreshold is T of Section IV-C; used only for categorical
	// spatial relations. Default 0.5.
	PruneThreshold float64
	// SupportRadius overrides the weighing function's support radius for
	// spatial-factor generation (0 keeps the function's own).
	SupportRadius float64
	// MaxNeighbors caps spatial factors per atom to its k nearest
	// neighbours (0 = unlimited). A scalability valve for dense data.
	MaxNeighbors int
	// UDFs resolves function implementation keys.
	UDFs map[string]UDF
	// Workers is the grounding worker-pool width: concurrent rule/derivation
	// query evaluation, sharded spatial sweeps and co-occurrence counting
	// (0 → GOMAXPROCS, 1 → fully sequential). The grounded factor graph is
	// identical for any worker count (see DESIGN.md §9).
	Workers int
}

func (o Options) withDefaults() Options {
	if o.Weighting == nil {
		o.Weighting = weighting.NewRegistry(50, 1)
	}
	if o.PruneThreshold == 0 {
		o.PruneThreshold = 0.5
	}
	return o
}

// Stats reports what grounding produced and how long the phases took
// (Table I and the grounding-time series of Figs. 9–11 come from here).
type Stats struct {
	Vars                 int
	EvidenceVars         int
	QueryVars            int
	LogicalFactors       int
	SpatialPairs         int
	GroundSpatialFactors int64
	SkippedHeadLookups   int
	DuplicateDerivations int
	PrunedValuePairs     int
	AllowedValuePairs    int
	RuleFactors          map[string]int
	DerivationRows       map[string]int
	RuleSQL              map[string]string

	// Workers is the effective grounding worker-pool width (after the
	// 0 → GOMAXPROCS default resolves).
	Workers int

	RulesTime   time.Duration
	SpatialTime time.Duration
	TotalTime   time.Duration
}

// Result is the grounding output.
type Result struct {
	Graph *factorgraph.Graph
	Stats Stats
	// VarID resolves "Relation|k1|k2|..." ground-atom keys; Keys is its
	// inverse, Keys[vid] the key of variable vid.
	VarID map[string]factorgraph.VarID
	Keys  []string
	// RelationIndex maps variable relation names (lower-cased) to the
	// Relation field used in factorgraph variables.
	RelationIndex map[string]int32
	// RuleNames lists the inference rules in grounding order; FactorRule
	// maps every logical factor to its rule index — the tying structure
	// weight learning (internal/learn) needs.
	RuleNames  []string
	FactorRule []int32
	// Deps is the program's rule→relation dependency index, used by
	// DeltaContext to bound what an evidence upsert invalidates.
	Deps *Deps

	// ids is VarID keyed by appendAtomIdent instead of the rendered key: the
	// index every per-row probe of grounding and DeltaContext goes through.
	ids map[string]factorgraph.VarID
}

// Grounder drives grounding of one program over one database.
type Grounder struct {
	prog *ddlog.Program
	db   *storage.DB
	eng  *sqlx.Engine
	opts Options
	// ctx is the active grounding context, polled between phases and
	// periodically inside the row/atom loops (set by GroundContext).
	ctx context.Context
	// span is the open phase stage (grounding.rules, grounding.spatial) the
	// per-UDF, per-derivation, per-rule and per-relation stages nest under;
	// a no-op unless ctx carried a span. An error return leaves it open for
	// the trace's Finish to close.
	span obs.Span
	// spatial collects the located ground atoms of each @spatial relation
	// (keyed by lower-cased relation name) during derivation, for the
	// spatial-factor phase.
	spatial map[string][]spatialAtom
}

// checkCtx polls the grounding context on every 256th iteration, so hot
// loops pay one atomic load amortized rather than a ctx.Err call per row.
func (gr *Grounder) checkCtx(i int) error {
	if i&255 == 0 {
		if err := gr.ctx.Err(); err != nil {
			return fmt.Errorf("grounding: interrupted: %w", err)
		}
	}
	return nil
}

// New creates a grounder.
func New(prog *ddlog.Program, db *storage.DB, opts Options) *Grounder {
	return &Grounder{
		prog:    prog,
		db:      db,
		eng:     sqlx.NewEngine(db),
		opts:    opts.withDefaults(),
		spatial: map[string][]spatialAtom{},
	}
}

// EnsureSchemas creates any program relations missing from the database
// (callers typically pre-create and load the typical relations; variable
// relations are materialized here).
func (gr *Grounder) EnsureSchemas() error {
	for _, rel := range gr.prog.Relations {
		if _, err := gr.db.Table(rel.Name); err == nil {
			continue
		}
		if _, err := gr.db.Create(translate.SchemaFor(rel)); err != nil {
			return err
		}
	}
	return nil
}

// AtomKey builds the ground-atom identity used by Result.VarID from a
// relation name and the atom's term values: "relname|v1|v2|..." with the
// relation lower-cased and values rendered by storage.Value.String.
func AtomKey(rel string, vals []storage.Value) string {
	return string(AppendAtomKey(nil, rel, vals))
}

// AppendAtomKey appends the bytes of AtomKey(rel, vals) to dst, so a caller
// can render many keys into one reused buffer. strings.ToLower returns its
// argument unchanged when there is nothing to lower, so a caller that
// lower-cases rel once pays nothing per key.
func AppendAtomKey(dst []byte, rel string, vals []storage.Value) []byte {
	dst = append(dst, strings.ToLower(rel)...)
	for _, v := range vals {
		dst = append(dst, '|')
		dst = v.AppendString(dst)
	}
	return dst
}

const (
	// identPoint opens a point's 16 bytes in an identity key. No other
	// value's rendering starts with it (text that does takes the rendered
	// form), so an identity splits into its values one way only.
	identPoint = 0x00
	// identRendered opens an identity that is the whole AtomKey. No relation
	// name starts with it.
	identRendered = 0x01
)

// appendAtomIdent appends the identity of a ground atom: the key the
// per-row probes (derivation dedup, rule-head lookup, DeltaContext) use in
// place of AtomKey, which would format both coordinates of every point of
// every row. It is AppendAtomKey except that a geom.Point is written as
// identPoint plus the Float64bits of X and Y, every NaN as one bit pattern
// because WKT spells every NaN "NaN". Shortest-form float formatting is
// injective on the other floats, so two points have equal identities
// exactly when their WKTs are equal.
//
// For the values of one relation's atoms, two identities are equal exactly
// when the AtomKeys are, provided no position holds a point in one atom and
// text spelling that point's WKT in the other. Text holding '|' makes
// AtomKey's value boundaries ambiguous, and text starting with identPoint
// would read as a point, so an atom with either is identified by its whole
// AtomKey behind identRendered. Such an AtomKey has more '|' than the
// relation has values, or a value no other kind renders, so it never equals
// the AtomKey of an atom identified the short way.
func appendAtomIdent(dst []byte, rel string, vals []storage.Value) []byte {
	for _, v := range vals {
		if v.Kind == storage.KindString && (strings.IndexByte(v.S, '|') >= 0 || (v.S != "" && v.S[0] == identPoint)) {
			return AppendAtomKey(append(dst, identRendered), rel, vals)
		}
	}
	dst = append(dst, strings.ToLower(rel)...)
	for _, v := range vals {
		dst = append(dst, '|')
		if p, ok := v.G.(geom.Point); ok && v.Kind == storage.KindGeom {
			dst = append(dst, identPoint)
			dst = binary.LittleEndian.AppendUint64(dst, identBits(p.X))
			dst = binary.LittleEndian.AppendUint64(dst, identBits(p.Y))
			continue
		}
		dst = v.AppendString(dst)
	}
	return dst
}

// identBits is f's bit pattern with every NaN made one.
func identBits(f float64) uint64 {
	if f != f {
		return identNaN
	}
	return math.Float64bits(f)
}

var identNaN = math.Float64bits(math.NaN())

// Ground runs all phases and returns the spatial factor graph.
func (gr *Grounder) Ground() (*Result, error) {
	return gr.GroundContext(context.Background())
}

// GroundContext is Ground under a context: cancellation is honoured between
// phases and periodically inside the per-row and per-atom loops, returning
// the context error. A cancelled grounding leaves no usable Result — unlike
// sampling there is no meaningful partial factor graph. A span on ctx gets
// the two phases as stages (grounding.rules, grounding.spatial) with one
// child per UDF application, derivation, rule and @spatial relation, all
// recorded from this goroutine.
func (gr *Grounder) GroundContext(ctx context.Context) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	gr.ctx = ctx
	workers := parallel.Resolve(gr.opts.Workers)
	// Batched probe evaluation inside the SQL engine's joins shares the
	// grounding worker budget and cancellation context.
	gr.eng.SetParallelism(workers, ctx)
	start := time.Now()
	if err := gr.EnsureSchemas(); err != nil {
		return nil, err
	}
	res := &Result{
		RelationIndex: map[string]int32{},
		Deps:          ComputeDeps(gr.prog),
	}
	res.Stats.RuleFactors = map[string]int{}
	res.Stats.DerivationRows = map[string]int{}
	res.Stats.RuleSQL = map[string]string{}
	for i, rel := range gr.prog.VariableRelations() {
		res.RelationIndex[strings.ToLower(rel.Name)] = int32(i)
	}
	builder := factorgraph.NewBuilder()

	rulesStart := time.Now()
	gr.span = obs.SpanFromContext(ctx).Child("grounding.rules")
	if err := gr.runApps(); err != nil {
		return nil, err
	}
	if err := gr.checkCtx(0); err != nil {
		return nil, err
	}
	if err := gr.runDerivations(builder, res); err != nil {
		return nil, err
	}
	if err := gr.checkCtx(0); err != nil {
		return nil, err
	}
	if err := gr.runInferenceRules(builder, res); err != nil {
		return nil, err
	}
	res.Stats.RulesTime = time.Since(rulesStart)
	gr.span.End()

	spatialStart := time.Now()
	gr.span = obs.SpanFromContext(ctx).Child("grounding.spatial")
	if err := gr.groundSpatialFactors(builder, res); err != nil {
		return nil, err
	}
	res.Stats.SpatialTime = time.Since(spatialStart)
	gr.span.End()

	g, err := builder.Finalize()
	if err != nil {
		return nil, err
	}
	res.Graph = g
	res.Stats.Vars = g.NumVars()
	res.Stats.LogicalFactors = g.NumFactors()
	res.Stats.SpatialPairs = g.NumSpatialFactors()
	res.Stats.GroundSpatialFactors = g.CountGroundSpatialFactors()
	g.Vars(func(_ factorgraph.VarID, v factorgraph.Variable) bool {
		if v.Evidence == factorgraph.NoEvidence {
			res.Stats.QueryVars++
		} else {
			res.Stats.EvidenceVars++
		}
		return true
	})
	res.Stats.Workers = workers
	res.Stats.TotalTime = time.Since(start)
	return res, nil
}

// runApps executes UDF applications.
func (gr *Grounder) runApps() error {
	for _, app := range gr.prog.Apps {
		sp := gr.span.Child("udf")
		var impl UDF
		var implKey string
		for _, fn := range gr.prog.Functions {
			if strings.EqualFold(fn.Name, app.Fn) {
				implKey = fn.Implementation
				break
			}
		}
		impl = gr.opts.UDFs[implKey]
		if impl == nil {
			return fmt.Errorf("grounding: no implementation registered for UDF %q (key %q)", app.Fn, implKey)
		}
		q, err := translate.App(gr.prog, app, translate.Options{Metric: gr.opts.Metric})
		if err != nil {
			return err
		}
		rows, err := gr.eng.Exec(q.SQL, q.Params)
		if err != nil {
			return fmt.Errorf("grounding: UDF %s body: %w", app.Fn, err)
		}
		target, err := gr.db.Table(app.Target)
		if err != nil {
			return err
		}
		for _, in := range rows.Rows {
			outs, err := impl(in)
			if err != nil {
				return fmt.Errorf("grounding: UDF %s: %w", app.Fn, err)
			}
			for _, out := range outs {
				if err := target.Append(out); err != nil {
					return fmt.Errorf("grounding: UDF %s output: %w", app.Fn, err)
				}
			}
		}
		sp.Notef("fn=%s rows=%d", app.Fn, len(rows.Rows))
		sp.End()
	}
	return nil
}

// derivedAtom accumulates one ground atom before variable creation.
type derivedAtom struct {
	rel      *ddlog.RelationDecl
	relKey   string // lower-cased rel.Name
	vals     []storage.Value
	evidence int32
}

// queryJob is one dispatched SQL evaluation in execAhead's look-ahead
// window; done closes when res/err are final.
type queryJob struct {
	res  *sqlx.Result
	err  error
	done chan struct{}
}

// wait blocks until the job completes and returns its result. The job drops
// its own reference, so a result's rows become garbage once the consumer
// has emitted them instead of living until the last query is consumed.
func (j *queryJob) wait() (*sqlx.Result, error) {
	<-j.done
	res := j.res
	j.res = nil
	return res, j.err
}

// drainJobs awaits every outstanding job — called on early error returns so
// no query goroutine outlives its grounding call.
func drainJobs(jobs []*queryJob) {
	for _, j := range jobs {
		<-j.done
	}
}

// execAhead evaluates the translated queries concurrently, at most
// Options.Workers in flight, and returns per-query jobs. The caller awaits
// job i before job i+1, so downstream emission (factor creation, atom
// accumulation) runs in exactly the sequential order. Rule and derivation
// bodies only read relations that are fully materialized before this phase,
// so concurrent evaluation is safe (storage.Table guards its lazily built
// indexes internally).
func (gr *Grounder) execAhead(queries []translate.Query) []*queryJob {
	jobs := make([]*queryJob, len(queries))
	sem := make(chan struct{}, parallel.Resolve(gr.opts.Workers))
	for i := range queries {
		jobs[i] = &queryJob{done: make(chan struct{})}
		go func(i int) {
			defer close(jobs[i].done)
			sem <- struct{}{}
			defer func() { <-sem }()
			defer func() {
				if r := recover(); r != nil {
					buf := make([]byte, 64<<10)
					buf = buf[:runtime.Stack(buf, false)]
					jobs[i].err = fmt.Errorf("grounding: query panic: %v\n%s", r, buf)
				}
			}()
			jobs[i].res, jobs[i].err = gr.eng.Exec(queries[i].SQL, queries[i].Params)
		}(i)
	}
	return jobs
}

// runDerivations materializes variable relations and creates ground atoms.
// Derivation queries evaluate concurrently (execAhead); atom accumulation —
// where duplicate resolution is order-sensitive — consumes the results in
// derivation order.
func (gr *Grounder) runDerivations(b *factorgraph.Builder, res *Result) error {
	// atoms is in first-derivation order, which is variable creation order,
	// so ids maps an atom's identity to its index in atoms and to its VarID.
	var atoms []derivedAtom
	ids := map[string]factorgraph.VarID{}
	queries := make([]translate.Query, len(gr.prog.Derivations))
	for i, d := range gr.prog.Derivations {
		q, err := translate.Derivation(gr.prog, d, translate.Options{Metric: gr.opts.Metric})
		if err != nil {
			return err
		}
		res.Stats.RuleSQL[ruleName("derivation", d.Label, len(res.Stats.RuleSQL))] = q.SQL
		queries[i] = q
	}
	jobs := gr.execAhead(queries)
	defer drainJobs(jobs)
	var idBuf, keyBuf []byte // identity and atom-key scratch, reused across rows
	cells := 0               // table cells the atoms will materialize
	for di, d := range gr.prog.Derivations {
		sp := gr.span.Child("derivation")
		rows, err := jobs[di].wait()
		if err != nil {
			return fmt.Errorf("grounding: derivation %s: %w", d.Label, err)
		}
		rel, _ := gr.prog.Relation(d.Head.Rel)
		relKey := strings.ToLower(rel.Name)
		width := len(d.Head.Terms)
		if len(rows.Rows) > 0 {
			res.Stats.DerivationRows[derLabel(d)] += len(rows.Rows)
		}
		for ri, row := range rows.Rows {
			if err := gr.checkCtx(ri); err != nil {
				return err
			}
			ev, err := labelToEvidence(rel, row[width])
			if err != nil {
				return fmt.Errorf("grounding: derivation %s: %w", d.Label, err)
			}
			idBuf = appendAtomIdent(idBuf[:0], relKey, row[:width])
			if i, dup := ids[string(idBuf)]; dup {
				res.Stats.DuplicateDerivations++
				// Evidence beats NULL; conflicting evidence keeps the first.
				if existing := &atoms[i]; existing.evidence == factorgraph.NoEvidence && ev != factorgraph.NoEvidence {
					existing.evidence = ev
				}
				continue
			}
			ids[string(idBuf)] = factorgraph.VarID(len(atoms))
			// The public key is rendered once per atom, not once per row.
			keyBuf = AppendAtomKey(keyBuf[:0], relKey, row[:width])
			res.Keys = append(res.Keys, string(keyBuf))
			atoms = append(atoms, derivedAtom{rel: rel, relKey: relKey, vals: row[:width:width], evidence: ev})
			cells += width + 1
		}
		sp.Notef("label=%s rows=%d", derLabel(d), len(rows.Rows))
		sp.End()
	}
	res.ids = ids
	res.VarID = make(map[string]factorgraph.VarID, len(atoms))
	// Every variable relation row is carved from one slab: the tables keep
	// all of them for the database's lifetime anyway.
	slab := make([]storage.Value, 0, cells)
	for i, a := range atoms {
		domain := int32(2)
		if a.rel.Categorical > 0 {
			domain = int32(a.rel.Categorical)
		}
		v := factorgraph.Variable{
			Name:     a.rel.Name + "(" + res.Keys[i] + ")",
			Domain:   domain,
			Evidence: a.evidence,
			Relation: res.RelationIndex[a.relKey],
		}
		if sc := a.rel.SpatialCol(); sc >= 0 && !a.vals[sc].IsNull() {
			if g, err := a.vals[sc].AsGeom(); err == nil {
				v.Loc = g.Bounds().Center()
				v.HasLoc = true
			}
		}
		// The builder is fresh, so vid == i: ids holds VarIDs already.
		vid, err := b.AddVariable(v)
		if err != nil {
			return err
		}
		res.VarID[res.Keys[i]] = vid
		if a.rel.Spatial != "" && v.HasLoc {
			gr.spatial[a.relKey] = append(gr.spatial[a.relKey], spatialAtom{
				vid: vid, loc: v.Loc, evidence: a.evidence,
			})
		}
		// Materialize the atom into the variable relation table.
		tbl, err := gr.db.Table(a.relKey)
		if err != nil {
			return err
		}
		n := len(slab)
		slab = append(append(slab, a.vals...), storage.Int(int64(vid)))
		if err := tbl.Append(slab[n:len(slab):len(slab)]); err != nil {
			return err
		}
	}
	return nil
}

func derLabel(d *ddlog.DerivationRule) string {
	if d.Label != "" {
		return d.Label
	}
	return "derivation@" + fmt.Sprint(d.Line)
}

func ruleName(kind, label string, n int) string {
	if label != "" {
		return label
	}
	return fmt.Sprintf("%s#%d", kind, n)
}

// labelToEvidence converts a derivation label value into an evidence value.
func labelToEvidence(rel *ddlog.RelationDecl, v storage.Value) (int32, error) {
	if v.IsNull() {
		return factorgraph.NoEvidence, nil
	}
	switch v.Kind {
	case storage.KindBool:
		if rel.Categorical > 0 {
			return 0, fmt.Errorf("boolean label for categorical relation %s", rel.Name)
		}
		if v.I != 0 {
			return 1, nil
		}
		return 0, nil
	case storage.KindInt, storage.KindFloat:
		iv, err := v.AsInt()
		if err != nil {
			return 0, err
		}
		domain := int64(2)
		if rel.Categorical > 0 {
			domain = int64(rel.Categorical)
		}
		if iv < 0 || iv >= domain {
			return 0, fmt.Errorf("label %d outside domain of %s", iv, rel.Name)
		}
		return int32(iv), nil
	default:
		return 0, fmt.Errorf("unsupported label kind %s for %s", v.Kind, rel.Name)
	}
}

// runInferenceRules grounds logical factors. Rule queries evaluate
// concurrently (execAhead); factor emission consumes results in rule order,
// preserving FactorRule numbering and the sequential factor layout.
func (gr *Grounder) runInferenceRules(b *factorgraph.Builder, res *Result) error {
	queries := make([]translate.Query, len(gr.prog.Rules))
	for ri, rule := range gr.prog.Rules {
		q, err := translate.Inference(gr.prog, rule, translate.Options{Metric: gr.opts.Metric})
		if err != nil {
			return err
		}
		name := ruleName("rule", rule.Label, ri)
		res.RuleNames = append(res.RuleNames, name)
		res.Stats.RuleSQL[name] = q.SQL
		queries[ri] = q
	}
	jobs := gr.execAhead(queries)
	defer drainJobs(jobs)
	var idBuf []byte // identity scratch, reused across rows and head atoms
	for ri, rule := range gr.prog.Rules {
		sp := gr.span.Child("rule")
		q := queries[ri]
		name := res.RuleNames[ri]
		ruleIdx := int32(ri)
		rows, err := jobs[ri].wait()
		if err != nil {
			return fmt.Errorf("grounding: rule %s: %w", name, err)
		}
		kind, err := factorKindFor(rule)
		if err != nil {
			return fmt.Errorf("grounding: rule %s: %w", name, err)
		}
		headRels := make([]string, len(rule.Head))
		for hi, h := range rule.Head {
			headRels[hi] = strings.ToLower(h.Atom.Rel)
		}
		// AddFactor copies vars and neg, so one pair of slices serves the rule.
		vars := make([]factorgraph.VarID, 0, len(rule.Head))
		neg := make([]bool, 0, len(rule.Head))
		for ri, row := range rows.Rows {
			if err := gr.checkCtx(ri); err != nil {
				return err
			}
			vars, neg = vars[:0], neg[:0]
			off := 0
			ok := true
			for hi, h := range rule.Head {
				w := q.HeadWidths[hi]
				idBuf = appendAtomIdent(idBuf[:0], headRels[hi], row[off:off+w])
				off += w
				vid, found := res.ids[string(idBuf)]
				if !found {
					res.Stats.SkippedHeadLookups++
					ok = false
					break
				}
				vars = append(vars, vid)
				neg = append(neg, h.Negated)
			}
			if !ok {
				continue
			}
			if err := b.AddFactor(kind, rule.Weight, vars, neg); err != nil {
				return fmt.Errorf("grounding: rule %s: %w", name, err)
			}
			res.FactorRule = append(res.FactorRule, ruleIdx)
			res.Stats.RuleFactors[name]++
		}
		sp.Notef("rule=%s rows=%d factors=%d", name, len(rows.Rows), res.Stats.RuleFactors[name])
		sp.End()
	}
	return nil
}

// factorKindFor maps head connectives to factor kinds.
func factorKindFor(r *ddlog.InferenceRule) (factorgraph.FactorKind, error) {
	switch r.Connective {
	case ddlog.ConnImply:
		return factorgraph.FactorImply, nil
	case ddlog.ConnAnd:
		return factorgraph.FactorAnd, nil
	case ddlog.ConnOr:
		return factorgraph.FactorOr, nil
	case ddlog.ConnSingle:
		return factorgraph.FactorIsTrue, nil
	default:
		return 0, fmt.Errorf("unsupported head connective")
	}
}

// spatialAtom is one located ground atom of a spatial relation.
type spatialAtom struct {
	vid      factorgraph.VarID
	loc      geom.Point
	evidence int32
}

// sweepGrain is the atom-chunk size for sharded spatial sweeps: large
// enough to amortize dispatch and per-chunk scratch, small enough to
// balance clustered data across workers. Chunk boundaries depend only on
// the atom count, never on the worker count — the determinism anchor.
const sweepGrain = 64

// coocGrain is the evidence-atom chunk size for sharded co-occurrence
// counting (the per-atom work is lighter than the sweep's, so chunks are
// bigger).
const coocGrain = 256

// groundSpatialFactors generates Eq. 2 / Eq. 4 factors for every @spatial
// relation, plus the Section IV-C pruning mask for categorical domains.
// The per-relation sweep is sharded across Options.Workers; dedup uses
// canonical-ordered emission (each unordered pair is emitted by exactly one
// atom's neighbourhood) instead of a seen-map, so chunk outputs concatenated
// in atom order yield a factor graph identical for any worker count
// (DESIGN.md §9).
func (gr *Grounder) groundSpatialFactors(b *factorgraph.Builder, res *Result) error {
	workers := parallel.Resolve(gr.opts.Workers)
	for _, rel := range gr.prog.VariableRelations() {
		if rel.Spatial == "" {
			continue
		}
		fn, err := gr.opts.Weighting.Lookup(rel.Spatial)
		if err != nil {
			return fmt.Errorf("grounding: relation %s: %w", rel.Name, err)
		}
		radius := gr.opts.SupportRadius
		if radius <= 0 {
			radius = fn.Support()
		}
		atoms := gr.spatial[strings.ToLower(rel.Name)]
		if len(atoms) == 0 {
			continue
		}
		sp := gr.span.Child("spatial")
		// Categorical pruning mask (Section IV-C).
		if rel.Categorical > 0 {
			mask, pruned, allowed, err := gr.cooccurrenceMask(rel, atoms, radius)
			if err != nil {
				return err
			}
			relIdx := res.RelationIndex[strings.ToLower(rel.Name)]
			if err := b.SetAllowedPairs(relIdx, int32(rel.Categorical), mask); err != nil {
				return err
			}
			res.Stats.PrunedValuePairs += pruned
			res.Stats.AllowedValuePairs += allowed
		}
		// R-tree over atoms for neighbour search. Bulk reorders items in
		// place but Data keeps the atom index; concurrent Search is safe
		// (read-only traversal).
		items := make([]rtree.Item, len(atoms))
		for i, a := range atoms {
			items[i] = rtree.Item{Rect: a.loc.Bounds(), Data: int64(i)}
		}
		tree := rtree.Bulk(items)
		var pairs []factorgraph.SpatialPair
		if gr.opts.MaxNeighbors > 0 {
			pairs, err = gr.sweepCapped(tree, atoms, radius, fn, workers)
		} else {
			pairs, err = gr.sweepUnlimited(tree, atoms, radius, fn, workers)
		}
		if err != nil {
			return fmt.Errorf("grounding: relation %s: %w", rel.Name, err)
		}
		if err := b.AddSpatialPairs(pairs); err != nil {
			return fmt.Errorf("grounding: relation %s: %w", rel.Name, err)
		}
		sp.Notef("relation=%s atoms=%d pairs=%d workers=%d", rel.Name, len(atoms), len(pairs), workers)
		sp.End()
	}
	return nil
}

// sweepUnlimited generates spatial factors with no per-atom neighbour cap.
// Within a relation the atom slice is in variable-creation (VarID) order,
// and the within-radius relation is symmetric, so emitting only neighbours
// j > i from atom i's window produces every unordered pair exactly once —
// no seen-map, no per-atom scratch, and half the distance evaluations of
// the old bidirectional sweep.
func (gr *Grounder) sweepUnlimited(tree *rtree.Tree, atoms []spatialAtom, radius float64, fn weighting.Func, workers int) ([]factorgraph.SpatialPair, error) {
	parts := make([][]factorgraph.SpatialPair, parallel.NumChunks(len(atoms), sweepGrain))
	err := parallel.For(gr.ctx, workers, len(atoms), sweepGrain, func(c, lo, hi int) error {
		var out []factorgraph.SpatialPair
		for i := lo; i < hi; i++ {
			a := atoms[i]
			window := geom.ExpandWindow(a.loc.Bounds(), radius, gr.opts.Metric)
			tree.Search(window, func(it rtree.Item) bool {
				j := int(it.Data)
				if j <= i {
					return true
				}
				d := gr.opts.Metric.Dist(a.loc, atoms[j].loc)
				if d > radius {
					return true
				}
				out = append(out, factorgraph.SpatialPair{A: a.vid, B: atoms[j].vid, W: fn.Weight(d)})
				return true
			})
		}
		parts[c] = out
		return nil
	})
	if err != nil {
		return nil, err
	}
	return concatPairs(parts), nil
}

// nbr is one within-radius neighbour in the capped sweep's k-NN lists.
type nbr struct {
	j int32
	d float64
}

// nbrLess is the capped sweep's total neighbour order: distance, then atom
// index. The index tie-break keeps the k-nearest selection independent of
// R-tree traversal order (and hence of worker count).
func nbrLess(x, y nbr) bool {
	if x.d != y.d {
		return x.d < y.d
	}
	return x.j < y.j
}

// selectNearestK reduces within to its k smallest neighbours under nbrLess,
// in unspecified order. The selection is a classic bounded max-heap built
// in place over within[:k] — each remaining candidate either loses to the
// current worst survivor or replaces it — so it allocates nothing and does
// O(n log k) comparisons instead of sorting the whole list.
func selectNearestK(within []nbr, k int) []nbr {
	if len(within) <= k {
		return within
	}
	h := within[:k]
	for i := k/2 - 1; i >= 0; i-- {
		nbrSiftDown(h, i)
	}
	for _, cand := range within[k:] {
		if nbrLess(cand, h[0]) {
			h[0] = cand
			nbrSiftDown(h, 0)
		}
	}
	return h
}

// nbrSiftDown restores the max-heap property (worst neighbour at the root)
// below index i.
func nbrSiftDown(h []nbr, i int) {
	for {
		c := 2*i + 1
		if c >= len(h) {
			return
		}
		if r := c + 1; r < len(h) && nbrLess(h[c], h[r]) {
			c = r
		}
		if !nbrLess(h[i], h[c]) {
			return
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
}

// sweepCapped generates spatial factors under the MaxNeighbors cap. The
// pair set is the union over atoms of their k-nearest lists, so a pair may
// be known to only one endpoint; instead of a shared seen-map, a first pass
// computes every atom's capped neighbour list (index-sorted), and a second
// pass emits pair (m, j) from atom m when j > m, or when j < m and m is
// absent from j's list (binary-search membership — j already emitted the
// pair otherwise). Both passes shard over fixed atom chunks; per-atom
// results depend only on the atom, so output is worker-count invariant and
// matches the sequential seen-map sweep pair for pair.
func (gr *Grounder) sweepCapped(tree *rtree.Tree, atoms []spatialAtom, radius float64, fn weighting.Func, workers int) ([]factorgraph.SpatialPair, error) {
	k := gr.opts.MaxNeighbors
	n := len(atoms)
	nbrs := make([][]nbr, n)
	err := parallel.For(gr.ctx, workers, n, sweepGrain, func(c, lo, hi int) error {
		// Chunk-level scratch, reused across the chunk's atoms; the final
		// lists are carved out of one slab per chunk.
		var within []nbr
		var slab []nbr
		offs := make([]int, 0, hi-lo)
		for i := lo; i < hi; i++ {
			a := atoms[i]
			within = within[:0]
			window := geom.ExpandWindow(a.loc.Bounds(), radius, gr.opts.Metric)
			tree.Search(window, func(it rtree.Item) bool {
				j := int(it.Data)
				if j == i {
					return true
				}
				d := gr.opts.Metric.Dist(a.loc, atoms[j].loc)
				if d > radius {
					return true
				}
				within = append(within, nbr{j: int32(j), d: d})
				return true
			})
			// Keep the k nearest (ties break on atom index so the selection
			// is independent of the R-tree traversal order), then restore
			// index order. Both run in the chunk's scratch: the selection is
			// an in-place fixed-size heap and the sort a generic slices sort,
			// so the per-atom cost is allocation-free — sort.Slice here
			// previously dominated the capped sweep's allocation profile.
			within = selectNearestK(within, k)
			slices.SortFunc(within, func(x, y nbr) int { return int(x.j) - int(y.j) })
			slab = append(slab, within...)
			offs = append(offs, len(slab))
		}
		prev := 0
		for i := lo; i < hi; i++ {
			end := offs[i-lo]
			nbrs[i] = slab[prev:end:end]
			prev = end
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	parts := make([][]factorgraph.SpatialPair, parallel.NumChunks(n, sweepGrain))
	err = parallel.For(gr.ctx, workers, n, sweepGrain, func(c, lo, hi int) error {
		var out []factorgraph.SpatialPair
		for m := lo; m < hi; m++ {
			a := atoms[m]
			for _, nb := range nbrs[m] {
				j := int(nb.j)
				if j < m && topkContains(nbrs[j], int32(m)) {
					continue // atom j already emitted this pair
				}
				out = append(out, factorgraph.SpatialPair{A: a.vid, B: atoms[j].vid, W: fn.Weight(nb.d)})
			}
		}
		parts[c] = out
		return nil
	})
	if err != nil {
		return nil, err
	}
	return concatPairs(parts), nil
}

// topkContains reports whether the index-sorted neighbour list holds j.
func topkContains(list []nbr, j int32) bool {
	lo, hi := 0, len(list)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if list[mid].j < j {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo < len(list) && list[lo].j == j
}

// concatPairs merges chunk outputs in chunk (= atom) order.
func concatPairs(parts [][]factorgraph.SpatialPair) []factorgraph.SpatialPair {
	total := 0
	for _, p := range parts {
		total += len(p)
	}
	out := make([]factorgraph.SpatialPair, 0, total)
	for _, p := range parts {
		out = append(out, p...)
	}
	return out
}

// cooccurrenceMask computes the Section IV-C pruning mask: for each pair of
// domain values (i, j), P(i|j) and P(j|i) are estimated from pairs of
// neighbouring evidence atoms; the pair survives when either conditional
// probability reaches the threshold T.
// The counting pass shards the evidence atoms over Options.Workers with
// per-chunk count matrices summed at the barrier; counts are integers (held
// in float64, all < 2^53), so the merged sums are exact and bit-identical
// for any worker count.
func (gr *Grounder) cooccurrenceMask(rel *ddlog.RelationDecl, atoms []spatialAtom, radius float64) (mask []bool, pruned, allowed int, err error) {
	h := rel.Categorical
	workers := parallel.Resolve(gr.opts.Workers)
	// Evidence atoms only.
	var ev []spatialAtom
	for _, a := range atoms {
		if a.evidence != factorgraph.NoEvidence {
			ev = append(ev, a)
		}
	}
	items := make([]rtree.Item, len(ev))
	for i, a := range ev {
		items[i] = rtree.Item{Rect: a.loc.Bounds(), Data: int64(i)}
	}
	tree := rtree.Bulk(items)
	chunks := parallel.NumChunks(len(ev), coocGrain)
	coocs := make([][]float64, chunks)
	occs := make([][]float64, chunks)
	err = parallel.For(gr.ctx, workers, len(ev), coocGrain, func(c, lo, hi int) error {
		cooc := make([]float64, h*h)
		occ := make([]float64, h)
		for i := lo; i < hi; i++ {
			a := ev[i]
			occ[a.evidence]++
			window := geom.ExpandWindow(a.loc.Bounds(), radius, gr.opts.Metric)
			tree.Search(window, func(it rtree.Item) bool {
				j := int(it.Data)
				if j <= i {
					return true // count each unordered pair once
				}
				if gr.opts.Metric.Dist(a.loc, ev[j].loc) > radius {
					return true
				}
				vi, vj := int(a.evidence), int(ev[j].evidence)
				cooc[vi*h+vj]++
				cooc[vj*h+vi]++
				return true
			})
		}
		coocs[c], occs[c] = cooc, occ
		return nil
	})
	if err != nil {
		return nil, 0, 0, err
	}
	cooc := make([]float64, h*h)
	occ := make([]float64, h)
	for c := range coocs {
		for x, v := range coocs[c] {
			cooc[x] += v
		}
		for x, v := range occs[c] {
			occ[x] += v
		}
	}
	mask = make([]bool, h*h)
	anyPairs := false
	for _, v := range cooc {
		if v > 0 {
			anyPairs = true
			break
		}
	}
	if !anyPairs {
		// No evidence statistics: keep everything (no basis to prune).
		for i := range mask {
			mask[i] = true
		}
		return mask, 0, h * h, nil
	}
	// A domain-value pair survives when its co-occurrence probabilities
	// exceed the threshold — both conditionals, per Section IV-C's "co-occur
	// with certain probabilities that exceed a pre-defined threshold T".
	// Requiring both makes T the recall/precision dial of Fig. 11: small T
	// admits wide value ranges (recall), large T keeps only the strongest
	// spatial correlations (precision, and far fewer factors).
	T := gr.opts.PruneThreshold
	for i := 0; i < h; i++ {
		for j := 0; j < h; j++ {
			var pij, pji float64
			if occ[j] > 0 {
				pij = cooc[i*h+j] / occ[j] // P(i|j)
			}
			if occ[i] > 0 {
				pji = cooc[i*h+j] / occ[i] // P(j|i)
			}
			if pij >= T && pji >= T {
				mask[i*h+j] = true
				allowed++
			} else {
				pruned++
			}
		}
	}
	return mask, pruned, allowed, nil
}
