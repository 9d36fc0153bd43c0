package grounding

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/ddlog"
	"repro/internal/factorgraph"
	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/translate"
)

// Deps is the program's rule→relation dependency index: for each relation
// (lower-cased) it records which UDF applications, derivation rules and
// inference rules read it in their bodies, plus which relations are
// variable relations. The serving layer consults it to decide how much of
// the pipeline an evidence upsert invalidates.
type Deps struct {
	// AppsByRel maps a body relation to the indices of Program.Apps
	// reading it.
	AppsByRel map[string][]int
	// DerivationsByRel maps a body relation to the indices of
	// Program.Derivations reading it.
	DerivationsByRel map[string][]int
	// RulesByRel maps a body relation to the indices of Program.Rules
	// reading it.
	RulesByRel map[string][]int
	// Variable marks variable (inferred) relations.
	Variable map[string]bool
}

// ComputeDeps builds the dependency index for a validated program.
func ComputeDeps(prog *ddlog.Program) *Deps {
	d := &Deps{
		AppsByRel:        map[string][]int{},
		DerivationsByRel: map[string][]int{},
		RulesByRel:       map[string][]int{},
		Variable:         map[string]bool{},
	}
	for _, rel := range prog.VariableRelations() {
		d.Variable[strings.ToLower(rel.Name)] = true
	}
	add := func(m map[string][]int, atoms []ddlog.Atom, idx int) {
		seen := map[string]bool{}
		for _, a := range atoms {
			key := strings.ToLower(a.Rel)
			if !seen[key] {
				seen[key] = true
				m[key] = append(m[key], idx)
			}
		}
	}
	for i, app := range prog.Apps {
		add(d.AppsByRel, app.Body, i)
	}
	for i, der := range prog.Derivations {
		add(d.DerivationsByRel, der.Body, i)
	}
	for i, rule := range prog.Rules {
		add(d.RulesByRel, rule.Body, i)
	}
	return d
}

// EvidencePin is one sparse patch entry: a previously unlabeled ground
// atom whose re-derived label is now evidence.
type EvidencePin struct {
	Var   factorgraph.VarID
	Key   string // the Result.VarID atom key, for diagnostics and caching
	Value int32
}

// Patch is the outcome of delta grounding. Either Structural is set — the
// change cannot be expressed against the existing factor graph and the
// caller must fall back to a full re-ground — or Pins lists the evidence
// assignments to apply to the live sampler (possibly none).
type Patch struct {
	Pins []EvidencePin
	// Structural reports that the delta touched graph structure: a new
	// ground atom appeared, a variable relation changed, or the change
	// reaches an inference rule or UDF body (new factors possible).
	Structural bool
	// Reason explains a structural fallback for logs and metrics.
	Reason string

	// Derivations is how many derivation queries were re-evaluated.
	Derivations int
	// Rows is how many result rows the re-evaluated derivations produced.
	Rows int
	// Elapsed is the wall time of the delta evaluation.
	Elapsed time.Duration
}

// structuralPatch is a fallback Patch constructor.
func structuralPatch(reason string, start time.Time) *Patch {
	return &Patch{Structural: true, Reason: reason, Elapsed: time.Since(start)}
}

// DeltaContext re-grounds only the slice of the program affected by new
// rows in the changed relations, against the *live* database (whose tables
// the upsert already extended in place), and returns a sparse patch relative
// to prev — the Result of the last full grounding.
//
// The non-structural fast path holds exactly when the changed relations
// feed derivation rule bodies only. Then the affected derivations are
// re-evaluated (concurrently, like the batch phase) and their output is
// reduced with the batch dedup semantics — first row per atom key wins,
// evidence beats NULL, conflicting evidence keeps the first — so a pin is
// emitted only for atoms that the last grounding left unlabeled
// (Evidence == NoEvidence in prev.Graph) and that now carry a label. The
// resulting assignment is identical to what a from-scratch re-ground would
// produce, because upserts are append-only: earlier rows keep winning the
// dedup, and atoms already labeled in prev keep their labels.
//
// Everything else is reported as Structural and left to the caller's full
// re-ground: changes to variable relations, changes reaching UDF or
// inference-rule bodies (either can create factors), and re-derived head
// atoms whose key is absent from prev.VarID (a new variable).
func (gr *Grounder) DeltaContext(ctx context.Context, prev *Result, changed []string) (*Patch, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if prev == nil || prev.Graph == nil || prev.ids == nil {
		return nil, fmt.Errorf("grounding: delta requires a prior full grounding")
	}
	gr.ctx = ctx
	start := time.Now()
	// When the context carries a request span (serving upsert path), the
	// delta evaluation is recorded as a stage of that request's trace.
	span := obs.SpanFromContext(ctx).Child("delta_ground")
	defer span.End()
	deps := prev.Deps
	if deps == nil {
		deps = ComputeDeps(gr.prog)
	}

	seen := map[string]bool{}
	var affected []int
	for _, rel := range changed {
		key := strings.ToLower(rel)
		if seen[key] {
			continue
		}
		seen[key] = true
		if deps.Variable[key] {
			return structuralPatch("variable relation "+rel+" changed", start), nil
		}
		if len(deps.AppsByRel[key]) > 0 {
			return structuralPatch("relation "+rel+" feeds a UDF application", start), nil
		}
		if len(deps.RulesByRel[key]) > 0 {
			return structuralPatch("relation "+rel+" feeds an inference rule body", start), nil
		}
		affected = append(affected, deps.DerivationsByRel[key]...)
	}
	sort.Ints(affected)
	affected = dedupInts(affected)
	if len(affected) == 0 {
		return &Patch{Elapsed: time.Since(start)}, nil
	}

	workers := parallel.Resolve(gr.opts.Workers)
	gr.eng.SetParallelism(workers, ctx)
	queries := make([]translate.Query, len(affected))
	for qi, di := range affected {
		q, err := translate.Derivation(gr.prog, gr.prog.Derivations[di], translate.Options{Metric: gr.opts.Metric})
		if err != nil {
			return nil, err
		}
		queries[qi] = q
	}
	jobs := gr.execAhead(queries)
	defer drainJobs(jobs)

	p := &Patch{Derivations: len(affected)}
	resolved := map[factorgraph.VarID]bool{}
	var idBuf []byte // identity scratch, reused across rows
	for qi, di := range affected {
		d := gr.prog.Derivations[di]
		rows, err := jobs[qi].wait()
		if err != nil {
			return nil, fmt.Errorf("grounding: delta derivation %s: %w", derLabel(d), err)
		}
		rel, _ := gr.prog.Relation(d.Head.Rel)
		relKey := strings.ToLower(rel.Name)
		width := len(d.Head.Terms)
		for ri, row := range rows.Rows {
			if err := gr.checkCtx(ri); err != nil {
				return nil, err
			}
			p.Rows++
			idBuf = appendAtomIdent(idBuf[:0], relKey, row[:width])
			vid, found := prev.ids[string(idBuf)]
			if !found {
				reason := fmt.Sprintf("derivation %s produced new ground atom %s", derLabel(d), AtomKey(relKey, row[:width]))
				span.Note("structural: " + reason)
				return structuralPatch(reason, start), nil
			}
			ev, err := labelToEvidence(rel, row[width])
			if err != nil {
				return nil, fmt.Errorf("grounding: delta derivation %s: %w", derLabel(d), err)
			}
			if ev == factorgraph.NoEvidence || resolved[vid] {
				// NULL labels never override, and the first evidence row per
				// atom wins — the batch dedup order.
				continue
			}
			resolved[vid] = true
			if prev.Graph.Var(vid).Evidence != factorgraph.NoEvidence {
				// Already evidence in the grounded graph; batch semantics
				// keep the first label, so the patch leaves it alone.
				continue
			}
			p.Pins = append(p.Pins, EvidencePin{Var: vid, Key: prev.Keys[vid], Value: ev})
		}
	}
	p.Elapsed = time.Since(start)
	span.Notef("derivations=%d rows=%d pins=%d", p.Derivations, p.Rows, len(p.Pins))
	return p, nil
}

// dedupInts removes adjacent duplicates from a sorted slice.
func dedupInts(xs []int) []int {
	out := xs[:0]
	for i, x := range xs {
		if i == 0 || x != xs[i-1] {
			out = append(out, x)
		}
	}
	return out
}
