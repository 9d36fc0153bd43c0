package grounding

import (
	"fmt"
	"math"

	"repro/internal/factorgraph"
)

// This file implements query-driven lazy grounding (ROADMAP item 1, after
// ProPPR's locally groundable inference): instead of sampling the whole
// ground graph to answer one point query, a frontier expansion grows a
// bounded subgraph outward from the queried atom and inference runs on that
// slab alone.
//
// Influence semantics. Every edge (logical factor or spatial pair) carries
// strength tanh(|w|) ∈ [0, 1) — the saturating effect a weight-w factor can
// have on a neighbour's conditional. A variable's influence is the maximum
// product of edge strengths along any path from the query root (root = 1),
// so it decays with both graph distance and the spatial decay weights, which
// shrink with physical distance. The frontier expands in decreasing
// influence order and stops when the variable budget is exhausted or the
// next candidate falls below the influence threshold.
//
// Evidence d-separates. An observed variable blocks all paths through it in
// a Markov random field, so evidence atoms join the subgraph as frozen
// observations but are never expanded through — the frontier naturally
// follows only the uncertain tissue around the query.
//
// Boundary freezing. When expansion stops, every unexpanded neighbour of an
// interior variable enters the subgraph frozen at its evidence value (if
// observed) or at a caller-supplied prior state (if uncertain). Every factor
// touching an interior variable is therefore fully contained — there are no
// dangling endpoints — and the subgraph's conditionals at interior
// variables match the full graph's exactly, except where an uncertain
// boundary variable was frozen at a guess.
//
// Truncation-error bound. Only factors that cross from the interior to an
// uncertain frozen boundary variable can distort the root's marginal; the
// cut weight Σ|w| over those factors bounds the log-odds shift any
// boundary misassignment can induce, and ErrorBound = tanh(Σ|w| cut) maps
// it into a total-variation-style [0, 1) figure that is 0 when the frontier
// stopped only at evidence (exact inference) and grows toward 1 as heavier
// uncertain tissue is cut.

// LocalOptions bounds the frontier expansion of ExtractLocal.
type LocalOptions struct {
	// MaxVars caps the interior (sampled) variable count. Default 256.
	MaxVars int
	// MinInfluence prunes frontier candidates whose root influence falls
	// below it. Default 1e-4.
	MinInfluence float64
	// Freeze resolves the frozen state of an uncertain boundary variable
	// (graph evidence always wins). ok=false marks the value a guess — the
	// variable still freezes at val, but factors cut at it count toward
	// ErrorBound. ok=true marks it evidence-grade (an upsert pin): it
	// blocks expansion and contributes no error. nil freezes guesses at 0.
	Freeze func(v factorgraph.VarID) (val int32, ok bool)
}

func (o LocalOptions) withDefaults() LocalOptions {
	if o.MaxVars <= 0 {
		o.MaxVars = 256
	}
	if o.MinInfluence <= 0 {
		o.MinInfluence = 1e-4
	}
	return o
}

// LocalGraph is one extracted query neighbourhood.
type LocalGraph struct {
	// Graph is the bounded subgraph: interior variables keep their
	// (non-)evidence state, boundary variables are frozen as evidence.
	Graph *factorgraph.Graph
	// Root is the queried variable's id inside Graph.
	Root factorgraph.VarID
	// Interior lists the sampled variables by full-graph id, in subgraph id
	// order (interior ids precede boundary ids in Graph).
	Interior []factorgraph.VarID
	// BoundaryVars counts the frozen variables appended after the interior.
	BoundaryVars int
	// ErrorBound is tanh of the cut weight over factors frozen at an
	// uncertain boundary variable: 0 means the local marginal is exact up
	// to sampling noise.
	ErrorBound float64
	// Truncated reports that the budget or influence threshold cut off
	// uncertain variables (false: the query's whole uncertain component
	// fit, and ErrorBound is 0).
	Truncated bool
}

// frontierItem is one candidate variable ordered by influence (ties break
// on VarID so the expansion is deterministic).
type frontierItem struct {
	v   factorgraph.VarID
	inf float64
}

func (a frontierItem) before(b frontierItem) bool {
	if a.inf != b.inf {
		return a.inf > b.inf
	}
	return a.v < b.v
}

// frontier is a binary heap of candidates, strongest first.
type frontier []frontierItem

func (h *frontier) push(it frontierItem) {
	q := append(*h, it)
	for i := len(q) - 1; i > 0 && q[i].before(q[(i-1)/2]); i = (i - 1) / 2 {
		q[i], q[(i-1)/2] = q[(i-1)/2], q[i]
	}
	*h = q
}

func (h *frontier) pop() frontierItem {
	q := *h
	top, n := q[0], len(q)-1
	q[0], q = q[n], q[:n]
	for i, c := 0, 1; c < n; i, c = c, 2*c+1 {
		if c+1 < n && q[c+1].before(q[c]) {
			c++
		}
		if !q[c].before(q[i]) {
			break
		}
		q[i], q[c] = q[c], q[i]
	}
	*h = q
	return top
}

// Frontier states of a variable, in the order it can move through them.
const (
	unseen  = iota // not reached yet
	guess          // reached; frozen at val if the expansion stops here
	open           // on the frontier at influence best
	in             // interior
	blocked        // evidence-grade at val: frozen boundary, never expanded
)

// varState is one variable's frontier bookkeeping, indexed by full-graph id.
type varState struct {
	best  float64
	val   int32
	state uint8
}

// edgeStrength maps a factor weight to its influence attenuation.
func edgeStrength(w float64) float64 { return math.Tanh(math.Abs(w)) }

// ExtractLocal grows a bounded subgraph outward from root over the last
// full grounding's factor graph and returns it with the query's truncation
// metadata. res is read-only; concurrent extractions over one Result are
// safe.
func ExtractLocal(res *Result, root factorgraph.VarID, opts LocalOptions) (*LocalGraph, error) {
	if res == nil || res.Graph == nil {
		return nil, fmt.Errorf("grounding: local extraction requires a full grounding")
	}
	opts = opts.withDefaults()
	g := res.Graph
	if int(root) < 0 || int(root) >= g.NumVars() {
		return nil, fmt.Errorf("grounding: local root %d out of range", root)
	}
	// consult asks once per variable how it freezes: graph evidence and an
	// evidence-grade Freeze answer block it, a guess leaves it expandable.
	vs := make([]varState, g.NumVars())
	consult := func(v factorgraph.VarID) *varState {
		s := &vs[v]
		if s.state != unseen {
			return s
		}
		s.state = guess
		if ev := g.Var(v).Evidence; ev != factorgraph.NoEvidence {
			s.val, s.state = ev, blocked
		} else if opts.Freeze != nil {
			var evGrade bool
			if s.val, evGrade = opts.Freeze(v); evGrade {
				s.state = blocked
			}
		}
		return s
	}
	if s := consult(root); s.state == blocked {
		// The query atom is itself observed: a one-variable "subgraph" with
		// a point-mass marginal and no error.
		return extractEvidenceRoot(g, root, s.val)
	}

	// Frontier expansion: best-first by influence over the full graph's CSR
	// adjacency. Evidence-grade variables are recorded for the boundary but
	// never expanded (d-separation).
	vs[root].best, vs[root].state = 1, open
	var interior []factorgraph.VarID
	var from frontierItem
	fh := frontier{{v: root, inf: 1}}
	expand := func(u factorgraph.VarID, w float64) {
		s := consult(u)
		if s.state == in || s.state == blocked {
			return // a blocked variable joins as frozen boundary
		}
		inf := from.inf * edgeStrength(w)
		if inf < opts.MinInfluence {
			return // below threshold: left frozen at the boundary
		}
		if inf > s.best || s.state == guess {
			s.state, s.best = open, inf
			fh.push(frontierItem{v: u, inf: inf})
		}
	}
	for len(fh) > 0 {
		from = fh.pop()
		if vs[from.v].state == in || from.inf < vs[from.v].best {
			continue // stale heap entry
		}
		if len(interior) >= opts.MaxVars {
			break
		}
		vs[from.v].state = in
		interior = append(interior, from.v)
		for _, f := range g.VarLogicalFactors(from.v) {
			w := g.FactorWeightOf(f)
			vars, _ := g.FactorVars(f)
			for _, u := range vars {
				expand(u, w)
			}
		}
		for _, sp := range g.VarSpatialPairs(from.v) {
			a, b, w := g.SpatialPair(sp)
			other := a
			if a == from.v {
				other = b
			}
			expand(other, w)
		}
	}
	return buildLocalGraph(g, root, interior, vs)
}

// extractEvidenceRoot handles a query whose atom is already observed (graph
// evidence or an evidence-grade upsert pin): a one-variable subgraph frozen
// at the observed value.
func extractEvidenceRoot(g *factorgraph.Graph, root factorgraph.VarID, val int32) (*LocalGraph, error) {
	v := g.Var(root)
	v.Evidence = val
	b := factorgraph.NewBuilder()
	lid, err := b.AddVariable(v)
	if err != nil {
		return nil, err
	}
	sub, err := b.Finalize()
	if err != nil {
		return nil, err
	}
	return &LocalGraph{Graph: sub, Root: lid, Interior: nil, BoundaryVars: 1}, nil
}

// buildLocalGraph materializes the subgraph through factorgraph.Sub —
// interior variables first (in expansion order), then every non-interior
// neighbour frozen as evidence at the value the frontier recorded, then all
// factors and spatial pairs touching an interior variable — and sums the cut
// weight over the kept factors with an uncertain (guess-frozen) endpoint.
// Any positive cut weight means the expansion truncated uncertain tissue (an
// uncertain boundary variable is always adjacent to the interior through the
// edge that discovered it).
func buildLocalGraph(g *factorgraph.Graph, root factorgraph.VarID, interior []factorgraph.VarID, vs []varState) (*LocalGraph, error) {
	sub, err := factorgraph.Sub(g, interior, func(v factorgraph.VarID) int32 { return vs[v].val })
	if err != nil {
		return nil, err
	}
	uncertain := func(v factorgraph.VarID) bool { return vs[v].state == guess || vs[v].state == open }
	var cutWeight float64
	for _, f := range sub.Factors {
		vars, _ := g.FactorVars(f)
		for _, u := range vars {
			if uncertain(u) {
				cutWeight += math.Abs(g.FactorWeightOf(f))
				break
			}
		}
	}
	for _, sp := range sub.Spatials {
		if a, b, w := g.SpatialPair(sp); uncertain(a) || uncertain(b) {
			cutWeight += math.Abs(w)
		}
	}
	lg := &LocalGraph{
		Graph:        sub.Graph,
		Root:         sub.LocalID[root],
		Interior:     interior,
		BoundaryVars: len(sub.Boundary),
		Truncated:    cutWeight > 0,
	}
	if cutWeight > 0 {
		lg.ErrorBound = math.Tanh(cutWeight)
	}
	return lg, nil
}
