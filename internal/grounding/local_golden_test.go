package grounding_test

import (
	"hash/fnv"
	"math"
	"sync"
	"testing"

	"repro/internal/factorgraph"
	"repro/internal/grounding"
)

// localBudget is the lazy budget the serving benchmark reads under.
const localBudget = 64

// mixedFreeze answers boundary queries the way core's does, deterministically:
// one variable in five is an evidence-grade pin, the rest are guesses, and
// both take a value that depends on the id.
func mixedFreeze(v factorgraph.VarID) (int32, bool) {
	return int32(v/3) % 2, v%5 == 0
}

// gwdb3000 is the GWDB-3000 grounding the local tests and benchmark share:
// grounding it once saves a second per test.
var gwdb3000 struct {
	once sync.Once
	res  *grounding.Result
}

func groundGWDB3000(tb testing.TB) *grounding.Result {
	tb.Helper()
	gwdb3000.once.Do(func() {
		res, err := gwdbSystem(tb, 3000, 1).Ground()
		if err != nil {
			tb.Fatal(err)
		}
		gwdb3000.res = res
	})
	if gwdb3000.res == nil {
		tb.Fatal("GWDB-3000 failed to ground")
	}
	return gwdb3000.res
}

// queryRoots returns every third query variable of g, the roots the local
// goldens and the extraction benchmark walk.
func queryRoots(g *factorgraph.Graph) []factorgraph.VarID {
	var roots []factorgraph.VarID
	n := 0
	g.Vars(func(id factorgraph.VarID, v factorgraph.Variable) bool {
		if v.Evidence == factorgraph.NoEvidence {
			if n%3 == 0 {
				roots = append(roots, id)
			}
			n++
		}
		return true
	})
	return roots
}

// TestLocalGraphsPinned pins the lazy path's subgraphs across commits: an
// FNV-64a hash over every third query root's budget-64 extraction on
// GWDB-3000, freezing with a mix of pins and guesses. It covers the root,
// the interior list, the boundary count, the error bound, every variable's
// evidence and domain, and every factor and spatial pair of the subgraph in
// order. The hash was recorded before Sub and ExtractLocal moved from hash
// sets onto dense scratch; a change that claims identical local graphs must
// pass it untouched.
func TestLocalGraphsPinned(t *testing.T) {
	const want uint64 = 0xba8ad7b3a1de5feb
	res := groundGWDB3000(t)
	h := fnv.New64a()
	roots := queryRoots(res.Graph)
	for _, root := range roots {
		lg, err := grounding.ExtractLocal(res, root, grounding.LocalOptions{MaxVars: localBudget, Freeze: mixedFreeze})
		if err != nil {
			t.Fatal(err)
		}
		putU64(h, uint64(lg.Root))
		putU64(h, uint64(len(lg.Interior)))
		for _, v := range lg.Interior {
			putU64(h, uint64(v))
		}
		putU64(h, uint64(lg.BoundaryVars))
		putU64(h, math.Float64bits(lg.ErrorBound))
		if lg.Truncated {
			h.Write([]byte{1})
		} else {
			h.Write([]byte{0})
		}
		g := lg.Graph
		putU64(h, uint64(g.NumVars()))
		g.Vars(func(_ factorgraph.VarID, v factorgraph.Variable) bool {
			putU64(h, uint64(v.Evidence))
			putU64(h, uint64(v.Domain))
			return true
		})
		putU64(h, uint64(g.NumFactors()))
		for f := int32(0); f < int32(g.NumFactors()); f++ {
			putU64(h, uint64(g.FactorKindOf(f)))
			putU64(h, math.Float64bits(g.FactorWeightOf(f)))
			vars, neg := g.FactorVars(f)
			putU64(h, uint64(len(vars)))
			for k, v := range vars {
				putU64(h, uint64(v))
				if neg[k] {
					h.Write([]byte{1})
				} else {
					h.Write([]byte{0})
				}
			}
		}
		putU64(h, uint64(g.NumSpatialFactors()))
		for s := int32(0); s < int32(g.NumSpatialFactors()); s++ {
			a, b, w := g.SpatialPair(s)
			putU64(h, uint64(a))
			putU64(h, uint64(b))
			putU64(h, math.Float64bits(w))
		}
	}
	if got := h.Sum64(); got != want {
		t.Errorf("local-graph hash over %d roots = %#x, want %#x", len(roots), got, want)
	}
}

// TestExtractLocalAllocs bounds the bookkeeping of one budget-64 extraction
// on GWDB-3000, averaged over every third query root with every boundary a
// guess: ≤ 150 heap allocations, a count that repeats run to run. Map-built
// frontier state, a boxing heap and hash-set subgraph construction make
// ≈ 3,800; dense scratch makes ≈ 55.
func TestExtractLocalAllocs(t *testing.T) {
	res := groundGWDB3000(t)
	roots := queryRoots(res.Graph)
	i := 0
	allocs := testing.AllocsPerRun(len(roots), func() {
		if _, err := grounding.ExtractLocal(res, roots[i%len(roots)], grounding.LocalOptions{MaxVars: localBudget}); err != nil {
			t.Fatal(err)
		}
		i++
	})
	t.Logf("one budget-%d extraction on GWDB-3000: %.0f allocations", localBudget, allocs)
	if allocs > 150 {
		t.Errorf("one budget-%d extraction made %.0f allocations, want ≤ 150", localBudget, allocs)
	}
}

// TestExtractLocalConsultsFreezeOnce holds the frontier to one Freeze call
// per variable: core's Freeze computes a marginal, so a call per incident
// edge, or a second one while the subgraph is built, multiplies a lazy
// miss's cost by the degree.
func TestExtractLocalConsultsFreezeOnce(t *testing.T) {
	res := groundGWDB3000(t)
	for _, root := range queryRoots(res.Graph)[:20] {
		calls := map[factorgraph.VarID]int{}
		freeze := func(v factorgraph.VarID) (int32, bool) {
			calls[v]++
			return mixedFreeze(v)
		}
		if _, err := grounding.ExtractLocal(res, root, grounding.LocalOptions{MaxVars: localBudget, Freeze: freeze}); err != nil {
			t.Fatal(err)
		}
		for v, n := range calls {
			if n > 1 {
				t.Fatalf("root %d: Freeze consulted %d times about variable %d, want once", root, n, v)
			}
		}
	}
}

// BenchmarkExtractLocal times one budget-64 extraction on GWDB-3000, cycling
// through every third query root: the grounding half of a lazy miss
// (serve_lazy's grounding.extract_ms).
func BenchmarkExtractLocal(b *testing.B) {
	res := groundGWDB3000(b)
	roots := queryRoots(res.Graph)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := grounding.ExtractLocal(res, roots[i%len(roots)], grounding.LocalOptions{MaxVars: localBudget}); err != nil {
			b.Fatal(err)
		}
	}
}
