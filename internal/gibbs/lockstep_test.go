package gibbs_test

import (
	"context"
	"reflect"
	"slices"
	"testing"

	"repro/internal/factorgraph"
	"repro/internal/geom"
	"repro/internal/gibbs"
	"repro/internal/gibbs/testutil"
)

// clusterGraph is a harness graph whose every factor and spatial pair joins
// atoms of one tight cluster (three atoms within 2 units, clusters 100 apart),
// plus unlocated atoms in the serial tail tied to cluster atoms. Two cells of
// one conclique are never adjacent, so they never share a factor, and the
// spatial chain is a function of (graph, seed) at any worker width.
func clusterGraph(t *testing.T, domain int32) *factorgraph.Graph {
	t.Helper()
	b := factorgraph.NewBuilder()
	rng := testutil.NewRand(uint64(domain) + 71)
	add := func(v factorgraph.Variable) factorgraph.VarID {
		v.Domain, v.Evidence = domain, factorgraph.NoEvidence
		if rng.Intn(5) == 0 {
			v.Evidence = int32(rng.Intn(int(domain)))
		}
		id, err := b.AddVariable(v)
		if err != nil {
			t.Fatal(err)
		}
		return id
	}
	factor := func(kind factorgraph.FactorKind, vars ...factorgraph.VarID) {
		if err := b.AddFactor(kind, rng.Float64()*2-1, vars, nil); err != nil {
			t.Fatal(err)
		}
	}
	var anchors []factorgraph.VarID
	for c := 0; c < 64; c++ {
		var ids [3]factorgraph.VarID
		for i := range ids {
			ids[i] = add(factorgraph.Variable{HasLoc: true, Loc: geom.Pt(float64(c%8)*100+50+float64(i), float64(c/8)*100+50)})
		}
		factor(factorgraph.FactorImply, ids[0], ids[1])
		factor(factorgraph.FactorEqual, ids[1], ids[2])
		factor(factorgraph.FactorIsTrue, ids[2])
		if err := b.AddSpatialPairs([]factorgraph.SpatialPair{{A: ids[0], B: ids[2], W: 0.2 + 0.6*rng.Float64()}}); err != nil {
			t.Fatal(err)
		}
		anchors = append(anchors, ids[1])
	}
	for i := 0; i < 5; i++ {
		factor(factorgraph.FactorOr, add(factorgraph.Variable{}), anchors[i*13])
	}
	g, err := b.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestInstanceChainIndependentOfK: instance k's chain — assignment, counters,
// epoch — is the one it runs alone, whatever K is and whatever the worker
// width. For K from 1 to 4 (K = 3 leaves an odd instance outside the binary
// pairs), after a full sweep and after a RunIncrementalContext following pins of a
// located query atom and, where there is one, a tail atom, instance k's state
// is bit-equal to that of the smallest K that has it. The cluster graphs,
// binary and categorical, run at 1 and 3 workers; the harness's random
// spatial shapes, whose pairs cross cells of one conclique, at 1 worker,
// where chunks run in dispatch order.
func TestInstanceChainIndependentOfK(t *testing.T) {
	type graphCase struct {
		name    string
		g       *factorgraph.Graph
		workers []int
	}
	cases := []graphCase{
		{"cluster-binary", clusterGraph(t, 2), []int{1, 3}},
		{"cluster-categorical", clusterGraph(t, 3), []int{1, 3}},
	}
	for _, sh := range testutil.Shapes(940) {
		if sh.Spec.Spatial {
			cases = append(cases, graphCase{sh.Name, mustGraph(t, sh.Spec), []int{1}})
		}
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var pins []factorgraph.VarID
			for v := factorgraph.VarID(0); int(v) < c.g.NumVars() && len(pins) < 2; v++ {
				if c.g.Var(v).Evidence == factorgraph.NoEvidence && (len(pins) == 0) == c.g.Var(v).HasLoc {
					pins = append(pins, v)
				}
			}
			// ref[phase][k]: instance k's state from the first run that had it.
			var ref [2][]gibbs.ChainState
			for _, workers := range c.workers {
				for k := 1; k <= 4; k++ {
					s, err := gibbs.NewSpatial(c.g, gibbs.SpatialOptions{
						Levels: 4, Instances: k, Workers: workers, Seed: 13, BurnIn: 3,
					})
					if err != nil {
						t.Fatal(err)
					}
					if cells := s.ScheduledCells(); len(c.workers) > 1 && cells < 32 {
						t.Fatalf("%d cells: too few for several chunks per conclique", cells)
					}
					s.RunEpochs(8)
					states := [2][]gibbs.ChainState{gibbs.ChainStates(s)}
					for _, v := range pins {
						if err := s.UpdateEvidence(v, c.g.Var(v).Domain-1); err != nil {
							t.Fatal(err)
						}
					}
					if _, err := s.RunIncrementalContext(context.Background(), 5); err != nil {
						t.Fatal(err)
					}
					states[1] = gibbs.ChainStates(s)
					s.Close()
					for phase, insts := range states {
						for i, got := range insts {
							if i == len(ref[phase]) {
								ref[phase] = append(ref[phase], got)
							} else if !reflect.DeepEqual(got, ref[phase][i]) {
								t.Fatalf("%s: instance %d at K = %d, %d workers differs from its first run",
									[]string{"full sweep", "incremental"}[phase], i, k, workers)
							}
						}
					}
				}
			}
			if len(ref[0]) != 4 {
				t.Fatalf("recorded %d instances, want 4", len(ref[0]))
			}
		})
	}
}

// TestAddCountsSumsEveryInstance: AddCounts, through which the sharded
// runtime gathers a shard's marginals, adds every instance's count row (at
// K = 3, the odd instance outside the binary pairs included) onto what the
// caller's row already holds.
func TestAddCountsSumsEveryInstance(t *testing.T) {
	g := clusterGraph(t, 3)
	s, err := gibbs.NewSpatial(g, gibbs.SpatialOptions{Levels: 4, Instances: 3, Workers: 1, Seed: 13, BurnIn: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	s.RunEpochs(6)
	chains := gibbs.ChainStates(s)
	lastCounted := false
	for v := range chains[2].Counts {
		row := make([]int64, len(chains[2].Counts[v]))
		row[0] = 1
		s.AddCounts(factorgraph.VarID(v), row)
		want := make([]int64, len(row))
		want[0] = 1
		for _, c := range chains {
			for x, n := range c.Counts[v] {
				want[x] += n
			}
		}
		if !slices.Equal(row, want) {
			t.Fatalf("variable %d: AddCounts row %v, want %v", v, row, want)
		}
		lastCounted = lastCounted || slices.ContainsFunc(chains[2].Counts[v], func(n int64) bool { return n > 0 })
	}
	if !lastCounted {
		t.Fatal("test premise broken: instance 2 counted nothing")
	}
}
