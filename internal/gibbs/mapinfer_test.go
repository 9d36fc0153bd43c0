package gibbs

import (
	"math"
	"testing"

	"repro/internal/factorgraph"
	"repro/internal/geom"
)

// bruteForceMAP enumerates all assignments of the query variables.
func bruteForceMAP(t *testing.T, g *factorgraph.Graph) (factorgraph.Assignment, float64) {
	t.Helper()
	query := queryVars(g)
	if len(query) > 20 {
		t.Fatal("graph too large for brute force")
	}
	assign := g.InitialAssignment()
	best := assign.Clone()
	bestE := math.Inf(-1)
	var walk func(i int)
	walk = func(i int) {
		if i == len(query) {
			if e := g.Energy(assign); e > bestE {
				bestE = e
				best = assign.Clone()
			}
			return
		}
		v := query[i]
		for x := int32(0); x < g.Var(v).Domain; x++ {
			assign.Set(v, x)
			walk(i + 1)
		}
		assign.Set(v, 0)
	}
	walk(0)
	return best, bestE
}

func TestMAPMatchesBruteForce(t *testing.T) {
	g := smallSpatialGraph(t) // 8 query vars
	want, wantE := bruteForceMAP(t, g)
	got, gotE := MAP(g, MAPOptions{Sweeps: 300, Restarts: 3, Seed: 5})
	if math.Abs(gotE-wantE) > 1e-9 {
		t.Fatalf("MAP energy %v, brute force %v (got %v want %v)", gotE, wantE, got, want)
	}
	// Evidence stays clamped.
	if got[4] != 1 {
		t.Errorf("evidence flipped: %v", got)
	}
}

func TestMAPCategorical(t *testing.T) {
	b := factorgraph.NewBuilder()
	h := int32(5)
	a, _ := b.AddVariable(factorgraph.Variable{Domain: h, Evidence: 3, HasLoc: true})
	c, _ := b.AddVariable(factorgraph.Variable{Domain: h, Evidence: factorgraph.NoEvidence, HasLoc: true, Loc: geom.Pt(1, 0)})
	if err := b.AddSpatialPairs([]factorgraph.SpatialPair{{A: a, B: c, W: 1.5}}); err != nil {
		t.Fatal(err)
	}
	g, err := b.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	got, _ := MAP(g, MAPOptions{Seed: 2})
	if got[c] != 3 {
		t.Errorf("MAP value = %d, want agreement with evidence (3)", got[c])
	}
}

func TestMAPDefaultsAndDeterminism(t *testing.T) {
	g := smallSpatialGraph(t)
	a1, e1 := MAP(g, MAPOptions{Seed: 9})
	a2, e2 := MAP(g, MAPOptions{Seed: 9})
	if e1 != e2 {
		t.Errorf("same seed energies differ: %v vs %v", e1, e2)
	}
	for i := range a1 {
		if a1[i] != a2[i] {
			t.Errorf("same seed assignments differ at %d", i)
		}
	}
}

func TestMAPBeatsRandomAssignment(t *testing.T) {
	g := smallSpatialGraph(t)
	_, e := MAP(g, MAPOptions{Seed: 3})
	rng := taskRNG(77, 1)
	assign := g.InitialAssignment()
	for _, v := range queryVars(g) {
		assign.Set(v, int32(rng.Intn(2)))
	}
	if g.Energy(assign) > e {
		t.Errorf("random assignment beat MAP: %v > %v", g.Energy(assign), e)
	}
}
