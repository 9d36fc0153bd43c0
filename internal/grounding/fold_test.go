package grounding_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/factorgraph"
)

// TestFoldCounts pins, on the two datagen workloads, the counts the kernel
// compiler's evidence fold is specified by: every incidence is compiled, the
// folded ones are exactly those an independent walk of the graph finds
// constant (every other endpoint frozen evidence, or no other endpoint),
// nothing falls back to the interpreted evaluators at run time, the program
// is no larger than a 24-byte entry per dynamic incidence, a 12-byte recipe
// step per incidence, an 8-byte bias per variable and the two offset tables,
// and explain compiles nothing: scoring and decoding leave the
// footprint as compiled, and the decode still lists every factor, folded
// ones included, with live weights.
func TestFoldCounts(t *testing.T) {
	cases := []struct {
		name  string
		build func() *core.System
	}{
		{"nyccas-16", func() *core.System { return nyccasSystem(t, 16, 1) }},
		{"gwdb-600", func() *core.System { return gwdbSystem(t, 600, 1) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			res, err := tc.build().Ground()
			if err != nil {
				t.Fatal(err)
			}
			g := res.Graph
			frozen := func(v factorgraph.VarID) bool { return g.Var(v).Evidence != factorgraph.NoEvidence }
			incidences, folded, foldedAtQuery, atQuery := 0, 0, 0, 0
			for i := 0; i < g.NumVars(); i++ {
				v := factorgraph.VarID(i)
				if g.DomainOf(v) != 2 {
					t.Fatalf("variable %d is not binary", v)
				}
				count := func(constant bool) {
					incidences++
					if constant {
						folded++
					}
					if !frozen(v) {
						atQuery++
						if constant {
							foldedAtQuery++
						}
					}
				}
				for _, f := range g.VarLogicalFactors(v) {
					vars, _ := g.FactorVars(f)
					constant := true
					for _, u := range vars {
						if u != v && !frozen(u) {
							constant = false
						}
					}
					count(constant)
				}
				for _, p := range g.VarSpatialPairs(v) {
					a, b, _ := g.SpatialPair(p)
					other := a
					if other == v {
						other = b
					}
					count(frozen(other))
				}
			}

			k := g.Kernels()
			st := k.Stats()
			t.Logf("%d incidences, %d folded (%d of %d at query variables), %d slab bytes",
				incidences, folded, foldedAtQuery, atQuery, st.SlabBytes)
			if st.Ops != incidences {
				t.Errorf("Ops = %d, the graph has %d incidences", st.Ops, incidences)
			}
			if st.FoldedOps != folded || folded == 0 {
				t.Errorf("FoldedOps = %d, the graph walk finds %d constant incidences", st.FoldedOps, folded)
			}
			if st.GenericOps != 0 {
				t.Errorf("GenericOps = %d, want 0", st.GenericOps)
			}
			bound := int64(24*(st.Ops-st.FoldedOps) + 12*st.Ops + 8*st.Vars + 8*(st.Vars+1))
			if st.SlabBytes > bound {
				t.Errorf("SlabBytes = %d, want ≤ %d", st.SlabBytes, bound)
			}

			// Scoring either way and explaining compile nothing.
			assign := g.InitialAssignment()
			for i := 0; i < g.NumVars(); i++ {
				k.BinaryConditionalScores(factorgraph.VarID(i), assign)
			}
			k.ConditionalScores(0, assign, make([]float64, 2))
			g.VarProgram(0)
			if got := k.Stats().SlabBytes; got != st.SlabBytes {
				t.Errorf("scoring and explaining grew the programs from %d to %d bytes", st.SlabBytes, got)
			}

			// VarProgram decodes every incidence in score order, with the
			// weight the graph holds now.
			for _, v := range []factorgraph.VarID{0, factorgraph.VarID(g.NumVars() / 2), factorgraph.VarID(g.NumVars() - 1)} {
				logical, spatial := g.VarLogicalFactors(v), g.VarSpatialPairs(v)
				if len(logical) > 0 {
					g.SetFactorWeight(logical[0], g.FactorWeightOf(logical[0])+0.125)
				}
				prog := g.VarProgram(v)
				if len(prog) != len(logical)+len(spatial) {
					t.Fatalf("var %d: program lists %d ops, the graph has %d incidences", v, len(prog), len(logical)+len(spatial))
				}
				for i, op := range prog {
					switch {
					case i < len(logical):
						if op.Spatial || op.ID != logical[i] || op.Weight != g.FactorWeightOf(op.ID) {
							t.Errorf("var %d op %d = %+v, want factor %d at weight %v", v, i, op, logical[i], g.FactorWeightOf(logical[i]))
						}
					default:
						_, _, w := g.SpatialPair(spatial[i-len(logical)])
						if !op.Spatial || op.ID != spatial[i-len(logical)] || op.Weight != w {
							t.Errorf("var %d op %d = %+v, want pair %d at weight %v", v, i, op, spatial[i-len(logical)], w)
						}
					}
				}
			}
		})
	}
}
