package factorgraph

import (
	"reflect"
	"testing"
)

// TestSubCutsInteriorWithFrozenBoundary pins the layout contract both
// callers (shard subgraphs, lazy local grounding) rely on for bit-identical
// chains: interior first in the order given, boundary ascending and frozen
// (graph evidence winning over the freeze callback), every incident factor
// and pair kept whole in ascending parent order.
func TestSubCutsInteriorWithFrozenBoundary(t *testing.T) {
	// v0 (evidence 1) - v1 - v2 - v3 - v4 - v5, imply factor i and spatial
	// pair i both join v_i and v_{i+1}.
	g := buildChain(t, 6, 0.7, 0.3)
	var asked []VarID
	sub, err := Sub(g, []VarID{3, 1}, func(v VarID) int32 {
		asked = append(asked, v)
		return 1
	})
	if err != nil {
		t.Fatal(err)
	}
	if want := []VarID{0, 2, 4}; !reflect.DeepEqual(sub.Boundary, want) {
		t.Errorf("boundary = %v, want %v", sub.Boundary, want)
	}
	if want := []VarID{2, 4}; !reflect.DeepEqual(asked, want) {
		t.Errorf("freeze asked about %v, want %v (v0 is graph evidence)", asked, want)
	}
	if want := []VarID{3, 4}; !reflect.DeepEqual(sub.Halo, want) {
		t.Errorf("halo = %v, want %v (local ids of the variables freeze was asked about)", sub.Halo, want)
	}
	if want := map[VarID]VarID{3: 0, 1: 1, 0: 2, 2: 3, 4: 4}; !reflect.DeepEqual(sub.LocalID, want) {
		t.Errorf("local ids = %v, want %v", sub.LocalID, want)
	}
	if want := []int32{0, 1, 2, 3}; !reflect.DeepEqual(sub.Factors, want) || !reflect.DeepEqual(sub.Spatials, want) {
		t.Errorf("kept factors %v, pairs %v, want %v for both", sub.Factors, sub.Spatials, want)
	}
	sg := sub.Graph
	if sg.NumVars() != 5 || sg.NumFactors() != 4 || sg.NumSpatialFactors() != 4 {
		t.Fatalf("subgraph has %d vars, %d factors, %d pairs; want 5, 4, 4",
			sg.NumVars(), sg.NumFactors(), sg.NumSpatialFactors())
	}
	for lid, wantEv := range []int32{NoEvidence, NoEvidence, 1, 1, 1} {
		if ev := sg.Var(VarID(lid)).Evidence; ev != wantEv {
			t.Errorf("local var %d evidence = %d, want %d", lid, ev, wantEv)
		}
	}
	// With the boundary holding the parent's values, interior conditionals
	// are the parent's, bit for bit.
	assign, subAssign := g.InitialAssignment(), sg.InitialAssignment()
	for v, lid := range sub.LocalID {
		assign.Set(v, subAssign.Get(lid))
	}
	for _, v := range sub.Interior {
		p0, p1 := g.BinaryConditionalScores(v, assign)
		s0, s1 := sg.BinaryConditionalScores(sub.LocalID[v], subAssign)
		if p0 != s0 || p1 != s1 {
			t.Errorf("var %d: parent scores (%v, %v), subgraph (%v, %v)", v, p0, p1, s0, s1)
		}
	}
	// The whole boundary is frozen and every neighbour of v1 and v3 is
	// boundary, so the compiler folds all eight incidences at the interior
	// into biases; the other eight sit in the boundary variables' programs.
	k := sg.Kernels()
	if st := k.Stats(); st.Ops != 16 || st.FoldedOps != 8 || st.GenericOps != 0 {
		t.Errorf("subgraph kernel ops/folded/generic = %d/%d/%d, want 16/8/0", st.Ops, st.FoldedOps, st.GenericOps)
	}
	for _, lid := range []VarID{0, 1} {
		if n := k.prog[lid+1]>>1 - k.prog[lid]>>1; n != 0 {
			t.Errorf("interior var %d keeps %d dynamic ops behind a frozen boundary, want 0", lid, n)
		}
	}
}
