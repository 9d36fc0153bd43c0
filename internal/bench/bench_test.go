package bench

import (
	"bytes"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"repro/internal/obs"
)

// tinyParams keeps every experiment in the sub-second-to-seconds range for
// the test suite.
func tinyParams() Params {
	p := DefaultParams()
	p.GWDBWells = 120
	p.NYCCASSide = 10
	p.Epochs = 60
	p.Runs = 1
	return p
}

func render(t *testing.T, tbl *Table) string {
	t.Helper()
	var buf bytes.Buffer
	tbl.Fprint(&buf)
	return buf.String()
}

func TestTable1(t *testing.T) {
	tbl, err := Table1(tinyParams())
	if err != nil {
		t.Fatal(err)
	}
	out := render(t, tbl)
	if !strings.Contains(out, "GWDB") || !strings.Contains(out, "NYCCAS") {
		t.Errorf("missing KBs:\n%s", out)
	}
	if len(tbl.Rows) != 2 {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
	// Table I invariants: rules 11 and 4.
	if tbl.Rows[0][2] != "11" || tbl.Rows[1][2] != "4" {
		t.Errorf("rule counts wrong:\n%s", out)
	}
}

func TestFig1ShapeReproduces(t *testing.T) {
	tbl, err := Fig1(tinyParams())
	if err != nil {
		t.Fatal(err)
	}
	out := render(t, tbl)
	// Last row carries F1s: Sya ≥ DeepDive.
	last := tbl.Rows[len(tbl.Rows)-1]
	if last[0] != "F1-score" {
		t.Fatalf("last row = %v", last)
	}
	var dd, sya float64
	if _, err := fmt.Sscan(last[2], &dd); err != nil {
		t.Fatal(err)
	}
	if _, err := fmt.Sscan(last[3], &sya); err != nil {
		t.Fatal(err)
	}
	if sya < dd {
		t.Errorf("Sya F1 %v < DeepDive %v:\n%s", sya, dd, out)
	}
}

// TestFig1DeterministicAtOneWorker holds Fig. 1 to its Workers setting:
// with GOMAXPROCS raised to 4 and Workers 1, both engines' Systems run one
// worker (the grounder reports its width; the sampler reads the same field),
// and two runs print the same table.
func TestFig1DeterministicAtOneWorker(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	var tables [2]string
	for i := range tables {
		p := tinyParams()
		p.Workers = 1
		p.Metrics = obs.NewRegistry()
		tbl, err := Fig1(p)
		if err != nil {
			t.Fatal(err)
		}
		tables[i] = render(t, tbl)
		if w := p.Metrics.Gauge("sya_ground_workers").Value(); w != 1 {
			t.Errorf("run %d: Fig. 1 ran %v workers at Workers 1", i, w)
		}
	}
	if tables[0] != tables[1] {
		t.Errorf("Fig. 1 at Workers 1 printed\n%s\nthen\n%s", tables[0], tables[1])
	}
}

func TestFig8And9(t *testing.T) {
	p := tinyParams()
	tbl8, err := Fig8(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl8.Rows) != 4 { // 2 KBs × 2 engines
		t.Fatalf("fig8 rows = %d", len(tbl8.Rows))
	}
	tbl9, err := Fig9(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl9.Rows) != 4 {
		t.Fatalf("fig9 rows = %d", len(tbl9.Rows))
	}
	// Sya F1 ≥ DeepDive F1 per KB (the headline claim) — check GWDB.
	var syaF1, ddF1 float64
	for _, r := range tbl9.Rows {
		if r[0] == "GWDB" && r[1] == "sya" {
			if _, err := fmt.Sscan(r[2], &syaF1); err != nil {
				t.Fatal(err)
			}
		}
		if r[0] == "GWDB" && r[1] == "deepdive" {
			if _, err := fmt.Sscan(r[2], &ddF1); err != nil {
				t.Fatal(err)
			}
		}
	}
	if syaF1+0.05 < ddF1 {
		t.Errorf("GWDB: Sya F1 %v well below DeepDive %v", syaF1, ddF1)
	}
}

func TestFig10(t *testing.T) {
	tbl, err := Fig10(tinyParams())
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 5 { // Sya + 4 band counts
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
	if tbl.Rows[0][0] != "Sya" {
		t.Errorf("first row = %v", tbl.Rows[0])
	}
}

func TestFig11(t *testing.T) {
	tbl, err := Fig11(tinyParams())
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 4 {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
	// Allowed pairs must not increase with T.
	var prev float64 = 1e18
	for _, r := range tbl.Rows {
		var allowed float64
		if _, err := fmt.Sscan(r[5], &allowed); err != nil {
			t.Fatal(err)
		}
		if allowed > prev {
			t.Errorf("allowed pairs increased with T:\n%s", render(t, tbl))
		}
		prev = allowed
	}
}

// TestFig11QualityIndependentOfWorkers holds Fig. 11 to the spatial
// sampler's worker-invariance contract: the quality columns (T, precision,
// recall, allowed pairs) are identical at sampler Workers 1 and 4. The
// contract needs the swept pyramid cells at least as wide as the longest
// factor edge; at the pyramid's deepest level (600/32 = 18.75 units against
// R1's 40 and the 75-unit spatial radius) factor-adjacent wells share a
// conclique, and the columns move with the worker count. GOMAXPROCS is
// raised so four workers really do sample at once.
func TestFig11QualityIndependentOfWorkers(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	p := tinyParams()
	p.GWDBWells = 600 // Fig. 11 grounds half of them
	quality := func(workers int) [][]string {
		p.Workers = workers
		tbl, err := Fig11(p)
		if err != nil {
			t.Fatal(err)
		}
		var cols [][]string
		for _, r := range tbl.Rows {
			cols = append(cols, []string{r[0], r[1], r[2], r[5]})
		}
		return cols
	}
	one := quality(1)
	for run := 0; run < 2; run++ {
		if four := quality(4); !reflect.DeepEqual(one, four) {
			t.Fatalf("run %d: Fig. 11 quality at Workers 4 = %v, at Workers 1 = %v", run, four, one)
		}
	}
}

func TestFig12(t *testing.T) {
	tbl, err := Fig12(tinyParams())
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 4 {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
}

func TestFig13(t *testing.T) {
	tbl, err := Fig13(tinyParams())
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) < 4 {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
}

func TestFig14(t *testing.T) {
	tbl, err := Fig14(tinyParams())
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 6 { // 2 KBs × 3 checkpoints
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
}

func TestAblation(t *testing.T) {
	tbl, err := Ablation(tinyParams())
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 4 {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
}

func TestTablePrinting(t *testing.T) {
	tbl := &Table{Title: "x", Header: []string{"a", "bb"}, Notes: []string{"n"}}
	tbl.Add("1", "2")
	tbl.Add("333", "4")
	out := render(t, tbl)
	for _, want := range []string{"== x ==", "a", "bb", "333", "note: n"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
}

func TestParamsDefaults(t *testing.T) {
	d := DefaultParams()
	if d.GWDBWells == 0 || d.Epochs == 0 {
		t.Error("defaults empty")
	}
	ps := PaperScaleParams()
	if ps.GWDBWells != 9831 || ps.NYCCASSide != 184 || ps.Runs != 5 {
		t.Errorf("paper scale = %+v", ps)
	}
}
