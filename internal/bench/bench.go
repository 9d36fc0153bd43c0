// Package bench implements the experiment harness: one runner per table and
// figure of the paper's evaluation (Section VI), each regenerating the
// corresponding rows/series over the synthetic GWDB and NYCCAS datasets.
// Absolute numbers differ from the paper (different hardware, data and
// scale); the harness exists to reproduce the *shape* of every result —
// who wins, by roughly what factor, and where crossovers fall.
// EXPERIMENTS.md records paper-vs-measured for each experiment.
package bench

import (
	"fmt"
	"io"
	"math"
	"strings"

	"repro/internal/obs"
)

// Params holds the global scale knobs. Defaults keep the full suite in the
// minutes range; raise them toward the paper's scale (9,831 wells, 34K
// raster cells, 1000+ epochs, 5 runs) with the syabench flags.
type Params struct {
	// GWDBWells is the number of synthetic wells (paper: 9,831).
	GWDBWells int
	// NYCCASSide is the raster side length (cells = Side²; paper ≈ 184²).
	NYCCASSide int
	// Epochs is the total inference epoch budget E (paper default: 1000).
	Epochs int
	// Runs averages quality metrics over this many seeds (paper: 5).
	Runs int
	// Seed is the base RNG seed.
	Seed int64
	// Bandwidth of the exponential weighing function, in dataset
	// coordinate units.
	Bandwidth float64
	// SpatialScale is the zero-distance spatial factor weight.
	SpatialScale float64
	// SupportRadius caps spatial-factor generation distance.
	SupportRadius float64
	// MaxNeighbors caps spatial factors per atom.
	MaxNeighbors int
	// PyramidLevels is L.
	PyramidLevels int
	// Instances is the spatial sampler's K.
	Instances int
	// Workers is the worker-pool width (0 → GOMAXPROCS, 1 → sequential) of
	// grounding, of the spatial sampler, whose chunks sweep all K instances,
	// and of the hogwild baseline. The grounded factor graph is identical for
	// any setting.
	Workers int
	// GroundOnly restricts experiments to the grounding phase: systems are
	// built and grounded but inference is skipped, so quality columns are
	// blank. Used by syabench -phase=grounding for grounding-only
	// comparisons (Fig. 9/10 style timing without the sampler cost).
	GroundOnly bool
	// Metrics, when non-nil, is threaded into every system the experiments
	// build — with syabench -metrics-addr the registry is also served live,
	// so a long `all` run can be watched from /metrics and profiled under
	// /debug/pprof.
	Metrics *obs.Registry
}

// DefaultParams returns laptop-scale defaults.
func DefaultParams() Params {
	return Params{
		GWDBWells:     600,
		NYCCASSide:    22,
		Epochs:        400,
		Runs:          3,
		Seed:          1,
		Bandwidth:     30,
		SpatialScale:  0.5,
		SupportRadius: 75,
		MaxNeighbors:  40,
		PyramidLevels: 6,
		Instances:     2,
	}
}

// PaperScaleParams approaches the paper's sizes. Expect long runtimes.
func PaperScaleParams() Params {
	p := DefaultParams()
	p.GWDBWells = 9831
	p.NYCCASSide = 184
	p.Epochs = 1000
	p.Runs = 5
	return p
}

// Table is a printable result table.
type Table struct {
	Title  string
	Header []string
	Rows   [][]string
	// Notes are printed after the table (observed-shape commentary).
	Notes []string
}

// Add appends a row of stringified cells.
func (t *Table) Add(cells ...string) {
	t.Rows = append(t.Rows, cells)
}

// Fprint renders the table with aligned columns.
func (t *Table) Fprint(w io.Writer) {
	fmt.Fprintf(w, "== %s ==\n", t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			if i < len(widths) {
				parts[i] = fmt.Sprintf("%-*s", widths[i], c)
			} else {
				parts[i] = c
			}
		}
		fmt.Fprintln(w, strings.TrimRight(strings.Join(parts, "  "), " "))
	}
	line(t.Header)
	sep := make([]string, len(t.Header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, r := range t.Rows {
		line(r)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "note: %s\n", n)
	}
}

// f formats a float compactly.
func f3(v float64) string {
	if math.IsNaN(v) {
		return "-"
	}
	return fmt.Sprintf("%.3f", v)
}

// ms formats a duration in milliseconds.
func ms(d float64) string { return fmt.Sprintf("%.1fms", d) }
