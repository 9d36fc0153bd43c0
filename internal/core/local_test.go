package core

import (
	"context"
	"fmt"
	"sort"
	"testing"

	"repro/internal/datagen"
	"repro/internal/factorgraph"
	"repro/internal/geom"
	"repro/internal/gibbs/testutil"
	"repro/internal/obs"
)

// localTol mirrors the serving-equivalence tolerance: two Monte-Carlo
// estimates of the same marginal land within this TV distance.
const localTol = 0.08

// localWorkload is one datagen-backed system for the budget sweep.
type localWorkload struct {
	name     string
	build    func(t *testing.T) *System
	queryRel string
}

func localWorkloads(t *testing.T) []localWorkload {
	t.Helper()
	wells := datagen.Wells(datagen.WellsConfig{N: 48, Seed: 5, Extent: 170})
	raster := datagen.Raster(datagen.RasterConfig{Side: 6, Seed: 9, Extent: 6 * 30.0 / 22.0})
	nycCell := raster.Config.Extent / float64(raster.Config.Side)
	return []localWorkload{
		{
			name: "gwdb",
			build: func(t *testing.T) *System {
				t.Helper()
				s := NewSystem(Config{
					Engine:           EngineSya,
					Metric:           geom.Euclidean,
					Bandwidth:        50,
					SupportRadius:    60,
					MaxNeighbors:     8,
					PyramidLevels:    5,
					Epochs:           8000,
					Seed:             7,
					SkipFactorTables: true,
				})
				if err := s.LoadProgram(datagen.GWDBProgram); err != nil {
					t.Fatal(err)
				}
				rows, evidence := wells.Rows()
				if err := s.LoadRows("Well", rows); err != nil {
					t.Fatal(err)
				}
				if err := s.LoadRows("WellEvidence", evidence); err != nil {
					t.Fatal(err)
				}
				return s
			},
			queryRel: "IsSafe",
		},
		{
			name: "nyccas",
			build: func(t *testing.T) *System {
				t.Helper()
				s := NewSystem(Config{
					Engine:           EngineSya,
					Metric:           geom.Euclidean,
					Bandwidth:        2 * nycCell,
					SupportRadius:    4 * nycCell,
					PyramidLevels:    5,
					Epochs:           8000,
					Seed:             7,
					SkipFactorTables: true,
				})
				if err := s.LoadProgram(datagen.NYCCASProgram); err != nil {
					t.Fatal(err)
				}
				cells, evidence := raster.Rows()
				if err := s.LoadRows("Cell", cells); err != nil {
					t.Fatal(err)
				}
				if err := s.LoadRows("CellEvidence", evidence); err != nil {
					t.Fatal(err)
				}
				return s
			},
			queryRel: "Polluted",
		},
	}
}

// TestQueryLocalBudgetSweep is the lazy-grounding convergence guarantee:
// local marginals approach the full-graph marginals as the variable budget
// grows (monotone max-TV decrease across three budgets, up to Monte-Carlo
// slack), the reported truncation bound dominates the observed error at every
// budget, and the largest budget — enough to cover the whole uncertain
// component — agrees with full inference within the harness TV tolerance.
func TestQueryLocalBudgetSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("statistical sweep")
	}
	for _, w := range localWorkloads(t) {
		w := w
		t.Run(w.name, func(t *testing.T) {
			s := w.build(t)
			defer s.Close()
			res, err := s.Ground()
			if err != nil {
				t.Fatal(err)
			}
			scores, err := s.Infer()
			if err != nil {
				t.Fatal(err)
			}
			full := make(map[string][]float64)
			scores.Each(w.queryRel, func(key string, _ factorgraph.VarID, marginal []float64) bool {
				full[key] = marginal
				return true
			})
			// Probe genuinely uncertain atoms first: evidence-determined
			// point masses are exact at any budget and would mask the
			// convergence signal.
			var uncertain, certain []string
			for k, m := range full {
				if mode := ScoreOf(m); mode > 0.99 || mode < 0.01 {
					certain = append(certain, k)
				} else {
					uncertain = append(uncertain, k)
				}
			}
			sort.Strings(uncertain)
			sort.Strings(certain)
			atoms := append(uncertain, certain...)
			if len(atoms) > 4 {
				atoms = atoms[:4]
			}

			budgets := []int{2, 8, res.Stats.Vars}
			points := make([]testutil.BudgetPoint, 0, len(budgets))
			for _, budget := range budgets {
				maxTV, maxBound := 0.0, 0.0
				for _, key := range atoms {
					lr, err := s.QueryLocal(context.Background(), key, LocalBudget{
						MaxVars:      budget,
						MinInfluence: 1e-9,
					})
					if err != nil {
						t.Fatalf("QueryLocal(%s, budget %d): %v", key, budget, err)
					}
					if lr.Vars > budget {
						t.Fatalf("budget %d exceeded: %d interior vars", budget, lr.Vars)
					}
					if tv := testutil.TV(lr.Marginal, full[key]); tv > maxTV {
						maxTV = tv
					}
					if lr.ErrorBound > maxBound {
						maxBound = lr.ErrorBound
					}
				}
				points = append(points, testutil.BudgetPoint{Budget: budget, MaxTV: maxTV, Bound: maxBound})
			}
			testutil.CheckBudgetSweep(t, points, localTol)
			if last := points[len(points)-1]; last.MaxTV > localTol {
				t.Fatalf("full-budget local inference off: max TV %.4f > %.2f", last.MaxTV, localTol)
			}
		})
	}
}

// TestQueryLocalInterior checks the neighbourhood payload: the root's own
// marginal appears in Interior under the queried key, and every interior key
// resolves back to a grounded atom.
func TestQueryLocalInterior(t *testing.T) {
	s := newEbolaSystem(t, Config{Engine: EngineSya, Seed: 7})
	defer s.Close()
	if _, err := s.Ground(); err != nil {
		t.Fatal(err)
	}
	scores, err := s.Infer()
	if err != nil {
		t.Fatal(err)
	}
	// Pick the first uncertain atom (sorted): an evidence-pinned root yields
	// a frozen point-mass answer with an empty interior, which is not what
	// this test exercises.
	var keys []string
	scores.Each("HasEbola", func(k string, _ factorgraph.VarID, m []float64) bool {
		if p := ScoreOf(m); p > 0.01 && p < 0.99 {
			keys = append(keys, k)
		}
		return true
	})
	if len(keys) == 0 {
		t.Fatal("no uncertain HasEbola atom")
	}
	sort.Strings(keys)
	key := keys[0]
	tracer := obs.NewTracer(obs.TracerOptions{RingSize: 1})
	root := tracer.StartRequest("local", "")
	lr, err := s.QueryLocal(obs.ContextWithSpan(context.Background(), root), key, LocalBudget{MaxVars: 64, Epochs: 4000})
	if err != nil {
		t.Fatal(err)
	}
	root.Finish("ok")
	// The sampling stage says how much of the neighbourhood was live: the
	// dynamic ops the per-query kernels kept, and the ops folded into biases
	// because every other endpoint was frozen boundary.
	var note string
	for _, sp := range tracer.Recent(1)[0].Spans {
		if sp.Name == "local_sample" {
			note = sp.Note
		}
	}
	var epochs, ops, folded int
	if n, err := fmt.Sscanf(note, "epochs=%d ops=%d folded=%d", &epochs, &ops, &folded); n != 3 || err != nil {
		t.Fatalf("local_sample note %q: %v", note, err)
	}
	if epochs != 4000 || folded == 0 || ops+folded < lr.Factors+lr.SpatialPairs {
		t.Errorf("local_sample note %q for %d factors and %d pairs", note, lr.Factors, lr.SpatialPairs)
	}
	if got, ok := lr.Interior[key]; !ok || testutil.TV(got, lr.Marginal) != 0 {
		t.Fatalf("Interior[%q] must echo the root marginal", key)
	}
	if lr.Vars != len(lr.Interior) {
		t.Fatalf("Vars %d != len(Interior) %d", lr.Vars, len(lr.Interior))
	}
	if lr.Score < 0 || lr.Score > 1 {
		t.Fatalf("score %.4f out of range", lr.Score)
	}
}

// TestQueryLocalErrors checks the precondition errors.
func TestQueryLocalErrors(t *testing.T) {
	s := newEbolaSystem(t, Config{Engine: EngineSya, Seed: 7})
	defer s.Close()
	if _, err := s.QueryLocal(context.Background(), "x", LocalBudget{}); err == nil {
		t.Fatal("QueryLocal before Ground must fail")
	}
	if _, err := s.Ground(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.QueryLocal(context.Background(), "NoSuchAtom|1", LocalBudget{}); err == nil {
		t.Fatal("unknown atom must fail")
	}
}
