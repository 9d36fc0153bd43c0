package bench

import (
	"fmt"
	"math"
	"time"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/geom"
	"repro/internal/grounding"
	"repro/internal/stats"
	"repro/internal/storage"
)

// KB is one of the two evaluation knowledge bases (GWDB, NYCCAS): its
// program, generated input tables and tuned configuration, and the query
// atoms its output is scored on against the generated ground truth. The data
// are generated once, from the params seed, so every System built from a KB
// sees identical data.
type KB struct {
	name     string
	program  string
	tables   []table
	relation string      // the variable relation of the query atoms
	atoms    []queryAtom // its non-evidence atoms, in generation order
	cfg      core.Config // Build sets Engine and Seed
}

// table is one input relation's generated rows.
type table struct {
	name string
	rows []storage.Row
}

// queryAtom is one scoreable ground atom: its term values and ground truth.
// The truth is the actual binary fact (the paper's GWDB has "ground truth
// information available for all extracted relations"), so a factual score
// is correct when it is decisively on the right side — within the
// evaluation tolerance of 0 or 1.
type queryAtom struct {
	vals  []storage.Value
	truth stats.TruthRange
}

func newQueryAtom(id int64, loc geom.Point, fact bool) queryAtom {
	truth := 0.0
	if fact {
		truth = 1.0
	}
	return queryAtom{vals: []storage.Value{storage.Int(id), storage.Geom(loc)}, truth: stats.Point(truth)}
}

// Build creates a System for the engine with the given sampling seed and
// loads the program and tables into it.
func (k *KB) Build(engine core.Engine, seed int64) (*core.System, error) {
	cfg := k.cfg
	cfg.Engine, cfg.Seed = engine, seed
	s := core.NewSystem(cfg)
	if err := s.LoadProgram(k.program); err != nil {
		return nil, err
	}
	for _, t := range k.tables {
		if err := s.LoadRows(t.name, t.rows); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// examples scores marginals over a grounding against the query atoms' truth;
// an atom the grounding lacks, or a non-binary one, is skipped.
func (k *KB) examples(gres *grounding.Result, marginals [][]float64) []stats.Example {
	var out []stats.Example
	for _, qa := range k.atoms {
		vid, ok := gres.VarID[grounding.AtomKey(k.relation, qa.vals)]
		if !ok || len(marginals[vid]) < 2 {
			continue
		}
		out = append(out, stats.Example{Score: marginals[vid][1], Truth: qa.truth, HasTruth: true})
	}
	return out
}

// f1 is the F1-score of a System's inferred scores.
func (k *KB) f1(s *core.System, scores *core.Scores) float64 {
	return stats.Evaluate(k.examples(s.Grounding(), scores.Marginals), stats.DefaultOptions()).F1
}

// gwdbExtent keeps well density constant as the workload scales (the real
// GWDB covers all of Texas; more wells do not mean denser wells).
func gwdbExtent(wells int) float64 {
	return 600 * math.Sqrt(float64(wells)/600)
}

// NewGWDB generates the Texas water-well dataset and returns its KB.
func NewGWDB(p Params) *KB {
	data := datagen.Wells(datagen.WellsConfig{
		N:      p.GWDBWells,
		Seed:   p.Seed,
		Extent: gwdbExtent(p.GWDBWells),
	})
	wells, evidence := data.Rows()
	k := &KB{
		name:     "GWDB",
		program:  datagen.GWDBProgram,
		tables:   []table{{"Well", wells}, {"WellEvidence", evidence}},
		relation: "IsSafe",
		cfg: core.Config{
			Metric:        geom.Euclidean,
			Bandwidth:     p.Bandwidth,
			SpatialScale:  p.SpatialScale,
			SupportRadius: p.SupportRadius,
			MaxNeighbors:  p.MaxNeighbors,
			PyramidLevels: p.PyramidLevels,
			LocalityLevel: localityFor(data.Config.Extent, p.SupportRadius, p.PyramidLevels),
			Instances:     p.Instances,
			Workers:       p.Workers,
			Epochs:        p.Epochs,
			Metrics:       p.Metrics,
		},
	}
	for _, w := range data.Wells {
		if !w.IsEvidence {
			k.atoms = append(k.atoms, newQueryAtom(w.ID, w.Loc, w.Safe))
		}
	}
	return k
}

// NewNYCCAS generates the NYC air-pollution raster and returns its KB. The
// extent grows with the side length so the cell size (and thus the spatial
// neighbourhood structure) stays constant as the workload scales; the
// spatial bandwidth and support are in cell units, since the raster is
// km-scale.
func NewNYCCAS(p Params) *KB {
	data := datagen.Raster(datagen.RasterConfig{
		Side:   p.NYCCASSide,
		Seed:   p.Seed + 1,
		Extent: float64(p.NYCCASSide) * 30.0 / 22.0,
	})
	cells, evidence := data.Rows()
	cell := data.Config.Extent / float64(data.Config.Side)
	k := &KB{
		name:     "NYCCAS",
		program:  datagen.NYCCASProgram,
		tables:   []table{{"Cell", cells}, {"CellEvidence", evidence}},
		relation: "Polluted",
		cfg: core.Config{
			Metric:        geom.Euclidean,
			Bandwidth:     2 * cell,
			SpatialScale:  p.SpatialScale,
			SupportRadius: 4 * cell,
			MaxNeighbors:  p.MaxNeighbors,
			PyramidLevels: p.PyramidLevels,
			LocalityLevel: localityFor(data.Config.Extent, 4*cell, p.PyramidLevels),
			Instances:     p.Instances,
			Workers:       p.Workers,
			Epochs:        p.Epochs,
			Metrics:       p.Metrics,
		},
	}
	for _, c := range data.Cells {
		if !c.IsEvidence {
			k.atoms = append(k.atoms, newQueryAtom(c.ID, c.Loc, c.Polluted))
		}
	}
	return k
}

// localityFor picks the deepest pyramid level whose cell width still covers
// the spatial interaction radius, so cells of one conclique are genuinely
// independent (the conclique guarantee of Section V). Deeper levels
// parallelize more but let dependent atoms sample concurrently.
func localityFor(extent, radius float64, levels int) int {
	l := 2
	for l+1 <= levels-1 && extent/float64(int(1)<<(l+1)) >= radius {
		l++
	}
	return l
}

// RunResult aggregates one (KB, engine) evaluation averaged over runs.
type RunResult struct {
	KB, Engine string
	Precision  float64
	Recall     float64
	F1         float64
	GroundTime time.Duration
	InferTime  time.Duration
	Vars       int
	Factors    int64
}

// evaluateKB runs ground+infer for one engine over p.Runs seeds and
// averages the metrics; grounding runs once per seed (the data is fixed, so
// its time is averaged too). With p.GroundOnly, inference is skipped and the
// quality metrics come back NaN (rendered as "-").
func evaluateKB(k *KB, engine core.Engine, p Params) (RunResult, error) {
	agg := RunResult{KB: k.name, Engine: engine.String()}
	for r := 0; r < p.Runs; r++ {
		s, err := k.Build(engine, p.Seed+int64(100*r+7))
		if err != nil {
			return agg, err
		}
		gres, err := s.Ground()
		if err != nil {
			return agg, err
		}
		if !p.GroundOnly {
			scores, err := s.Infer()
			if err != nil {
				return agg, err
			}
			rep := stats.Evaluate(k.examples(gres, scores.Marginals), stats.DefaultOptions())
			agg.Precision += rep.Precision
			agg.Recall += rep.Recall
			agg.F1 += rep.F1
			agg.InferTime += s.InferenceTime()
		}
		agg.GroundTime += s.GroundingTime()
		agg.Vars = gres.Stats.Vars
		agg.Factors = int64(gres.Stats.LogicalFactors) + gres.Stats.GroundSpatialFactors
	}
	n := float64(p.Runs)
	agg.Precision /= n
	agg.Recall /= n
	agg.F1 /= n
	agg.GroundTime = time.Duration(float64(agg.GroundTime) / n)
	agg.InferTime = time.Duration(float64(agg.InferTime) / n)
	if p.GroundOnly {
		agg.Precision = math.NaN()
		agg.Recall = math.NaN()
		agg.F1 = math.NaN()
	}
	return agg, nil
}

// compareKBs evaluates both KBs under both engines (the Fig. 8 / Fig. 9
// workload).
func compareKBs(p Params) ([]RunResult, error) {
	kbs := []*KB{NewGWDB(p), NewNYCCAS(p)}
	engines := []core.Engine{core.EngineSya, core.EngineDeepDive}
	var out []RunResult
	for _, k := range kbs {
		for _, e := range engines {
			res, err := evaluateKB(k, e, p)
			if err != nil {
				return nil, fmt.Errorf("bench: %s/%s: %w", k.name, e, err)
			}
			out = append(out, res)
		}
	}
	return out, nil
}
