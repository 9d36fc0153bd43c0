package bench

import (
	"fmt"
	"math"
	"time"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/geom"
	"repro/internal/stats"
	"repro/internal/storage"
)

// KB abstracts one of the two evaluation knowledge bases (GWDB, NYCCAS):
// it can build a configured System for an engine and score its output
// against the generated ground truth.
type KB interface {
	Name() string
	// Build creates, loads, and returns a system for the engine with the
	// given sampling seed (data generation uses the params seed so all
	// engines see identical data).
	Build(engine core.Engine, seed int64) (*core.System, error)
	// Examples scores the system output against ground truth.
	Examples(scores *core.Scores) []stats.Example
	// QueryAtoms lists (relation, vals, truth) of scoreable atoms.
	QueryAtoms() []QueryAtom
}

// QueryAtom identifies one scoreable ground atom with its ground truth.
type QueryAtom struct {
	Relation string
	Vals     []storage.Value
	Truth    stats.TruthRange
	// Predictable is false for atoms whose evidence neighbourhood was
	// randomized (they count in recall denominators but can rarely be
	// inferred correctly).
	Predictable bool
}

// gwdbKB is the Texas water-well knowledge base.
type gwdbKB struct {
	p    Params
	data *datagen.WellsData
}

// gwdbExtent keeps well density constant as the workload scales (the real
// GWDB covers all of Texas; more wells do not mean denser wells).
func gwdbExtent(wells int) float64 {
	return 600 * math.Sqrt(float64(wells)/600)
}

// NewGWDB generates the dataset once and returns the KB.
func NewGWDB(p Params) KB {
	data := datagen.Wells(datagen.WellsConfig{
		N:      p.GWDBWells,
		Seed:   p.Seed,
		Extent: gwdbExtent(p.GWDBWells),
	})
	return &gwdbKB{p: p, data: data}
}

func (k *gwdbKB) Name() string { return "GWDB" }

func (k *gwdbKB) system(engine core.Engine, seed int64) *core.System {
	return core.NewSystem(core.Config{
		Engine:        engine,
		Metric:        geom.Euclidean,
		Bandwidth:     k.p.Bandwidth,
		SpatialScale:  k.p.SpatialScale,
		SupportRadius: k.p.SupportRadius,
		MaxNeighbors:  k.p.MaxNeighbors,
		PyramidLevels: k.p.PyramidLevels,
		LocalityLevel: localityFor(k.data.Config.Extent, k.p.SupportRadius, k.p.PyramidLevels),
		Instances:     k.p.Instances,
		Workers:       k.p.Workers,
		GroundWorkers: k.p.GroundWorkers,
		Epochs:        k.p.Epochs,
		Seed:          seed,
		Metrics:       k.p.Metrics,
	})
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

func (k *gwdbKB) Build(engine core.Engine, seed int64) (*core.System, error) {
	s := k.system(engine, seed)
	if err := s.LoadProgram(datagen.GWDBProgram); err != nil {
		return nil, err
	}
	wells, evidence := k.data.Rows()
	if err := s.LoadRows("Well", wells); err != nil {
		return nil, err
	}
	if err := s.LoadRows("WellEvidence", evidence); err != nil {
		return nil, err
	}
	return s, nil
}

func (k *gwdbKB) QueryAtoms() []QueryAtom {
	var out []QueryAtom
	for _, w := range k.data.Wells {
		if w.IsEvidence {
			continue
		}
		// Ground truth is the actual binary fact (the paper's GWDB has
		// "ground truth information available for all extracted relations"),
		// so a factual score is correct when it is decisively on the right
		// side — within the evaluation tolerance of 0 or 1.
		truth := 0.0
		if w.Safe {
			truth = 1.0
		}
		out = append(out, QueryAtom{
			Relation:    "IsSafe",
			Vals:        []storage.Value{storage.Int(w.ID), storage.Geom(w.Loc)},
			Truth:       stats.Point(truth),
			Predictable: true,
		})
	}
	return out
}

func (k *gwdbKB) Examples(scores *core.Scores) []stats.Example {
	return examplesOf(k, scores)
}

// nyccasKB is the NYC air-pollution knowledge base.
type nyccasKB struct {
	p    Params
	data *datagen.RasterData
}

// NewNYCCAS generates the raster once and returns the KB. The extent grows
// with the side length so the cell size (and thus the spatial neighbourhood
// structure) stays constant as the workload scales.
func NewNYCCAS(p Params) KB {
	data := datagen.Raster(datagen.RasterConfig{
		Side:   p.NYCCASSide,
		Seed:   p.Seed + 1,
		Extent: float64(p.NYCCASSide) * 30.0 / 22.0,
	})
	return &nyccasKB{p: p, data: data}
}

func (k *nyccasKB) Name() string { return "NYCCAS" }

func (k *nyccasKB) Build(engine core.Engine, seed int64) (*core.System, error) {
	// The raster is km-scale: scale the spatial bandwidth accordingly.
	cell := k.data.Config.Extent / float64(k.data.Config.Side)
	s := core.NewSystem(core.Config{
		Engine:        engine,
		Metric:        geom.Euclidean,
		Bandwidth:     2 * cell,
		SpatialScale:  k.p.SpatialScale,
		SupportRadius: 4 * cell,
		MaxNeighbors:  k.p.MaxNeighbors,
		PyramidLevels: k.p.PyramidLevels,
		LocalityLevel: localityFor(k.data.Config.Extent, 4*cell, k.p.PyramidLevels),
		Instances:     k.p.Instances,
		Workers:       k.p.Workers,
		GroundWorkers: k.p.GroundWorkers,
		Epochs:        k.p.Epochs,
		Seed:          seed,
		Metrics:       k.p.Metrics,
	})
	if err := s.LoadProgram(datagen.NYCCASProgram); err != nil {
		return nil, err
	}
	cells, evidence := k.data.Rows()
	if err := s.LoadRows("Cell", cells); err != nil {
		return nil, err
	}
	if err := s.LoadRows("CellEvidence", evidence); err != nil {
		return nil, err
	}
	return s, nil
}

func (k *nyccasKB) QueryAtoms() []QueryAtom {
	var out []QueryAtom
	for _, c := range k.data.Cells {
		if c.IsEvidence {
			continue
		}
		truth := 0.0
		if c.Polluted {
			truth = 1.0
		}
		out = append(out, QueryAtom{
			Relation:    "Polluted",
			Vals:        []storage.Value{storage.Int(c.ID), storage.Geom(c.Loc)},
			Truth:       stats.Point(truth),
			Predictable: true,
		})
	}
	return out
}

func (k *nyccasKB) Examples(scores *core.Scores) []stats.Example {
	return examplesOf(k, scores)
}

func examplesOf(k KB, scores *core.Scores) []stats.Example {
	var out []stats.Example
	for _, qa := range k.QueryAtoms() {
		p, ok := scores.TrueProb(qa.Relation, qa.Vals)
		if !ok {
			continue
		}
		out = append(out, stats.Example{Score: p, Truth: qa.Truth, HasTruth: qa.Predictable})
	}
	return out
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
func evaluateKB(k KB, engine core.Engine, p Params) (RunResult, error) {
	agg := RunResult{KB: k.Name(), Engine: engine.String()}
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
			rep := stats.Evaluate(k.Examples(scores), stats.DefaultOptions())
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
	kbs := []KB{NewGWDB(p), NewNYCCAS(p)}
	engines := []core.Engine{core.EngineSya, core.EngineDeepDive}
	var out []RunResult
	for _, k := range kbs {
		for _, e := range engines {
			res, err := evaluateKB(k, e, p)
			if err != nil {
				return nil, fmt.Errorf("bench: %s/%s: %w", k.Name(), e, err)
			}
			out = append(out, res)
		}
	}
	return out, nil
}
