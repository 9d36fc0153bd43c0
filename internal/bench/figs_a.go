package bench

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/geom"
	"repro/internal/stats"
	"repro/internal/storage"
)

// Table1 reproduces the paper's Table I: per knowledge base, the number of
// input relations, inference rules, factor-graph variables and factors
// (logical + ground spatial under the Sya engine).
func Table1(p Params) (*Table, error) {
	t := &Table{
		Title:  "Table I: statistics of KBs used in experiments",
		Header: []string{"System", "No. Rels", "No. Rules", "No. Vars", "No. Factors"},
	}
	for _, k := range []*KB{NewGWDB(p), NewNYCCAS(p)} {
		s, err := k.Build(core.EngineSya, p.Seed)
		if err != nil {
			return nil, err
		}
		res, err := s.Ground()
		if err != nil {
			return nil, err
		}
		rules := len(s.Program().Rules)
		factors := int64(res.Stats.LogicalFactors) + res.Stats.GroundSpatialFactors
		t.Add(k.name,
			"1", // input (non-evidence) relations, as Table I counts them
			fmt.Sprint(rules),
			fmt.Sprint(res.Stats.Vars),
			fmt.Sprint(factors))
	}
	t.Notes = append(t.Notes,
		"paper (full scale): GWDB 1/11/104K/39.5M, NYCCAS 1/4/34K/233K; sizes here follow the -wells/-side flags")
	return t, nil
}

// Fig1 reproduces the paper's Fig. 1(b): per-county factual scores of
// EbolaKB under DeepDive (boolean spatial predicate) and Sya (spatial
// factors), against the WHO-style ground-truth ranges, plus each system's
// F1-score.
func Fig1(p Params) (*Table, error) {
	t := &Table{
		Title:  "Fig 1: factual scores of EbolaKB (DeepDive vs Sya)",
		Header: []string{"County", "Truth range", "DeepDive", "Sya"},
	}
	counties := datagen.EbolaCounties()
	scoresFor := func(engine core.Engine) (map[int64]float64, error) {
		s := core.NewSystem(core.Config{
			Engine:        engine,
			Metric:        geom.HaversineMiles,
			Bandwidth:     60,
			PyramidLevels: 4,
			Epochs:        6000,
			Seed:          p.Seed,
			Workers:       p.Workers,
			Metrics:       p.Metrics,
		})
		if err := s.LoadProgram(datagen.EbolaProgram); err != nil {
			return nil, err
		}
		county, evidence := datagen.EbolaRows(counties)
		if err := s.LoadRows("County", county); err != nil {
			return nil, err
		}
		if err := s.LoadRows("CountyEvidence", evidence); err != nil {
			return nil, err
		}
		if _, err := s.Ground(); err != nil {
			return nil, err
		}
		scores, err := s.Infer()
		if err != nil {
			return nil, err
		}
		out := map[int64]float64{}
		for _, c := range counties {
			v, ok := scores.TrueProb("HasEbola", []storage.Value{storage.Int(c.ID), storage.Geom(c.Loc)})
			if !ok {
				return nil, fmt.Errorf("bench: no score for %s", c.Name)
			}
			out[c.ID] = v
		}
		return out, nil
	}
	dd, err := scoresFor(core.EngineDeepDive)
	if err != nil {
		return nil, err
	}
	sy, err := scoresFor(core.EngineSya)
	if err != nil {
		return nil, err
	}
	evalF1 := func(m map[int64]float64) float64 {
		var exs []stats.Example
		for _, c := range counties[1:] { // query counties only
			exs = append(exs, stats.Example{Score: m[c.ID], Truth: c.Truth, HasTruth: true})
		}
		return stats.Evaluate(exs, stats.DefaultOptions()).F1
	}
	for _, c := range counties {
		t.Add(c.Name,
			fmt.Sprintf("[%.2f, %.2f]", c.Truth.Lo, c.Truth.Hi),
			f3(dd[c.ID]),
			f3(sy[c.ID]))
	}
	t.Add("F1-score", "", f3(evalF1(dd)), f3(evalF1(sy)))
	t.Notes = append(t.Notes,
		"paper: DeepDive (0.51, 0.45, 0.06) F1 0.39; Sya (0.76, 0.53, 0.22) F1 0.85",
		"shape: DeepDive scores Margibi ≈ Bong (boolean predicate) and near-kills Gbarpolu; Sya grades by distance")
	return t, nil
}

// Fig8 reproduces Fig. 8: precision and recall of Sya vs DeepDive on both
// knowledge bases, averaged over Runs seeds.
func Fig8(p Params) (*Table, error) {
	results, err := compareKBs(p)
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title:  "Fig 8: precision and recall vs DeepDive",
		Header: []string{"KB", "Engine", "Precision", "Recall"},
	}
	for _, r := range results {
		t.Add(r.KB, r.Engine, f3(r.Precision), f3(r.Recall))
	}
	t.Notes = append(t.Notes,
		"paper shape: Sya precision > DeepDive by >53% relative on both KBs;",
		"recall gain large on GWDB (~60%) but small on NYCCAS (~9%, random evidence)")
	return t, nil
}

// Fig9 reproduces Fig. 9: F1-scores and grounding/inference times of Sya vs
// DeepDive on both knowledge bases.
func Fig9(p Params) (*Table, error) {
	results, err := compareKBs(p)
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title:  "Fig 9: F1-score and execution time vs DeepDive",
		Header: []string{"KB", "Engine", "F1", "Grounding", "Inference", "Vars", "Factors"},
	}
	for _, r := range results {
		t.Add(r.KB, r.Engine, f3(r.F1),
			ms(float64(r.GroundTime.Microseconds())/1000),
			ms(float64(r.InferTime.Microseconds())/1000),
			fmt.Sprint(r.Vars), fmt.Sprint(r.Factors))
	}
	t.Notes = append(t.Notes,
		"paper shape: Sya F1 +120% (GWDB) / +27% (NYCCAS); grounding ≤15% slower; inference ≥30% faster")
	return t, nil
}
