package bench

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"time"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/geom"
	"repro/internal/gibbs"
	"repro/internal/grounding"
	"repro/internal/stats"
	"repro/internal/storage"
	"repro/internal/weighting"
)

// Fig10 reproduces Fig. 10: DeepDive with step-function rules approximating
// spatial decay. As the band count grows, F1 approaches (but does not
// reach) Sya while grounding time explodes — one SQL query per band rule.
func Fig10(p Params) (*Table, error) {
	t := &Table{
		Title:  "Fig 10: DeepDive step-function rules vs Sya (GWDB)",
		Header: []string{"System", "Rules", "F1", "Grounding"},
	}
	k := NewGWDB(p)
	// Sya reference. With p.GroundOnly (syabench -phase=grounding) inference
	// is skipped throughout and the F1 column renders as "-": the figure's
	// grounding-latency axis is then reproduced in isolation.
	infer := func(s *core.System) (float64, error) {
		if p.GroundOnly {
			return math.NaN(), nil
		}
		scores, err := s.Infer()
		if err != nil {
			return 0, err
		}
		return k.f1(s, scores), nil
	}
	sya, err := k.Build(core.EngineSya, p.Seed)
	if err != nil {
		return nil, err
	}
	if _, err := sya.Ground(); err != nil {
		return nil, err
	}
	syaF1, err := infer(sya)
	if err != nil {
		return nil, err
	}
	t.Add("Sya", fmt.Sprint(len(sya.Program().Rules)), f3(syaF1),
		ms(float64(sya.GroundingTime().Microseconds())/1000))
	// DeepDive with increasing band counts (the paper sweeps 11 → 11k
	// rules). Bands replace the ungated proximity rule R11, stretched over
	// the full distance domain (the paper bands the whole range: "0 ≤ D <
	// 10", "10 ≤ D < 20", ...), with weights sampled from the same
	// exponential decay Sya uses. One band couples far pairs at mid-range
	// weight — a poor approximation; refinement approaches Sya's decay.
	// Total rules = 10 + bands, and every band is a separate spatial-join
	// grounding query, which is what makes the paper's 11k-rule grounding
	// take 12+ hours.
	decay := weighting.Exponential{Bandwidth: p.Bandwidth, Scale: p.SpatialScale}
	maxDist := 4 * p.SupportRadius
	for _, bands := range []int{1, 10, 50, 200} {
		s, err := k.Build(core.EngineDeepDive, p.Seed)
		if err != nil {
			return nil, err
		}
		if err := s.ExpandStepRulesWeighted("R11", bands, maxDist, decay); err != nil {
			return nil, err
		}
		if _, err := s.Ground(); err != nil {
			return nil, err
		}
		f1, err := infer(s)
		if err != nil {
			return nil, err
		}
		t.Add("DeepDive", fmt.Sprint(len(s.Program().Rules)), f3(f1),
			ms(float64(s.GroundingTime().Microseconds())/1000))
	}
	t.Notes = append(t.Notes,
		"paper shape: more bands → better F1 but grounding latency grows with rule count",
		"(the paper's 11k rules took >12h grounding for 20% less F1 than Sya)")
	return t, nil
}

// Fig11 reproduces Fig. 11: the pruning threshold T trade-off on the
// categorical GWDB variant (h = 10 domain values): higher T → higher
// precision, lower recall, and sharply lower grounding+inference time.
func Fig11(p Params) (*Table, error) {
	t := &Table{
		Title:  "Fig 11: effect of pruning threshold T (GWDB categorical, h=10)",
		Header: []string{"T", "Precision", "Recall", "Grounding", "Inference", "AllowedPairs"},
	}
	const h = 10
	data := datagen.Wells(datagen.WellsConfig{N: p.GWDBWells / 2, Seed: p.Seed, Extent: 600})
	for _, T := range []float64{0.3, 0.5, 0.7, 0.9} {
		s := core.NewSystem(core.Config{
			Engine:        core.EngineSya,
			Metric:        geom.Euclidean,
			Bandwidth:     p.Bandwidth,
			SupportRadius: p.SupportRadius,
			MaxNeighbors:  p.MaxNeighbors,
			PyramidLevels: p.PyramidLevels,
			// Swept cells as wide as the spatial radius, as NewGWDB does: at
			// the deepest level factor-adjacent wells would share a conclique
			// and the chains would depend on the worker count.
			LocalityLevel:  localityFor(data.Config.Extent, p.SupportRadius, p.PyramidLevels),
			Instances:      p.Instances,
			Workers:        p.Workers,
			Epochs:         p.Epochs,
			Seed:           p.Seed,
			PruneThreshold: T,
			Metrics:        p.Metrics,
		})
		if err := s.LoadProgram(datagen.GWDBCategoricalProgram); err != nil {
			return nil, err
		}
		wells, _ := data.Rows()
		if err := s.LoadRows("Well", wells); err != nil {
			return nil, err
		}
		if err := s.LoadRows("LevelEvidence", data.LevelRows(h)); err != nil {
			return nil, err
		}
		gres, err := s.Ground()
		if err != nil {
			return nil, err
		}
		scores, err := s.Infer()
		if err != nil {
			return nil, err
		}
		prec, rec := categoricalPR(data, scores, h)
		t.Add(fmt.Sprintf("%.1f", T), f3(prec), f3(rec),
			ms(float64(s.GroundingTime().Microseconds())/1000),
			ms(float64(s.InferenceTime().Microseconds())/1000),
			fmt.Sprint(gres.Stats.AllowedValuePairs))
	}
	t.Notes = append(t.Notes,
		"paper shape: raising T trades recall for precision and cuts total time (~96% from T=0.3 to 0.9)")
	return t, nil
}

// categoricalPR scores categorical predictions: the predicted level is the
// marginal argmax; a prediction is committed when its mass clearly exceeds
// uniform, and correct when within one level of the truth (the categorical
// analogue of the paper's 0.1 score tolerance at h = 10).
func categoricalPR(data *datagen.WellsData, scores *core.Scores, h int) (prec, rec float64) {
	var committed, correctCommitted, correctAll, all int
	for _, w := range data.Wells {
		if w.IsEvidence {
			continue
		}
		m, ok := scores.Marginal("RiskLevel", []storage.Value{storage.Int(w.ID), storage.Geom(w.Loc)})
		if !ok {
			continue
		}
		best, bestP := 0, 0.0
		for lvl, p := range m {
			if p > bestP {
				best, bestP = lvl, p
			}
		}
		truth := int(datagen.Level(w.TruthProb, h))
		correct := best >= truth-1 && best <= truth+1
		all++
		if correct {
			correctAll++
		}
		if bestP >= 1.5/float64(h) {
			committed++
			if correct {
				correctCommitted++
			}
		}
	}
	if committed > 0 {
		prec = float64(correctCommitted) / float64(committed)
	}
	if all > 0 {
		rec = float64(correctAll) / float64(all)
	}
	return prec, rec
}

// Fig12 reproduces Fig. 12: F1 and inference time as the epoch budget grows
// (the paper sweeps 100 → 100k and sees saturation near 1000; Sya stays
// above DeepDive at every budget).
func Fig12(p Params) (*Table, error) {
	t := &Table{
		Title:  "Fig 12: effect of inference epochs (GWDB)",
		Header: []string{"Epochs", "Sya F1", "Sya time", "DeepDive F1", "DeepDive time"},
	}
	k := NewGWDB(p)
	checkpoints := []int{p.Epochs / 4, p.Epochs, p.Epochs * 4, p.Epochs * 10}
	type track struct {
		sys  *core.System
		f1   []float64
		time []time.Duration
	}
	run := func(engine core.Engine) (*track, error) {
		s, err := k.Build(engine, p.Seed)
		if err != nil {
			return nil, err
		}
		if _, err := s.Ground(); err != nil {
			return nil, err
		}
		tr := &track{sys: s}
		prev := 0
		for _, cp := range checkpoints {
			scores, err := s.InferEpochs(cp - prev)
			if err != nil {
				return nil, err
			}
			prev = cp
			tr.f1 = append(tr.f1, k.f1(s, scores))
			tr.time = append(tr.time, s.InferenceTime())
		}
		return tr, nil
	}
	sy, err := run(core.EngineSya)
	if err != nil {
		return nil, err
	}
	dd, err := run(core.EngineDeepDive)
	if err != nil {
		return nil, err
	}
	for i, cp := range checkpoints {
		t.Add(fmt.Sprint(cp), f3(sy.f1[i]),
			ms(float64(sy.time[i].Microseconds())/1000),
			f3(dd.f1[i]),
			ms(float64(dd.time[i].Microseconds())/1000))
	}
	t.Notes = append(t.Notes,
		"paper shape: both saturate around 1000 epochs; Sya above DeepDive throughout; Sya 20-31% faster")
	return t, nil
}

// Fig13 reproduces Fig. 13: (a) incremental inference latency as evidence
// updates arrive (Sya resamples only the affected concliques; the baseline
// re-infers everything), and (b) F1 versus the locality level.
func Fig13(p Params) (*Table, error) {
	t := &Table{
		Title:  "Fig 13a: incremental inference time vs changed nodes (GWDB)",
		Header: []string{"Changed nodes", "Sya incremental", "Sya full", "DeepDive full"},
	}
	// Incremental inference pays off when the dirty neighbourhood is small
	// relative to the graph, as at the paper's 104K-variable scale; keep
	// the spatial fan-out moderate here so the ratio is visible at bench
	// scale too.
	pInc := p
	pInc.MaxNeighbors = 10
	pInc.SupportRadius = 30
	k := NewGWDB(pInc)
	s, err := k.Build(core.EngineSya, p.Seed)
	if err != nil {
		return nil, err
	}
	if _, err := s.Ground(); err != nil {
		return nil, err
	}
	if _, err := s.Infer(); err != nil {
		return nil, err
	}
	syaFull, err := k.Build(core.EngineSya, p.Seed)
	if err != nil {
		return nil, err
	}
	if _, err := syaFull.Ground(); err != nil {
		return nil, err
	}
	if _, err := syaFull.Infer(); err != nil {
		return nil, err
	}
	dd, err := k.Build(core.EngineDeepDive, p.Seed)
	if err != nil {
		return nil, err
	}
	if _, err := dd.Ground(); err != nil {
		return nil, err
	}
	if _, err := dd.Infer(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(p.Seed + 99))
	incEpochs := p.Epochs / 2
	if incEpochs < 20 {
		incEpochs = 20
	}
	next := 0
	for _, n := range []int{1, 5, 10, 20} {
		// Pin n fresh atoms on the Sya system and time the incremental
		// resample of their concliques.
		for i := 0; i < n && next < len(k.atoms); i++ {
			qa := k.atoms[next]
			next++
			if err := s.UpdateEvidence(k.relation, qa.vals, int32(rng.Intn(2))); err != nil {
				return nil, err
			}
		}
		t0 := time.Now()
		if _, err := s.InferIncremental(incEpochs); err != nil {
			return nil, err
		}
		incTime := time.Since(t0)
		// Baselines: full re-inference for the same epoch budget, on the
		// same engine and on DeepDive.
		t1 := time.Now()
		if _, err := syaFull.InferEpochs(incEpochs); err != nil {
			return nil, err
		}
		syaFullTime := time.Since(t1)
		t2 := time.Now()
		if _, err := dd.InferEpochs(incEpochs); err != nil {
			return nil, err
		}
		ddFullTime := time.Since(t2)
		t.Add(fmt.Sprint(n),
			ms(float64(incTime.Microseconds())/1000),
			ms(float64(syaFullTime.Microseconds())/1000),
			ms(float64(ddFullTime.Microseconds())/1000))
	}
	t.Notes = append(t.Notes,
		"paper shape: incremental (conclique-scoped) resampling takes well under the full re-inference time")

	// Fig. 13b: locality level sweep, on the full-connectivity KBs.
	t2 := &Table{
		Title:  "Fig 13b: F1 vs locality level",
		Header: []string{"Locality level", "GWDB F1", "NYCCAS F1"},
	}
	kbs := []*KB{NewGWDB(p), NewNYCCAS(p)}
	for l := 1; l <= p.PyramidLevels-1; l++ {
		row := []string{fmt.Sprint(l)}
		for _, kb := range kbs {
			at := *kb
			at.cfg.LocalityLevel = l
			s, err := at.Build(core.EngineSya, p.Seed)
			if err != nil {
				return nil, err
			}
			if _, err := s.Ground(); err != nil {
				return nil, err
			}
			scores, err := s.Infer()
			if err != nil {
				return nil, err
			}
			row = append(row, f3(kb.f1(s, scores)))
		}
		t2.Add(row...)
	}
	t2.Notes = append(t2.Notes,
		"paper shape: deeper locality levels raise F1, with a stronger effect on GWDB than NYCCAS")
	t.Rows = append(t.Rows, []string{"", "", ""})
	mergeTables(t, t2)
	return t, nil
}

func mergeTables(dst, src *Table) {
	dst.Rows = append(dst.Rows, append([]string{}, src.Title))
	dst.Rows = append(dst.Rows, src.Header)
	dst.Rows = append(dst.Rows, src.Rows...)
	dst.Notes = append(dst.Notes, src.Notes...)
}

// Fig14 reproduces Fig. 14: average KL divergence between estimated and
// reference marginals as sampling time grows, for the spatial Gibbs sampler
// versus the standard (hogwild) Gibbs sampler of DeepDive, on the same
// spatial factor graph.
//
// The GWDB graph uses the strong-and-sparse coupling regime (unit spatial
// scale, tight support) where the comparison is meaningful: concurrent
// updates of strongly-coupled neighbours bias the standard parallel
// sampler, which is precisely the deficiency the conclique sweep removes
// (Section V). At the F1-tuned coupling of Figs. 8–9 the GWDB field is
// supercritical and single-chain KL measures mode-switching luck instead of
// convergence; EXPERIMENTS.md discusses this.
func Fig14(p Params) (*Table, error) {
	t := &Table{
		Title:  "Fig 14: KL divergence vs sampling time (spatial vs standard Gibbs)",
		Header: []string{"KB", "Epochs", "Spatial time", "Spatial KL", "Standard time", "Standard KL"},
	}
	pGW := p
	pGW.SpatialScale = 1.0
	pGW.Bandwidth = 18
	pGW.SupportRadius = 40
	pGW.MaxNeighbors = 24
	for _, kb := range []*KB{NewGWDB(pGW), NewNYCCAS(p)} {
		s, err := kb.Build(core.EngineSya, p.Seed)
		if err != nil {
			return nil, err
		}
		gres, err := s.Ground()
		if err != nil {
			return nil, err
		}
		g := gres.Graph
		// Reference marginals: a long sequential chain on the same graph.
		ref := gibbs.NewSequential(g, p.Seed+5)
		ref.RunEpochs(p.Epochs * 8)
		truth := ref.Marginals()
		isQuery := queryMask(gres)

		burn := p.Epochs / 10
		spatial, err := gibbs.NewSpatial(g, gibbs.SpatialOptions{
			Levels: p.PyramidLevels, Instances: p.Instances, Seed: p.Seed + 6,
			LocalityLevel: s.Config().LocalityLevel,
			Workers:       p.Workers,
			BurnIn:        burn / p.Instances,
		})
		if err != nil {
			return nil, err
		}
		standard := gibbs.NewHogwild(g, p.Seed+6, p.Workers)
		standard.SetBurnIn(burn)
		checkpoints := []int{p.Epochs, p.Epochs * 2, p.Epochs * 4}
		var spTime, stTime time.Duration
		prev := 0
		for _, cp := range checkpoints {
			delta := cp - prev
			prev = cp
			t0 := time.Now()
			spatial.RunTotalEpochs(delta)
			spTime += time.Since(t0)
			t1 := time.Now()
			standard.RunEpochs(delta)
			stTime += time.Since(t1)
			spKL, err := stats.AvgKL(truth, spatial.Marginals(), isQuery)
			if err != nil {
				return nil, err
			}
			stKL, err := stats.AvgKL(truth, standard.Marginals(), isQuery)
			if err != nil {
				return nil, err
			}
			t.Add(kb.name, fmt.Sprint(cp),
				ms(float64(spTime.Microseconds())/1000), f3(spKL),
				ms(float64(stTime.Microseconds())/1000), f3(stKL))
		}
	}
	t.Notes = append(t.Notes,
		"paper shape: spatial Gibbs at least 49% (GWDB) / 41% (NYCCAS) lower divergence at matched time")
	return t, nil
}

// queryMask returns an include-function selecting query variables.
func queryMask(gres *grounding.Result) func(v int) bool {
	return func(v int) bool {
		return gres.Graph.Var(int32(v)).Evidence == -1
	}
}

// Ablation goes beyond the paper's figures: it separates the contribution
// of the two Sya components by crossing {spatial factors on/off} with
// {spatial sampler vs hogwild} on GWDB.
func Ablation(p Params) (*Table, error) {
	t := &Table{
		Title:  "Ablation: spatial factors × sampler (GWDB)",
		Header: []string{"Spatial factors", "Sampler", "F1", "Inference"},
	}
	k := NewGWDB(p)
	for _, engine := range []core.Engine{core.EngineSya, core.EngineDeepDive} {
		s, err := k.Build(engine, p.Seed)
		if err != nil {
			return nil, err
		}
		gres, err := s.Ground()
		if err != nil {
			return nil, err
		}
		g := gres.Graph
		for _, samplerName := range []string{"spatial", "hogwild"} {
			var sampler gibbs.Sampler
			if samplerName == "spatial" {
				sp, err := gibbs.NewSpatial(g, gibbs.SpatialOptions{
					Levels: p.PyramidLevels, Instances: p.Instances, Seed: p.Seed + 3,
					LocalityLevel: s.Config().LocalityLevel,
					Workers:       p.Workers,
				})
				if err != nil {
					return nil, err
				}
				sampler = sp
			} else {
				sampler = gibbs.NewHogwild(g, p.Seed+3, p.Workers)
			}
			t0 := time.Now()
			if _, err := sampler.RunTotal(context.Background(), p.Epochs); err != nil {
				return nil, err
			}
			dur := time.Since(t0)
			f1 := stats.Evaluate(k.examples(gres, sampler.Marginals()), stats.DefaultOptions()).F1
			factors := "on"
			if engine == core.EngineDeepDive {
				factors = "off"
			}
			t.Add(factors, samplerName, f3(f1), ms(float64(dur.Microseconds())/1000))
		}
	}
	t.Notes = append(t.Notes,
		"expected: spatial factors drive the quality gain; the sampler choice mainly moves latency/convergence")
	return t, nil
}
