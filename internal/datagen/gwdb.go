package datagen

import (
	"math/rand"

	"repro/internal/geom"
	"repro/internal/storage"
)

// Well is one synthetic GWDB water well. Attribute semantics follow the
// paper's description of the Texas Ground Water Database: location, depth,
// and element concentrations (arsenic, fluoride, nitrate); the latent
// safety probability is the ground truth the experiments score against.
type Well struct {
	ID       int64
	Loc      geom.Point
	Arsenic  float64
	Fluoride float64
	Nitrate  float64
	Depth    float64
	Aquifer  int64
	// TruthProb is the latent P(safe) at the well's location.
	TruthProb float64
	// Safe is the Bernoulli(TruthProb) draw used as the evidence label.
	Safe bool
	// IsEvidence marks wells whose label is revealed to the system.
	IsEvidence bool
}

// WellsConfig parameterizes the GWDB generator.
type WellsConfig struct {
	// N is the number of wells (the paper's GWDB has 9,831).
	N int
	// Seed drives all randomness.
	Seed int64
	// Extent is the square side in miles-like units (Texas-like default
	// 600 when 0).
	Extent float64
	// Clusters of well locations (default 12).
	Clusters int
	// Bumps in the latent safety field (default 15).
	Bumps int
	// CorrelationLength is the bump width (default Extent/6).
	CorrelationLength float64
	// EvidenceFrac is the fraction of wells with revealed labels
	// (default 0.4).
	EvidenceFrac float64
	// RandomEvidenceFrac randomizes this fraction of the revealed labels
	// (0 for GWDB; the NYCCAS generator uses its analogue).
	RandomEvidenceFrac float64
	// Aquifers is the number of aquifer groups (default 8).
	Aquifers int
}

func (c WellsConfig) withDefaults() WellsConfig {
	if c.N == 0 {
		c.N = 1000
	}
	if c.Extent == 0 {
		c.Extent = 600
	}
	if c.Clusters == 0 {
		c.Clusters = 12
	}
	if c.Bumps == 0 {
		c.Bumps = 15
	}
	if c.CorrelationLength == 0 {
		c.CorrelationLength = c.Extent / 6
	}
	if c.EvidenceFrac == 0 {
		c.EvidenceFrac = 0.4
	}
	if c.Aquifers == 0 {
		c.Aquifers = 8
	}
	return c
}

// WellsData is the generated GWDB dataset.
type WellsData struct {
	Config WellsConfig
	Wells  []Well
	// SafetyField is the latent field (for diagnostics and truth lookup at
	// arbitrary points).
	SafetyField *Field
}

// Wells generates the dataset.
func Wells(cfg WellsConfig) *WellsData {
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	field := NewField(rng, cfg.Bumps, cfg.Extent, cfg.CorrelationLength, 2.2)
	pts := clusteredPoints(rng, cfg.N, cfg.Clusters, cfg.Extent)
	// Secondary fields for fluoride/nitrate: correlated with safety but
	// with their own structure.
	fluorideField := NewField(rng, cfg.Bumps/2+1, cfg.Extent, cfg.CorrelationLength*0.8, 1.5)
	nitrateField := NewField(rng, cfg.Bumps/2+1, cfg.Extent, cfg.CorrelationLength*1.2, 1.5)
	data := &WellsData{Config: cfg, SafetyField: field}
	for i, p := range pts {
		truth := field.Prob(p)
		unsafe := 1 - truth
		w := Well{
			ID:        int64(i + 1),
			Loc:       p,
			TruthProb: truth,
			// Concentrations rise where safety falls, but only weakly: like
			// the paper's real attributes, thresholds alone are poor
			// predictors — the spatial correlation of the labels carries
			// most of the signal.
			Arsenic:  clamp(0.13+0.1*unsafe+0.08*(1-fluorideField.Prob(p))+rng.NormFloat64()*0.11, 0, 1),
			Fluoride: clamp(0.18+0.08*unsafe+0.15*(1-fluorideField.Prob(p))+rng.NormFloat64()*0.13, 0, 1),
			Nitrate:  clamp(0.18+0.07*unsafe+0.15*(1-nitrateField.Prob(p))+rng.NormFloat64()*0.13, 0, 1),
			Depth:    clamp(200+90*truth+rng.NormFloat64()*140, 5, 1500),
			Aquifer:  int64(rng.Intn(cfg.Aquifers) + 1),
			Safe:     rng.Float64() < truth,
		}
		if rng.Float64() < cfg.EvidenceFrac {
			w.IsEvidence = true
			if cfg.RandomEvidenceFrac > 0 && rng.Float64() < cfg.RandomEvidenceFrac {
				w.Safe = rng.Intn(2) == 1
			}
		}
		data.Wells = append(data.Wells, w)
	}
	return data
}

// Rows renders the wells as (Well, WellEvidence) table rows.
func (d *WellsData) Rows() (wells, evidence []storage.Row) {
	for _, w := range d.Wells {
		wells = append(wells, storage.Row{
			storage.Int(w.ID), storage.Geom(w.Loc),
			storage.Float(w.Arsenic), storage.Float(w.Fluoride), storage.Float(w.Nitrate),
			storage.Float(w.Depth), storage.Int(w.Aquifer),
		})
		if w.IsEvidence {
			evidence = append(evidence, storage.Row{
				storage.Int(w.ID), storage.Geom(w.Loc), storage.Bool(w.Safe),
			})
		}
	}
	return wells, evidence
}

// GWDBProgram is the 11-inference-rule DDlog program that builds the GWDB
// knowledge base (the paper's Table I lists 11 rules over 1 input
// relation). R1 is exactly the Fig. 7 rule; the others encode further EPA
// threshold and proximity heuristics over the same attributes.
const GWDBProgram = `
# GWDB: water-well safety knowledge base (paper Section VI-A).
Well (id bigint, location point, arsenic double, fluoride double, nitrate double, depth double, aquifer bigint).
WellEvidence (id bigint, location point, safe bool).

@spatial(exp)
IsSafe? (id bigint, location point).

D1: IsSafe(W, L) = NULL :- Well(W, L, _, _, _, _, _).
D2: IsSafe(W, L) = S :- WellEvidence(W, L, S).

# R1 (Fig. 7): nearby low-arsenic wells support each other's safety.
R1: @weight(0.7)
IsSafe(W1, L1) => IsSafe(W2, L2) :-
    Well(W1, L1, A1, _, _, _, _), Well(W2, L2, A2, _, _, _, _)
    [distance(L1, L2) < 50, A1 < 0.2, A2 < 0.2].

# R2: nearby low-fluoride wells support each other.
R2: @weight(0.5)
IsSafe(W1, L1) => IsSafe(W2, L2) :-
    Well(W1, L1, _, F1, _, _, _), Well(W2, L2, _, F2, _, _, _)
    [distance(L1, L2) < 40, F1 < 0.3, F2 < 0.3].

# R3: nearby low-nitrate wells support each other.
R3: @weight(0.45)
IsSafe(W1, L1) => IsSafe(W2, L2) :-
    Well(W1, L1, _, _, N1, _, _), Well(W2, L2, _, _, N2, _, _)
    [distance(L1, L2) < 40, N1 < 0.3, N2 < 0.3].

# R4: a dangerous well makes very close wells dangerous too.
R4: @weight(0.8)
!IsSafe(W1, L1) => !IsSafe(W2, L2) :-
    Well(W1, L1, A1, _, _, _, _), Well(W2, L2, A2, _, _, _, _)
    [distance(L1, L2) < 15, A1 > 0.3, A2 > 0.3].

# R5: deep wells tend to be safe (prior).
R5: @weight(0.4)
IsSafe(W, L) :- Well(W, L, _, _, _, D, _) [D > 300].

# R6: very shallow wells tend to be unsafe (prior).
R6: @weight(0.5)
!IsSafe(W, L) :- Well(W, L, _, _, _, D, _) [D < 60].

# R7: arsenic above the EPA-style threshold is dangerous (prior).
R7: @weight(0.9)
!IsSafe(W, L) :- Well(W, L, A, _, _, _, _) [A > 0.35].

# R8: everything low is safe (prior).
R8: @weight(0.6)
IsSafe(W, L) :- Well(W, L, A, F, N, _, _) [A < 0.15, F < 0.25, N < 0.25].

# R9: combined fluoride+nitrate contamination is dangerous (prior).
R9: @weight(0.55)
!IsSafe(W, L) :- Well(W, L, _, F, N, _, _) [F > 0.45, N > 0.45].

# R10: same-aquifer wells within range share safety.
R10: @weight(0.35)
IsSafe(W1, L1) => IsSafe(W2, L2) :-
    Well(W1, L1, _, _, _, _, Q), Well(W2, L2, _, _, _, _, Q)
    [distance(L1, L2) < 80].

# R11: immediate neighbours strongly agree.
R11: @weight(0.9)
IsSafe(W1, L1) => IsSafe(W2, L2) :-
    Well(W1, L1, _, _, _, _, _), Well(W2, L2, _, _, _, _, _)
    [distance(L1, L2) < 8].
`

// GWDBCategoricalProgram is the variant used by the pruning-threshold
// experiment (Fig. 11): the safety variable becomes a categorical risk
// level with h domain values derived from binned truth probabilities.
const GWDBCategoricalProgram = `
Well (id bigint, location point, arsenic double, fluoride double, nitrate double, depth double, aquifer bigint).
LevelEvidence (id bigint, location point, level bigint).

@spatial(exp)
RiskLevel? (id bigint, location point) categorical(10).

D1: RiskLevel(W, L) = NULL :- Well(W, L, _, _, _, _, _).
D2: RiskLevel(W, L) = V :- LevelEvidence(W, L, V).

R1: @weight(0.6)
RiskLevel(W1, L1) => RiskLevel(W2, L2) :-
    Well(W1, L1, _, _, _, _, _), Well(W2, L2, _, _, _, _, _)
    [distance(L1, L2) < 40].
`

// Level quantizes a truth probability into h levels (0..h-1).
func Level(truth float64, h int) int64 {
	lvl := int64(truth * float64(h))
	if lvl >= int64(h) {
		lvl = int64(h) - 1
	}
	return lvl
}

// LevelRows renders categorical evidence rows for the wells.
func (d *WellsData) LevelRows(h int) []storage.Row {
	var out []storage.Row
	for _, w := range d.Wells {
		if !w.IsEvidence {
			continue
		}
		out = append(out, storage.Row{
			storage.Int(w.ID), storage.Geom(w.Loc), storage.Int(Level(w.TruthProb, h)),
		})
	}
	return out
}
