package datagen

import (
	"math/rand"

	"repro/internal/geom"
	"repro/internal/storage"
)

// RasterCell is one synthetic NYCCAS raster cell: annual predicted NO2 and
// PM2.5 concentrations at a grid location, mirroring the DOHMH air
// pollution rasters the paper's NYCCAS system ingests.
type RasterCell struct {
	ID   int64
	Loc  geom.Point
	NO2  float64
	PM25 float64
	// TruthProb is the latent P(polluted).
	TruthProb  float64
	Polluted   bool
	IsEvidence bool
	// RandomLabel marks evidence whose label was randomized — the paper
	// notes NYCCAS has "a significant amount of its evidence data entries
	// that follow random assignments", which caps Sya's recall gain there
	// (Fig. 8(b)).
	RandomLabel bool
}

// RasterConfig parameterizes the NYCCAS generator.
type RasterConfig struct {
	// Side is the raster side length in cells (Side² cells; the paper's
	// NYCCAS factor graph has 34K variables ≈ 184²).
	Side int
	// Seed drives all randomness.
	Seed int64
	// Extent is the square side in km-like units (default 30, city-like).
	Extent float64
	// Bumps in the pollution field (default 10).
	Bumps int
	// EvidenceFrac is the fraction of cells with revealed labels
	// (default 0.4).
	EvidenceFrac float64
	// RandomEvidenceFrac randomizes this fraction of revealed labels
	// (default 0.35, planting the paper's NYCCAS recall property).
	RandomEvidenceFrac float64
}

func (c RasterConfig) withDefaults() RasterConfig {
	if c.Side == 0 {
		c.Side = 30
	}
	if c.Extent == 0 {
		c.Extent = 30
	}
	if c.Bumps == 0 {
		c.Bumps = 10
	}
	if c.EvidenceFrac == 0 {
		c.EvidenceFrac = 0.4
	}
	if c.RandomEvidenceFrac == 0 {
		c.RandomEvidenceFrac = 0.35
	}
	return c
}

// RasterData is the generated NYCCAS dataset.
type RasterData struct {
	Config RasterConfig
	Cells  []RasterCell
	Field  *Field
}

// Raster generates the dataset on a Side×Side grid.
func Raster(cfg RasterConfig) *RasterData {
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	field := NewField(rng, cfg.Bumps, cfg.Extent, cfg.Extent/5, 2.0)
	no2Field := NewField(rng, cfg.Bumps/2+1, cfg.Extent, cfg.Extent/6, 1.2)
	data := &RasterData{Config: cfg, Field: field}
	step := cfg.Extent / float64(cfg.Side)
	id := int64(1)
	for y := 0; y < cfg.Side; y++ {
		for x := 0; x < cfg.Side; x++ {
			p := geom.Pt((float64(x)+0.5)*step, (float64(y)+0.5)*step)
			truth := field.Prob(p)
			c := RasterCell{
				ID:        id,
				Loc:       p,
				TruthProb: truth,
				// Concentrations in index-like units: high where polluted,
				// but noisy enough that guideline thresholds alone are weak
				// predictors (as with the paper's real raster attributes).
				NO2:      clamp(27+7*truth+8*no2Field.Prob(p)+rng.NormFloat64()*6, 0, 80),
				PM25:     clamp(8+3.5*truth+rng.NormFloat64()*3, 0, 40),
				Polluted: rng.Float64() < truth,
			}
			if rng.Float64() < cfg.EvidenceFrac {
				c.IsEvidence = true
				if rng.Float64() < cfg.RandomEvidenceFrac {
					c.RandomLabel = true
					c.Polluted = rng.Intn(2) == 1
				}
			}
			data.Cells = append(data.Cells, c)
			id++
		}
	}
	return data
}

// Rows renders the raster as (Cell, CellEvidence) table rows.
func (d *RasterData) Rows() (cells, evidence []storage.Row) {
	for _, c := range d.Cells {
		cells = append(cells, storage.Row{
			storage.Int(c.ID), storage.Geom(c.Loc), storage.Float(c.NO2), storage.Float(c.PM25),
		})
		if c.IsEvidence {
			evidence = append(evidence, storage.Row{
				storage.Int(c.ID), storage.Geom(c.Loc), storage.Bool(c.Polluted),
			})
		}
	}
	return cells, evidence
}

// NYCCASProgram is the 4-inference-rule DDlog program that builds the
// NYCCAS knowledge base (Table I: 4 rules, 1 input relation): EPA-style
// concentration guidelines plus spatial propagation between raster cells.
const NYCCASProgram = `
# NYCCAS: air-pollution knowledge base (paper Section VI-A).
Cell (id bigint, location point, no2 double, pm25 double).
CellEvidence (id bigint, location point, polluted bool).

@spatial(exp)
Polluted? (id bigint, location point).

D1: Polluted(C, L) = NULL :- Cell(C, L, _, _).
D2: Polluted(C, L) = P :- CellEvidence(C, L, P).

# R1: NO2 above the guideline is polluted (prior).
R1: @weight(0.8)
Polluted(C, L) :- Cell(C, L, N, _) [N > 40].

# R2: PM2.5 above the guideline is polluted (prior).
R2: @weight(0.7)
Polluted(C, L) :- Cell(C, L, _, P) [P > 12].

# R3: pollution propagates to nearby cells.
R3: @weight(0.5)
Polluted(C1, L1) => Polluted(C2, L2) :-
    Cell(C1, L1, _, _), Cell(C2, L2, _, _) [distance(L1, L2) < 3].

# R4: clean on both measurements means not polluted (prior).
R4: @weight(0.6)
!Polluted(C, L) :- Cell(C, L, N, P) [N < 25, P < 7].
`
