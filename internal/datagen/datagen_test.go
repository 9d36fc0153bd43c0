package datagen

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/ddlog"
	"repro/internal/geom"
	"repro/internal/storage"
)

func TestFieldSmoothness(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	f := NewField(rng, 10, 100, 20, 2)
	// Nearby points have close values; far points often differ.
	var nearDiff, farDiff float64
	n := 200
	for i := 0; i < n; i++ {
		p := geom.Pt(rng.Float64()*100, rng.Float64()*100)
		q := geom.Pt(clamp(p.X+1, 0, 100), clamp(p.Y+1, 0, 100))
		r := geom.Pt(rng.Float64()*100, rng.Float64()*100)
		nearDiff += math.Abs(f.Prob(p) - f.Prob(q))
		farDiff += math.Abs(f.Prob(p) - f.Prob(r))
	}
	if nearDiff >= farDiff {
		t.Errorf("field not spatially smooth: near %v >= far %v", nearDiff, farDiff)
	}
	// Probabilities in (0, 1).
	for i := 0; i < 100; i++ {
		p := f.Prob(geom.Pt(rng.Float64()*100, rng.Float64()*100))
		if p <= 0 || p >= 1 {
			t.Fatalf("Prob out of range: %v", p)
		}
	}
}

func TestWellsDeterministic(t *testing.T) {
	a := Wells(WellsConfig{N: 100, Seed: 42})
	b := Wells(WellsConfig{N: 100, Seed: 42})
	if len(a.Wells) != 100 || len(b.Wells) != 100 {
		t.Fatalf("lens = %d %d", len(a.Wells), len(b.Wells))
	}
	for i := range a.Wells {
		if a.Wells[i] != b.Wells[i] {
			t.Fatalf("well %d differs", i)
		}
	}
	c := Wells(WellsConfig{N: 100, Seed: 43})
	same := 0
	for i := range a.Wells {
		if a.Wells[i].Loc == c.Wells[i].Loc {
			same++
		}
	}
	if same == 100 {
		t.Error("different seeds produced identical data")
	}
}

func TestWellsSpatialAutocorrelation(t *testing.T) {
	d := Wells(WellsConfig{N: 500, Seed: 7})
	// Truth probabilities of nearby wells agree more than random pairs.
	var nearDiff, randDiff float64
	nearN, randN := 0, 0
	for i := 0; i < len(d.Wells); i++ {
		for j := i + 1; j < len(d.Wells) && j < i+20; j++ {
			dd := geom.Distance(d.Wells[i].Loc, d.Wells[j].Loc)
			diff := math.Abs(d.Wells[i].TruthProb - d.Wells[j].TruthProb)
			if dd < 30 {
				nearDiff += diff
				nearN++
			} else if dd > 200 {
				randDiff += diff
				randN++
			}
		}
	}
	if nearN == 0 || randN == 0 {
		t.Skip("not enough pairs")
	}
	if nearDiff/float64(nearN) >= randDiff/float64(randN) {
		t.Errorf("no autocorrelation: near %v vs far %v", nearDiff/float64(nearN), randDiff/float64(randN))
	}
}

func TestWellsEvidenceFraction(t *testing.T) {
	d := Wells(WellsConfig{N: 2000, Seed: 3, EvidenceFrac: 0.4})
	ev := 0
	for _, w := range d.Wells {
		if w.IsEvidence {
			ev++
		}
	}
	frac := float64(ev) / 2000
	if frac < 0.33 || frac > 0.47 {
		t.Errorf("evidence fraction = %v", frac)
	}
}

func TestWellsArsenicTracksDanger(t *testing.T) {
	d := Wells(WellsConfig{N: 1000, Seed: 5})
	var safeArsenic, unsafeArsenic float64
	var sn, un int
	for _, w := range d.Wells {
		if w.TruthProb > 0.7 {
			safeArsenic += w.Arsenic
			sn++
		} else if w.TruthProb < 0.3 {
			unsafeArsenic += w.Arsenic
			un++
		}
	}
	if sn == 0 || un == 0 {
		t.Skip("degenerate field")
	}
	if safeArsenic/float64(sn) >= unsafeArsenic/float64(un) {
		t.Error("arsenic does not track danger")
	}
}

func TestWellRowsShape(t *testing.T) {
	d := Wells(WellsConfig{N: 50, Seed: 1})
	wells, ev := d.Rows()
	if len(wells) != 50 {
		t.Fatalf("well rows = %d", len(wells))
	}
	if len(ev) == 0 || len(ev) >= 50 {
		t.Fatalf("evidence rows = %d", len(ev))
	}
	prog, err := ddlog.ParseAndValidate(GWDBProgram)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		rel string
		row []storage.Value
	}{{"Well", wells[0]}, {"WellEvidence", ev[0]}} {
		decl, ok := prog.Relation(c.rel)
		if !ok {
			t.Fatalf("GWDBProgram declares no %s", c.rel)
		}
		if len(c.row) != len(decl.Cols) {
			t.Errorf("%s row width = %d, declared %d", c.rel, len(c.row), len(decl.Cols))
		}
		for i, v := range c.row {
			if !v.IsNull() && v.Kind != decl.Cols[i].Type.Kind {
				t.Errorf("%s.%s holds a %v, declared %v", c.rel, decl.Cols[i].Name, v.Kind, decl.Cols[i].Type.Kind)
			}
		}
	}
}

func TestLevelQuantization(t *testing.T) {
	if Level(0, 10) != 0 || Level(0.999, 10) != 9 || Level(1, 10) != 9 {
		t.Error("level bounds wrong")
	}
	if Level(0.55, 10) != 5 {
		t.Errorf("Level(0.55) = %d", Level(0.55, 10))
	}
	d := Wells(WellsConfig{N: 100, Seed: 2})
	rows := d.LevelRows(10)
	for _, r := range rows {
		lvl, _ := r[2].AsInt()
		if lvl < 0 || lvl > 9 {
			t.Fatalf("level %d out of range", lvl)
		}
	}
}

func TestRasterShapeAndRandomEvidence(t *testing.T) {
	d := Raster(RasterConfig{Side: 20, Seed: 11})
	if len(d.Cells) != 400 {
		t.Fatalf("cells = %d", len(d.Cells))
	}
	var evidence, random int
	for _, c := range d.Cells {
		if c.IsEvidence {
			evidence++
			if c.RandomLabel {
				random++
			}
		}
	}
	if evidence == 0 {
		t.Fatal("no evidence cells")
	}
	frac := float64(random) / float64(evidence)
	if frac < 0.2 || frac > 0.5 {
		t.Errorf("random evidence fraction = %v, want ≈ 0.35", frac)
	}
	cells, ev := d.Rows()
	if len(cells) != 400 || len(ev) != evidence {
		t.Errorf("rows = %d, %d", len(cells), len(ev))
	}
}

func TestRasterPollutionTracksTruth(t *testing.T) {
	d := Raster(RasterConfig{Side: 25, Seed: 13})
	var hi, lo float64
	var hn, ln int
	for _, c := range d.Cells {
		if c.TruthProb > 0.7 {
			hi += c.NO2
			hn++
		} else if c.TruthProb < 0.3 {
			lo += c.NO2
			ln++
		}
	}
	if hn == 0 || ln == 0 {
		t.Skip("degenerate field")
	}
	if hi/float64(hn) <= lo/float64(ln) {
		t.Error("NO2 does not track pollution truth")
	}
}

func TestProgramsCompile(t *testing.T) {
	for name, src := range map[string]string{
		"gwdb":     GWDBProgram,
		"gwdb-cat": GWDBCategoricalProgram,
		"nyccas":   NYCCASProgram,
		"ebola":    EbolaProgram,
	} {
		p, err := ddlog.ParseAndValidate(src)
		if err != nil {
			t.Errorf("%s does not compile: %v", name, err)
			continue
		}
		switch name {
		case "gwdb":
			if len(p.Rules) != 11 {
				t.Errorf("gwdb rules = %d, want 11 (Table I)", len(p.Rules))
			}
		case "nyccas":
			if len(p.Rules) != 4 {
				t.Errorf("nyccas rules = %d, want 4 (Table I)", len(p.Rules))
			}
		}
	}
}

func TestEbolaCountiesDistances(t *testing.T) {
	cs := EbolaCounties()
	if len(cs) != 4 {
		t.Fatalf("counties = %d", len(cs))
	}
	d := func(i, j int) float64 { return geom.HaversineMiles.Dist(cs[i].Loc, cs[j].Loc) }
	// Paper narrative: Margibi much closer than Bong; Gbarpolu just over
	// the 150-mile threshold ("only 10 miles more").
	if !(d(0, 1) < 50) {
		t.Errorf("Montserrado-Margibi = %.0f mi", d(0, 1))
	}
	if !(d(0, 2) > 80 && d(0, 2) < 150) {
		t.Errorf("Montserrado-Bong = %.0f mi", d(0, 2))
	}
	if !(d(0, 3) > 150 && d(0, 3) < 170) {
		t.Errorf("Montserrado-Gbarpolu = %.0f mi", d(0, 3))
	}
	// Only Montserrado is evidence.
	ev := 0
	for _, c := range cs {
		if c.IsEvidence {
			ev++
		}
	}
	if ev != 1 || !cs[0].IsEvidence {
		t.Error("evidence flags wrong")
	}
	// Paper scores land inside the truth ranges.
	sya := []float64{0.76, 0.53, 0.22}
	for i, s := range sya {
		if !cs[i+1].Truth.Contains(s, 0) {
			t.Errorf("%s: Sya score %v outside truth %v", cs[i+1].Name, s, cs[i+1].Truth)
		}
	}
}
