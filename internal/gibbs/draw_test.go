package gibbs

import (
	"math"
	"testing"
)

// expDraw is the binary draw as it was before the guard: one uniform, one
// math.Exp of ±d, one comparison. sampleBinary must pick what it picks from
// the same PRNG state and leave the PRNG in the same state.
func expDraw(d float64, rng *prng) int32 {
	if d < 0 {
		if e0 := math.Exp(d); rng.Float64()*(e0+1) > e0 {
			return 1
		}
	} else if rng.Float64()*(1+math.Exp(-d)) > 1 {
		return 1
	}
	return 0
}

// normal draws from N(0, σ²) by Box–Muller.
func normal(rng *prng, sigma float64) float64 {
	u1 := 1 - rng.Float64() // (0, 1]: the log stays finite
	return sigma * math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*rng.Float64())
}

// checkDraw holds sampleBinary to expDraw at d from one PRNG state and
// reports whether the guard left the draw to the exp comparison.
func checkDraw(t *testing.T, d float64, state uint64) (fellBack bool) {
	t.Helper()
	guarded, ref := prng{state: state}, prng{state: state}
	x, y := sampleBinary(d, &guarded), expDraw(d, &ref)
	if x != y || guarded != ref {
		t.Fatalf("d = %v (%#016x), state %#x: guarded draw %d, exp draw %d (states %#x, %#x)",
			d, math.Float64bits(d), state, x, y, guarded.state, ref.state)
	}
	u := (&prng{state: state}).Float64()
	return guardedBinary(d, u) < 0
}

// TestGuardedDrawIsExpDraw: the guarded binary draw decides exactly as the
// exp comparison it replaces — on random (d, state) pairs, on uniforms packed
// around the threshold σ(d) and around the guard band's edges, at |d| = 30
// and its neighbours, and at ±0, subnormals, ±Inf and NaN (which keeps the exp
// draw's 0). For d ~ N(0, 8²) the guard leaves fewer than 1e−6 of the draws
// to math.Exp for want of margin.
func TestGuardedDrawIsExpDraw(t *testing.T) {
	src := taskRNG(29, 0x9a4d)
	n := 10_000_000
	if testing.Short() {
		n = 1_000_000
	}
	band := 0
	for i := 0; i < n; i++ {
		var d float64
		switch i % 4 {
		case 0: // the law the fallback share is quoted for
			d = normal(src, 8)
		case 1: // the guard's whole range and past it
			d = 70*src.Float64() - 35
		case 2: // near 0, where t̃ ≈ 1
			d = (src.Float64() - 0.5) * 1e-3
		default: // any float64
			d = math.Float64frombits(src.next())
		}
		if fell := checkDraw(t, d, src.next()); fell && i%4 == 0 && math.Abs(d) < 30 {
			band++
		}
	}
	t.Logf("guard band: %d of %d draws with d ~ N(0, 8²)", band, n/4)
	if share := float64(band) / float64(n/4); share >= 1e-6 {
		t.Errorf("guard band share %g of d ~ N(0, 8²) draws, want < 1e-6", share)
	}

	// Uniforms within ±1000 ulps of the threshold σ(d), where the guard must
	// fall back, and within ±50 ulps of points across the band's edges, where
	// the margin decides. Uniforms are m/2⁵³, so an ulp of the grid is 2⁻⁵³.
	inBand, decided := 0, 0
	for i := 0; i < 2000; i++ {
		d := 60*src.Float64() - 30
		sigma := 1 / (1 + math.Exp(-d))
		t0 := math.Exp(-math.Abs(d))
		w := (4e-9*t0 + 1e-14) / (1 + t0) // the band's half-width in u
		for _, c := range []float64{0, -1.25, -1, -0.875, 0.875, 1, 1.25} {
			m0 := int64((sigma + c*w) * (1 << 53))
			reach := int64(50)
			if c == 0 {
				reach = 1000
			}
			for m := max(m0-reach, 0); m <= min(m0+reach, 1<<53-1); m++ {
				if checkDraw(t, d, stateBefore(uint64(m))) {
					inBand++
				} else {
					decided++
				}
			}
		}
	}
	if inBand == 0 || decided == 0 {
		t.Errorf("threshold probes: %d fell back, %d decided; want both", inBand, decided)
	}

	var edges []float64
	for _, d := range []float64{30, 0, math.SmallestNonzeroFloat64, 0x1p-1030, 0x1p-1022, math.Inf(1), math.NaN()} {
		edges = append(edges, d, -d, math.Nextafter(d, 0), -math.Nextafter(d, 0),
			math.Nextafter(d, math.Inf(1)), -math.Nextafter(d, math.Inf(1)))
	}
	for _, d := range edges {
		sigma := 1 / (1 + math.Exp(-d))
		if math.IsNaN(sigma) {
			sigma = 0.5
		}
		m0 := int64(sigma * (1 << 53))
		for m := max(m0-1000, 0); m <= min(m0+1000, 1<<53-1); m++ {
			checkDraw(t, d, stateBefore(uint64(m)))
		}
		for i := 0; i < 1000; i++ {
			checkDraw(t, d, src.next())
		}
	}
	if x := sampleBinary(math.NaN(), src); x != 0 {
		t.Errorf("d = NaN drew %d, want the exp draw's 0", x)
	}
}

// TestExpNegErrorBound: t̃ = expNeg(a) is within the relative error
// guardedBinary's margin assumes, 6e−10, across [0, 30) — on a grid that puts
// 64 points in every table interval of width ln2/64 and on both sides of
// every interval boundary.
func TestExpNegErrorBound(t *testing.T) {
	worst := 0.0
	check := func(a float64) {
		if a < 0 || a >= 30 {
			return
		}
		want := math.Exp(-a)
		if e := math.Abs(expNeg(a)-want) / want; e > worst {
			worst = e
		}
	}
	const step = math.Ln2 / 64
	for i := 0; float64(i)*step < 30; i++ {
		b := float64(i) * step
		for j := 0; j < 64; j++ {
			check(b + float64(j)*step/64)
		}
		check(math.Nextafter(b, 0))
		check(math.Nextafter(b+step, 0))
	}
	t.Logf("max relative error of expNeg on [0, 30): %.3g", worst)
	if worst > 6e-10 {
		t.Errorf("max relative error %.3g > 6e-10", worst)
	}
}

// BenchmarkBinaryDraw times sampleBinary on d ~ N(0, 8²) and reports ns per
// draw, the share of draws the guard band leaves to math.Exp (|d| < 30) and
// the share that reaches math.Exp at all (the band plus |d| ≥ 30).
func BenchmarkBinaryDraw(b *testing.B) {
	src := taskRNG(29, 0xbe9c)
	var ds [4096]float64
	for i := range ds {
		ds[i] = normal(src, 8)
	}
	start := *src
	rng := start
	var ones int32
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ones += sampleBinary(ds[i&(len(ds)-1)], &rng)
	}
	b.StopTimer()
	rng = start
	band, viaExp := 0, 0
	for i := 0; i < b.N; i++ {
		d := ds[i&(len(ds)-1)]
		if guardedBinary(d, rng.Float64()) < 0 {
			viaExp++
			if math.Abs(d) < 30 {
				band++
			}
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/draw")
	b.ReportMetric(float64(band)/float64(b.N), "band/draw")
	b.ReportMetric(float64(viaExp)/float64(b.N), "exp/draw")
	if ones == 0 {
		b.Fatal("no draw was 1")
	}
}
