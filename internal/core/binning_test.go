package core

import (
	"math"
	"math/rand"
	"testing"
)

// fitEqualWidth is the equal-width fit of data on `workers` goroutines:
// ScanFitStats, then the build step.
func fitEqualWidth(data []float64, k, workers int) *equalWidthBinner {
	return ScanFitStats(data, Options{Strategy: EqualWidth, Workers: workers}).equalWidth(k)
}

// fitLogScale is the log-scale fit of data on `workers` goroutines.
func fitLogScale(data []float64, k, workers int) *logScaleBinner {
	return ScanFitStats(data, Options{Strategy: LogScale, Workers: workers}).logScale(k)
}

func TestEqualWidthBinnerCenters(t *testing.T) {
	data := []float64{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	b := fitEqualWidth(data, 5, 1)
	reps := b.Representatives()
	if len(reps) != 5 {
		t.Fatalf("reps = %v", reps)
	}
	// Bins over [0,10] width 2: centers 1,3,5,7,9.
	want := []float64{1, 3, 5, 7, 9}
	for i := range want {
		if math.Abs(reps[i]-want[i]) > 1e-12 {
			t.Errorf("rep %d = %v, want %v", i, reps[i], want[i])
		}
	}
	if b.Lookup(0) != 0 || b.Lookup(1.9) != 0 {
		t.Error("low bin lookup wrong")
	}
	if b.Lookup(10) != 4 || b.Lookup(9.1) != 4 {
		t.Error("high bin lookup wrong")
	}
	if b.Lookup(5.0) != 2 {
		t.Errorf("Lookup(5) = %d", b.Lookup(5.0))
	}
	// Out-of-range values clamp rather than panic.
	if b.Lookup(-100) != 0 || b.Lookup(100) != 4 {
		t.Error("clamping failed")
	}
}

func TestEqualWidthBinnerConstant(t *testing.T) {
	b := fitEqualWidth([]float64{2.5, 2.5}, 7, 1)
	if len(b.Representatives()) != 1 || b.Representatives()[0] != 2.5 {
		t.Errorf("constant reps = %v", b.Representatives())
	}
	if b.Lookup(2.5) != 0 {
		t.Error("constant lookup != 0")
	}
}

func TestEqualWidthPerfectWhenWidthUnderTwiceE(t *testing.T) {
	// Paper §II-C1: if bin width W < 2E, every ratio is within E of its
	// bin center, so nothing is incompressible.
	rng := rand.New(rand.NewSource(1))
	n := 5000
	prev := make([]float64, n)
	cur := make([]float64, n)
	for i := range prev {
		prev[i] = 100.0
		// Ratios uniform in [0.001, 0.001+0.5), range 0.5; with B=9
		// (511 bins) width ≈ 0.00098 < 2E=0.002.
		cur[i] = prev[i] * (1 + 0.001 + rng.Float64()*0.499)
	}
	enc, err := Encode(prev, cur, Options{ErrorBound: 0.001, IndexBits: 9, Strategy: EqualWidth})
	if err != nil {
		t.Fatal(err)
	}
	if g := enc.Gamma(); g != 0 {
		t.Errorf("gamma = %v, want 0 when W < 2E", g)
	}
}

func TestEqualWidthPoorOnWideRange(t *testing.T) {
	// Paper §II-C1's weakness: a huge range with few bins makes the
	// bin width >> 2E and most points incompressible. With B=2 (3
	// bins) over ratios spanning [0.001, 10], almost everything fails.
	rng := rand.New(rand.NewSource(2))
	n := 2000
	prev := make([]float64, n)
	cur := make([]float64, n)
	for i := range prev {
		prev[i] = 50
		cur[i] = prev[i] * (1 + 0.001 + rng.Float64()*10)
	}
	enc, err := Encode(prev, cur, Options{ErrorBound: 0.001, IndexBits: 2, Strategy: EqualWidth})
	if err != nil {
		t.Fatal(err)
	}
	if g := enc.Gamma(); g < 0.9 {
		t.Errorf("gamma = %v, expected equal-width to fail on wide-range data", g)
	}
}

func TestLogScaleBeatsEqualWidthOnSkewedData(t *testing.T) {
	// Paper §II-C2 motivation: log-scale covers a large dynamic range.
	// Ratios log-uniform over [0.001, 10]: log-scale should leave far
	// fewer incompressible points than equal-width at the same B.
	rng := rand.New(rand.NewSource(3))
	n := 20000
	prev := make([]float64, n)
	cur := make([]float64, n)
	for i := range prev {
		prev[i] = 10
		exp := rng.Float64() * math.Log(10/0.001)
		cur[i] = prev[i] * (1 + 0.001*math.Exp(exp))
	}
	optEW := Options{ErrorBound: 0.001, IndexBits: 8, Strategy: EqualWidth}
	optLS := Options{ErrorBound: 0.001, IndexBits: 8, Strategy: LogScale}
	ew, err := Encode(prev, cur, optEW)
	if err != nil {
		t.Fatal(err)
	}
	ls, err := Encode(prev, cur, optLS)
	if err != nil {
		t.Fatal(err)
	}
	if ls.Gamma() >= ew.Gamma() {
		t.Errorf("log-scale gamma %v not better than equal-width %v on log-uniform ratios", ls.Gamma(), ew.Gamma())
	}
}

func TestClusteringBeatsBinningOnMultiModalData(t *testing.T) {
	// Paper §II-C3 motivation: multiple dense areas spread unevenly.
	// Ratios concentrated at a few modes: clustering should capture
	// them with near-zero incompressible ratio at small B.
	rng := rand.New(rand.NewSource(4))
	modes := []float64{0.002, 0.04, 0.75, -0.3, 9.5}
	n := 10000
	prev := make([]float64, n)
	cur := make([]float64, n)
	for i := range prev {
		prev[i] = 5
		m := modes[rng.Intn(len(modes))]
		cur[i] = prev[i] * (1 + m + rng.NormFloat64()*1e-5)
	}
	var gammas [3]float64
	for si, s := range Strategies {
		enc, err := Encode(prev, cur, Options{ErrorBound: 0.001, IndexBits: 3, Strategy: s})
		if err != nil {
			t.Fatal(err)
		}
		gammas[si] = enc.Gamma()
	}
	if gammas[2] > 0.01 {
		t.Errorf("clustering gamma = %v on 5-mode data with 7 clusters", gammas[2])
	}
	if gammas[2] > gammas[0] {
		t.Errorf("clustering gamma %v worse than equal-width %v", gammas[2], gammas[0])
	}
}

func TestLogScaleBinnerSignHandling(t *testing.T) {
	data := []float64{-0.5, -0.01, 0.02, 0.3, 0.004, -0.002}
	b := fitLogScale(data, 10, 1)
	reps := b.Representatives()
	if len(reps) == 0 || len(reps) > 10 {
		t.Fatalf("reps = %v", reps)
	}
	for _, d := range data {
		g := b.Lookup(d)
		if g < 0 || g >= len(reps) {
			t.Fatalf("Lookup(%v) = %d out of range", d, g)
		}
		if d < 0 && reps[g] >= 0 {
			t.Errorf("negative ratio %v assigned positive rep %v", d, reps[g])
		}
		if d > 0 && reps[g] <= 0 {
			t.Errorf("positive ratio %v assigned negative rep %v", d, reps[g])
		}
	}
}

func TestLogScaleBinnerOneSided(t *testing.T) {
	data := []float64{0.001, 0.01, 0.1, 1}
	b := fitLogScale(data, 8, 1)
	for _, r := range b.Representatives() {
		if r <= 0 {
			t.Errorf("positive-only data produced rep %v", r)
		}
	}
	neg := []float64{-0.001, -0.01}
	b = fitLogScale(neg, 8, 1)
	for _, r := range b.Representatives() {
		if r >= 0 {
			t.Errorf("negative-only data produced rep %v", r)
		}
	}
}

func TestLogScaleBinnerZeroFallback(t *testing.T) {
	// Zero ratios only appear via the DisableZeroIndex ablation; they
	// must map to the nearest representative rather than crash.
	b := fitLogScale([]float64{0.001, 0.5}, 4, 1)
	g := b.Lookup(0)
	reps := b.Representatives()
	if g < 0 || g >= len(reps) {
		t.Fatalf("Lookup(0) = %d", g)
	}
	// Nearest rep to 0 must be the smallest-magnitude one.
	best := math.Inf(1)
	for _, r := range reps {
		if a := math.Abs(r); a < best {
			best = a
		}
	}
	if math.Abs(reps[g]) != best {
		t.Errorf("zero mapped to rep %v, nearest is %v", reps[g], best)
	}
}

func TestLogScaleAllZeros(t *testing.T) {
	b := fitLogScale([]float64{0, 0}, 4, 1)
	if len(b.Representatives()) != 1 || b.Representatives()[0] != 0 {
		t.Errorf("all-zero reps = %v", b.Representatives())
	}
	if b.Lookup(0) != 0 {
		t.Error("all-zero lookup failed")
	}
}

func TestSplitBins(t *testing.T) {
	cases := []struct {
		k, nNeg, nPos, wantNeg, wantPos int
	}{
		{10, 0, 100, 0, 10},
		{10, 100, 0, 10, 0},
		{10, 50, 50, 5, 5},
		{10, 1, 999, 1, 9}, // tiny side still gets one bin
		{10, 999, 1, 9, 1},
		{2, 1, 1, 1, 1},
		{10, 0, 0, 0, 0},
	}
	for _, c := range cases {
		gn, gp := splitBins(c.k, c.nNeg, c.nPos)
		if gn != c.wantNeg || gp != c.wantPos {
			t.Errorf("splitBins(%d,%d,%d) = %d,%d want %d,%d", c.k, c.nNeg, c.nPos, gn, gp, c.wantNeg, c.wantPos)
		}
	}
}

func TestClusterBinnerNearestAssignment(t *testing.T) {
	data := []float64{0.01, 0.011, 0.5, 0.51, -0.2}
	b, err := fitClustering(data, 3, Options{ErrorBound: 0.001, IndexBits: 2, Strategy: Clustering, KMeansMaxIter: 50})
	if err != nil {
		t.Fatal(err)
	}
	reps := b.Representatives()
	for _, d := range data {
		g := b.Lookup(d)
		for _, r := range reps {
			if math.Abs(r-d) < math.Abs(reps[g]-d)-1e-12 {
				t.Errorf("Lookup(%v) = rep %v but %v is nearer", d, reps[g], r)
			}
		}
	}
}

func TestClusteringKCappedByPointCount(t *testing.T) {
	// Fewer points than 2^B-1 clusters must not break.
	prev := []float64{1, 2, 3}
	cur := []float64{1.5, 2.2, 3.9}
	enc, err := Encode(prev, cur, Options{ErrorBound: 0.001, IndexBits: 8, Strategy: Clustering})
	if err != nil {
		t.Fatal(err)
	}
	if len(enc.BinRatios) > 3 {
		t.Errorf("bin table %d entries for 3 points", len(enc.BinRatios))
	}
	if g := enc.Gamma(); g != 0 {
		t.Errorf("gamma = %v: each point should get its own cluster", g)
	}
}

func TestFitBinnerUnknownStrategy(t *testing.T) {
	_, err := fitBinner([]float64{1}, Options{ErrorBound: 0.001, IndexBits: 4, Strategy: Strategy(9)}, nil)
	if err == nil {
		t.Error("unknown strategy accepted")
	}
}

func TestBinnersCoverAllInputs(t *testing.T) {
	// Every binner must return an in-range group for every fitted
	// value and for values outside the fitted range.
	rng := rand.New(rand.NewSource(5))
	data := make([]float64, 500)
	for i := range data {
		data[i] = rng.NormFloat64()
		if data[i] == 0 {
			data[i] = 0.1
		}
	}
	probes := append(append([]float64{}, data...), -1e6, 1e6, 0)
	for _, s := range Strategies {
		b, err := fitBinner(data, Options{ErrorBound: 0.001, IndexBits: 6, Strategy: s, KMeansMaxIter: 20}, new(fitScratch))
		if err != nil {
			t.Fatalf("%v: %v", s, err)
		}
		n := len(b.Representatives())
		for _, p := range probes {
			if g := b.Lookup(p); g < 0 || g >= n {
				t.Fatalf("%v: Lookup(%v) = %d out of [0,%d)", s, p, g, n)
			}
		}
	}
}

// TestOverflowingRangeGivesFiniteTable pins that finite input gives a
// finite table: with prev = 1 and cur alternating +1e308 and -1e308,
// every third point 1.5, the ratio range's width hi-lo overflows. Every
// strategy, at every worker count and on both the small and the
// sketched clustering path, must encode without a panic, learn only
// finite representatives, and decode every point within E·|prev|.
func TestOverflowingRangeGivesFiniteTable(t *testing.T) {
	for _, n := range []int{300, 40_000} {
		prev := make([]float64, n)
		cur := make([]float64, n)
		for j := range cur {
			prev[j] = 1
			switch {
			case j%3 == 2:
				cur[j] = 1.5
			case j%2 == 0:
				cur[j] = 1e308
			default:
				cur[j] = -1e308
			}
		}
		for _, s := range []Strategy{EqualWidth, LogScale, Clustering, EqualFrequency} {
			for _, workers := range []int{1, 2, 16} {
				opt := Options{ErrorBound: 0.001, IndexBits: 8, Strategy: s, Workers: workers}
				enc, err := Encode(prev, cur, opt)
				if err != nil {
					t.Fatalf("n %d %v workers %d: %v", n, s, workers, err)
				}
				for g, r := range enc.BinRatios {
					if math.IsNaN(r) || math.IsInf(r, 0) {
						t.Fatalf("n %d %v workers %d: representative %d of %d is %v", n, s, workers, g, len(enc.BinRatios), r)
					}
				}
				got, err := enc.Decode(prev)
				if err != nil {
					t.Fatal(err)
				}
				for j := range got {
					if !(math.Abs(got[j]-cur[j]) <= opt.ErrorBound*math.Abs(prev[j])) {
						t.Fatalf("n %d %v workers %d: point %d decodes to %v, encoded %v", n, s, workers, j, got[j], cur[j])
					}
				}
			}
		}
	}
}

// TestOverflowingRangeUniformSeedsFinite is
// TestOverflowingRangeGivesFiniteTable's input under uniform seeding:
// evenly spaced seeds over a range whose width overflows must be
// finite, or a seed no ratio reaches stays ±Inf in the table.
func TestOverflowingRangeUniformSeedsFinite(t *testing.T) {
	for _, n := range []int{300, 40_000} {
		prev := make([]float64, n)
		cur := make([]float64, n)
		for j := range cur {
			prev[j], cur[j] = 1, 1.5
			if j%3 != 2 {
				cur[j] = math.Copysign(1e308, 0.5-float64(j%2))
			}
		}
		for _, workers := range []int{1, 4} {
			opt := Options{ErrorBound: 0.001, IndexBits: 8, Strategy: Clustering, UniformSeeding: true, Workers: workers}
			enc, err := Encode(prev, cur, opt)
			if err != nil {
				t.Fatalf("n %d workers %d: %v", n, workers, err)
			}
			for g, r := range enc.BinRatios {
				if math.IsNaN(r) || math.IsInf(r, 0) {
					t.Fatalf("n %d workers %d: representative %d of %d is %v", n, workers, g, len(enc.BinRatios), r)
				}
			}
			if g := enc.Gamma(); g > 0.7 {
				t.Errorf("n %d workers %d: γ %v, want the 1.5 points compressed", n, workers, g)
			}
		}
	}
}
