package core

import (
	"errors"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"numarck/internal/kmeans"
)

// fitPair builds a transition of n points whose table input holds every
// point: each ratio is at least E = 0.001 in magnitude, mostly near it
// with a wide tail, like a smooth simulation step. With negZeros, every
// 7th point has a negative prev and an unchanged value, so its ratio is
// (c-p)/p = +0/p = −0.
func fitPair(n int, seed int64, negZeros bool) (prev, cur []float64) {
	rng := rand.New(rand.NewSource(seed))
	prev = make([]float64, n)
	cur = make([]float64, n)
	for i := range prev {
		prev[i] = 1 + 9*rng.Float64()
		if i%3 == 0 {
			prev[i] = -prev[i]
		}
		d := 0.001 + math.Abs(0.004*rng.NormFloat64())
		if rng.Intn(200) == 0 {
			d += math.Abs(0.3 * rng.NormFloat64())
		}
		if rng.Intn(2) == 0 {
			d = -d
		}
		cur[i] = prev[i] * (1 + d)
		if negZeros && i%7 == 0 {
			prev[i] = -math.Abs(prev[i])
			cur[i] = prev[i]
		}
	}
	return prev, cur
}

// TestFitWorkerIndependence pins that the learned table does not depend
// on how many goroutines learned it: table learning runs on the run's
// workers (Options.Workers, or the driver's when it is 0), splitting the
// table input over fixed ranges whose results merge in range order. The
// sizes straddle the clustering sketch's threshold (just above it) and
// give the range loop a ragged last range. The DisableZeroIndex case
// feeds −0 ratios into the clustering sketch, whose merge skips the
// cells a range left untouched on the grounds that a cell sum is never
// −0.
func TestFitWorkerIndependence(t *testing.T) {
	for _, n := range []int{2*sketchBins(255) + 1, 8*statRangePoints + 17} {
		for _, negZeros := range []bool{false, true} {
			prev, cur := fitPair(n, int64(n), negZeros)
			for _, s := range append(Strategies, EqualFrequency) {
				opt := defaultOpts(s)
				opt.DisableZeroIndex = negZeros
				if ti, err := TableInput(prev, cur, opt); err != nil || len(ti) != n {
					t.Fatalf("table input of %d points for n=%d (%v)", len(ti), n, err)
				} else if negZeros && !math.Signbit(ti[0]) {
					t.Fatalf("table input[0] = %v, want −0", ti[0])
				}
				var ref *Encoded
				for _, w := range []int{0, 1, 2, 5, 16} {
					opt.Workers = w
					e, err := Encode(prev, cur, opt)
					if err != nil {
						t.Fatal(err)
					}
					if ref == nil {
						ref = e
						continue
					}
					if !bitsEqual(e.BinRatios, ref.BinRatios) {
						t.Fatalf("%v n=%d zero index off=%v: workers=%d learns a different table from workers=0", s, n, negZeros, w)
					}
				}
			}
		}
	}
}

// TestFitStatsMergeMatchesWholeScan pins the exact merge the
// distributed encoder relies on: a table input cut into parts, each
// part scanned alone and the parts merged in order — by Merge, or by
// reducing their Wire vectors as a collective would — gives the whole
// input's stats bit for bit, and so its table. The input straddles the
// parallel scan's threshold; a tie between 0 and −0 must keep the first,
// as the serial scan does.
func TestFitStatsMergeMatchesWholeScan(t *testing.T) {
	prev, cur := fitPair(3*statRangePoints, 7, true)
	for _, s := range []Strategy{EqualWidth, LogScale} {
		opt := defaultOpts(s)
		opt.DisableZeroIndex = true
		ti, err := TableInput(prev, cur, opt)
		if err != nil {
			t.Fatal(err)
		}
		whole := ScanFitStats(ti, opt)
		for _, cuts := range [][]int{{0, len(ti)}, {0, 0, 7, len(ti)}, {0, 1, 2*statRangePoints + 3, len(ti) - 1, len(ti)}} {
			merged := ScanFitStats(ti[:0], opt)
			var mins, sums []float64
			for p := 1; p < len(cuts); p++ {
				part := ScanFitStats(ti[cuts[p-1]:cuts[p]], opt)
				merged.Merge(part)
				m, c := part.Wire()
				if mins == nil {
					mins, sums = m, c
					continue
				}
				for i := range m {
					if m[i] < mins[i] {
						mins[i] = m[i]
					}
				}
				for i := range c {
					sums[i] += c[i]
				}
			}
			reduced, err := FitStatsFromWire(mins, sums)
			if err != nil {
				t.Fatal(err)
			}
			for _, got := range []FitStats{merged, reduced} {
				if !bitsEqual(statsBits(got), statsBits(whole)) {
					t.Fatalf("%v cut at %v: merged stats %+v, whole scan %+v", s, cuts, got, whole)
				}
			}
		}
		b, err := whole.Binner(opt)
		if err != nil {
			t.Fatal(err)
		}
		e, err := Encode(prev, cur, opt)
		if err != nil {
			t.Fatal(err)
		}
		if !bitsEqual(b.Representatives(), e.BinRatios) {
			t.Errorf("%v: the binner built from the stats is not Encode's", s)
		}
	}
	ew := defaultOpts(EqualWidth)
	zeros := []float64{0, math.Copysign(0, -1)}
	first := ScanFitStats(zeros[:1], ew)
	first.Merge(ScanFitStats(zeros[1:], ew))
	if whole := ScanFitStats(zeros, ew); !bitsEqual(statsBits(first), statsBits(whole)) {
		t.Errorf("0 merged with −0: %+v, whole scan %+v", first, whole)
	}
	if _, err := ScanFitStats(nil, ew).Binner(ew); !errors.Is(err, ErrBadOptions) {
		t.Errorf("stats of no input built a binner: %v", err)
	}
	if _, err := ScanFitStats([]float64{1}, defaultOpts(Clustering)).Binner(defaultOpts(Clustering)); !errors.Is(err, ErrBadOptions) {
		t.Errorf("stats built a clustering binner: %v", err)
	}
}

// statsBits lists every field of s as a float64, for a bitwise compare.
func statsBits(s FitStats) []float64 {
	return []float64{float64(s.N), s.Lo, s.Hi, float64(s.neg.n), s.neg.min, s.neg.max, float64(s.pos.n), s.pos.min, s.pos.max}
}

// fitAllocs is the average allocation count of one clustering fit of
// n table-input ratios on the given number of workers.
func fitAllocs(t *testing.T, n, workers int) float64 {
	t.Helper()
	prev, cur := fitPair(n, 3, false)
	opt := defaultOpts(Clustering)
	opt.Workers = workers
	opt, err := opt.Validate()
	if err != nil {
		t.Fatal(err)
	}
	ti, err := TableInput(prev, cur, opt)
	if err != nil {
		t.Fatal(err)
	}
	return testing.AllocsPerRun(5, func() {
		if _, err := fitClustering(ti, opt.NumBins(), opt); err != nil {
			t.Fatal(err)
		}
	})
}

// TestFitClusteringAllocsIndependentOfSize pins the clustering fit's
// scratch to O(workers): one sketch and one seed histogram per worker,
// refilled range after range, so sixteen times the ranges must not
// allocate once more. A fit that allocated per range would show it
// here; TestEncodeSteadyStateAllocs cannot, as it runs equal-width.
func TestFitClusteringAllocsIndependentOfSize(t *testing.T) {
	for _, w := range []int{1, 2, 4} {
		small := fitAllocs(t, 4*statRangePoints, w)
		large := fitAllocs(t, 64*statRangePoints, w)
		if small != large {
			t.Errorf("%d workers: clustering fit makes %.0f allocations at %d points and %.0f at %d",
				w, small, 4*statRangePoints, large, 64*statRangePoints)
		}
	}
}

// BenchmarkFitClustering times the clustering fit alone — min/max scan,
// sketches, merge, weighted k-means and the lookup index — on the
// table input of a 524 288-point smooth transition, the codec_large
// shape, at the run's default worker count.
func BenchmarkFitClustering(b *testing.B) {
	prev, cur := fitPair(1<<19, 5, false)
	opt := defaultOpts(Clustering)
	opt.Workers = runtime.GOMAXPROCS(0)
	opt, err := opt.Validate()
	if err != nil {
		b.Fatal(err)
	}
	ti, err := TableInput(prev, cur, opt)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(8 * len(ti)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := fitClustering(ti, opt.NumBins(), opt); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(ti)), "ns/pt")
}

// FuzzSeedCellMatchesDivision checks the clustering fit's coarse seed
// cell against the division kmeans.SeedFromHistogram makes: for a fuzzed
// range [lo, hi] — tiny, huge, denormal-wide or overflowing — and a
// table of k clusters, every x within 4 ulps of a cell edge (every edge
// for up to 4 096 cells, an even sample of them above), and lo and hi
// themselves, seedGrid.cell must return int((x-lo)/w) clamped to the
// last cell — w as SeedCounts takes it, hi/cells - lo/cells where hi-lo
// overflows, and the clamp compared before the conversion — and never a
// negative cell.
func FuzzSeedCellMatchesDivision(f *testing.F) {
	f.Add(0.0, 1.0, uint32(255))
	f.Add(-1.0, 1e-10, uint32(7))
	f.Add(1e-300, 2e-300, uint32(4095))
	f.Add(5e-324, 1e-320, uint32(1))
	f.Add(-1e308, 1e308, uint32(255))
	f.Add(-math.MaxFloat64, math.MaxFloat64, uint32(1<<24-1))
	f.Add(-1.5e308, 0.5e308, uint32(7))
	f.Add(1e15, 1e15+1024, uint32(1<<24-1))
	f.Add(-3.5e-3, 0.25, uint32(63))
	f.Fuzz(func(t *testing.T, lo, hi float64, k uint32) {
		if math.IsNaN(lo) || math.IsNaN(hi) || math.IsInf(lo, 0) || math.IsInf(hi, 0) || !(lo < hi) {
			return
		}
		k = 1 + k%(1<<MaxIndexBits-1)
		cells := kmeans.SeedHistogramBins(int(k))
		g := newSeedGrid(lo, hi, cells)
		w := (hi - lo) / float64(cells)
		if math.IsInf(w, 0) {
			w = hi/float64(cells) - lo/float64(cells)
		}
		check := func(x float64) {
			if x < lo || x > hi {
				return
			}
			want := cells - 1
			if f := (x - lo) / w; f < float64(cells-1) {
				want = int(f)
			}
			if got := g.cell(x); got != want || got < 0 {
				t.Fatalf("[%v, %v] in %d cells: x = %v lands in cell %d, the division says %d", lo, hi, cells, x, got, want)
			}
		}
		check(lo)
		check(hi)
		step := max(1, cells/4096)
		for e := 0; e <= cells; e += step {
			x := lo + float64(e)*w
			down, up := x, x
			check(x)
			for u := 0; u < 4; u++ {
				down, up = math.Nextafter(down, math.Inf(-1)), math.Nextafter(up, math.Inf(1))
				check(down)
				check(up)
			}
		}
	})
}
