package core

import (
	"math"
	"math/rand"
	"runtime"
	"testing"
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
