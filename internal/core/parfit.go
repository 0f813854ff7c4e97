package core

// Parallel table-learning support: the statistics the fit strategies
// need (min/max, per-sign log-range stats, clustering sketches) are
// gathered over fixed-size ranges of the table input concurrently and
// merged in range order. The range size is a constant — NOT derived
// from the worker count — so the merged result is a pure function of
// the input sequence. That is what keeps the in-memory and streaming
// encoders byte-identical while both are free to pick any Workers
// value, and it mirrors the paper authors' parallel follow-up, where
// per-partition summaries merge into one global table.

import (
	"math"
	"sync"

	"numarck/internal/fputil"
	"numarck/internal/kmeans"
)

// statRangePoints is the fixed range length of all parallel fit scans.
// 8192 float64s is 64 KiB — large enough to amortize goroutine
// scheduling, small enough to load-balance across workers.
const statRangePoints = 8192

// forEachRange splits [0, n) into ceil(n/size) fixed ranges and runs
// fn(r, lo, hi) for each, using up to `workers` goroutines. fn must
// write its result into a slot keyed by r; the caller merges slots in
// range order, making the merged result independent of the worker
// count. Returns the number of ranges.
func forEachRange(n, size, workers int, fn func(r, lo, hi int)) int {
	ranges := (n + size - 1) / size
	if workers > ranges {
		workers = ranges
	}
	if workers <= 1 || ranges <= 1 {
		for r := 0; r < ranges; r++ {
			lo := r * size
			hi := lo + size
			if hi > n {
				hi = n
			}
			fn(r, lo, hi)
		}
		return ranges
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := w; r < ranges; r += workers {
				lo := r * size
				hi := lo + size
				if hi > n {
					hi = n
				}
				fn(r, lo, hi)
			}
		}(w)
	}
	wg.Wait()
	return ranges
}

// parMinMax returns the minimum and maximum of xs, scanning fixed
// ranges in parallel. Identical to a serial scan (min/max merge is
// exact) for any worker count. xs must be non-empty.
func parMinMax(xs []float64, workers int) (lo, hi float64) {
	if len(xs) < 2*statRangePoints || workers == 1 {
		return minMax(xs)
	}
	type mm struct{ lo, hi float64 }
	slots := make([]mm, (len(xs)+statRangePoints-1)/statRangePoints)
	forEachRange(len(xs), statRangePoints, workers, func(r, a, b int) {
		l, h := minMax(xs[a:b])
		slots[r] = mm{l, h}
	})
	lo, hi = slots[0].lo, slots[0].hi
	for _, s := range slots[1:] {
		if s.lo < lo {
			lo = s.lo
		}
		if s.hi > hi {
			hi = s.hi
		}
	}
	return lo, hi
}

// signStats are one sign's magnitude statistics for the log-scale fit:
// population and the min/max of |d| over that sign's points.
type signStats struct {
	n        int
	min, max float64 // over |d|; ±Inf sentinels when n == 0
}

// merge folds o into s (exact: integer count, min/max).
func (s *signStats) merge(o signStats) {
	s.n += o.n
	if o.min < s.min {
		s.min = o.min
	}
	if o.max > s.max {
		s.max = o.max
	}
}

// scanSignStats gathers both signs' magnitude statistics over xs[a:b].
// Zero-magnitude ratios are skipped, matching fitLogScale's contract
// (they fall to the nearest-rep fallback in Lookup).
func scanSignStats(xs []float64) (neg, pos signStats) {
	neg = signStats{min: math.Inf(1), max: math.Inf(-1)}
	pos = signStats{min: math.Inf(1), max: math.Inf(-1)}
	for _, d := range xs {
		a := math.Abs(d)
		if fputil.IsZero(a) {
			continue
		}
		s := &pos
		if d < 0 {
			s = &neg
		}
		s.n++
		if a < s.min {
			s.min = a
		}
		if a > s.max {
			s.max = a
		}
	}
	return neg, pos
}

// parSignStats runs scanSignStats over fixed ranges in parallel and
// merges in range order. Exact, so identical for any worker count.
func parSignStats(xs []float64, workers int) (neg, pos signStats) {
	if len(xs) < 2*statRangePoints || workers == 1 {
		return scanSignStats(xs)
	}
	type pair struct{ neg, pos signStats }
	slots := make([]pair, (len(xs)+statRangePoints-1)/statRangePoints)
	forEachRange(len(xs), statRangePoints, workers, func(r, a, b int) {
		n, p := scanSignStats(xs[a:b])
		slots[r] = pair{n, p}
	})
	neg, pos = slots[0].neg, slots[0].pos
	for _, s := range slots[1:] {
		neg.merge(s.neg)
		pos.merge(s.pos)
	}
	return neg, pos
}

// sketchBins returns the clustering sketch resolution for k clusters:
// 32 cells per cluster, clamped to [4096, 65536]. The floor keeps
// small-k tables sharp; the ceiling bounds the weighted problem handed
// to RunWeighted.
func sketchBins(k int) int {
	bins := 32 * k
	if bins < 4096 {
		bins = 4096
	}
	if bins > 1<<16 {
		bins = 1 << 16
	}
	return bins
}

// fitClusteringSketch is the parallel table-learning path of the
// clustering strategy: per-range histogram sketches (value sum + count
// per cell) are built concurrently, merged in range order into one
// global sketch, and the occupied cells become weighted micro-centroids
// for a sequential weighted k-means — the "weighted centroid merge" of
// the paper authors' parallel follow-up. Seeds reproduce the serial
// path's histogram seeding exactly: the coarse seed histogram is
// gathered in the same pass and fed to kmeans.SeedFromCounts. The
// result is deterministic for a given input sequence regardless of the
// worker count.
func fitClusteringSketch(data []float64, k int, opt Options) (*clusterBinner, error) {
	lo, hi := parMinMax(data, opt.Workers)
	if fputil.Eq(lo, hi) {
		// Single distinct value: every centroid is that value. The
		// exact path reaches the same fixpoint in one O(n) iteration;
		// short-circuit it.
		cents := make([]float64, 1)
		cents[0] = lo
		return &clusterBinner{cents: cents, ix: kmeans.NewIndex(cents)}, nil
	}

	bins := sketchBins(k)
	coarse := kmeans.SeedHistogramBins(k)
	seedW := (hi - lo) / float64(coarse)
	ranges := (len(data) + statRangePoints - 1) / statRangePoints
	sketches := make([]*kmeans.Sketch, ranges)
	seedCounts := make([][]int, ranges)
	forEachRange(len(data), statRangePoints, opt.Workers, func(r, a, b int) {
		sk := kmeans.NewSketch(lo, hi, bins)
		sk.Add(data[a:b])
		counts := make([]int, coarse)
		for _, x := range data[a:b] {
			// Same cell formula as kmeans.SeedFromHistogram, so the
			// merged counts reproduce its histogram bit-for-bit.
			i := int((x - lo) / seedW)
			if i >= coarse {
				i = coarse - 1
			}
			counts[i]++
		}
		sketches[r] = sk
		seedCounts[r] = counts
	})
	sk := sketches[0]
	counts := seedCounts[0]
	for r := 1; r < ranges; r++ {
		if err := sk.Merge(sketches[r]); err != nil {
			return nil, err
		}
		for i, c := range seedCounts[r] {
			counts[i] += c
		}
	}

	points, weights := sk.Points()
	cfg := kmeans.Config{K: k, MaxIter: opt.KMeansMaxIter}
	if len(points) < k {
		// Fewer occupied cells than clusters: let RunWeighted clamp K
		// and seed from the micro-centroids themselves.
		cfg.K = len(points)
	} else if opt.UniformSeeding {
		cfg.Seeds = uniformSeeds(lo, hi, k)
	} else {
		cfg.Seeds = kmeans.SeedFromCounts(lo, hi, counts, k)
	}
	res, err := kmeans.RunWeighted(points, weights, cfg)
	if err != nil {
		return nil, err
	}
	return &clusterBinner{cents: res.Centroids, ix: kmeans.NewIndex(res.Centroids)}, nil
}

// uniformSeeds reproduces kmeans.SeedUniform from a precomputed data
// range instead of rescanning the data.
func uniformSeeds(lo, hi float64, k int) []float64 {
	seeds := make([]float64, k)
	if k == 1 {
		seeds[0] = (lo + hi) / 2
		return seeds
	}
	for i := range seeds {
		seeds[i] = lo + (hi-lo)*float64(i)/float64(k-1)
	}
	return seeds
}
