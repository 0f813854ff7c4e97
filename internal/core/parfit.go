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

// fitScratch is the clustering fit's reusable memory, part of a run's
// pooled scratch: one sketch and one coarse seed histogram per worker,
// and the sketch they merge into.
type fitScratch struct {
	workers []fitSlot
	merged  *kmeans.Sketch
}

// fitSlot is one fit worker's sketch and seed histogram.
type fitSlot struct {
	sk     *kmeans.Sketch
	counts []int
}

// sketchFit is the parallel table-learning path of the clustering
// strategy: per-range histogram sketches (value sum + count per cell)
// are built concurrently, merged in range order into one global
// sketch, and the occupied cells become weighted micro-centroids for a
// sequential weighted k-means — the "weighted centroid merge" of the
// paper authors' parallel follow-up. Seeds reproduce the serial path's
// histogram seeding exactly: the coarse seed histogram is gathered in
// the same pass and fed to kmeans.SeedFromCounts. The result is
// deterministic for a given input sequence regardless of the worker
// count.
//
// The ranges run on OrderedChunks, so each worker refills one slot
// sketch per range and the emitter merges it into the global sketch in
// range order; a slot is refilled only after its last range has been
// merged. Merges and resets cost the cells a range touched, and the
// scratch is one sketch per worker plus the global one, whatever the
// input size, taken from fs. Seed counts are integers and merge in any
// order, so each worker keeps one coarse histogram for all of its
// ranges.
func (fs *fitScratch) sketchFit(data []float64, k int, opt Options) (*clusterBinner, error) {
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
	grid := newSeedGrid(lo, hi, coarse)
	ranges := (len(data) + statRangePoints - 1) / statRangePoints
	workers := min(max(opt.Workers, 1), ranges)
	fs.workers = resize(fs.workers, workers)
	for w := range fs.workers {
		s := &fs.workers[w]
		s.sk = regrid(s.sk, lo, hi, bins)
		s.counts = grow(within(s.counts, coarse), coarse)
		clear(s.counts)
	}
	fs.merged = regrid(fs.merged, lo, hi, bins)
	sk, slots := fs.merged, fs.workers
	// The table stage's timer already spans the fit; a nil recorder keeps
	// its slot waits out of the chunk ring's queue-wait figure.
	err := OrderedChunks(ranges, workers, "encode-fit", nil,
		func(r, w int) (*kmeans.Sketch, error) {
			a, b := r*statRangePoints, min((r+1)*statRangePoints, len(data))
			s := &slots[w]
			s.sk.Reset()
			s.sk.Add(data[a:b])
			for _, x := range data[a:b] {
				s.counts[grid.cell(x)]++
			}
			return s.sk, nil
		},
		func(_ int, rs *kmeans.Sketch) error { return sk.Merge(rs) })
	if err != nil {
		return nil, err
	}
	counts := slots[0].counts
	for _, s := range slots[1:] {
		for i, c := range s.counts {
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
	return &clusterBinner{cents: res.Centroids, ix: kmeans.NewIndexFor(res.Centroids, len(data))}, nil
}

// regrid returns s emptied onto `bins` cells over [lo, hi], or a new
// sketch when s is nil or holds more cells than the fit allocates.
func regrid(s *kmeans.Sketch, lo, hi float64, bins int) *kmeans.Sketch {
	if s == nil || cap(s.Count) > bins {
		return kmeans.NewSketch(lo, hi, bins)
	}
	s.Regrid(lo, hi, bins)
	return s
}

// seedGrid is kmeans.SeedFromHistogram's coarse grid over [lo, hi]:
// cells equal cells of width w, value x in cell int((x-lo)/w), the last
// cell closed. cell reaches that cell with one multiply by inv = 1/w
// instead of a divide. Where inv is a normal float, the product and
// the quotient both lie within 1.5e-8 of the exact (x-lo)/w — a
// relative error of 2.3e-16 on a value of at most 4·2^24 — so their
// integer parts agree unless the product is within 1e-6 of a cell
// edge, and there cell divides as SeedFromHistogram does. A range
// whose 1/w is not a normal float — w denormal enough for 1/w to
// overflow, or infinite because hi-lo overflowed — always divides: inv
// is 0 then.
type seedGrid struct {
	lo, w, inv float64
	cells      int
}

func newSeedGrid(lo, hi float64, cells int) seedGrid {
	g := seedGrid{lo: lo, w: (hi - lo) / float64(cells), cells: cells}
	if inv := 1 / g.w; inv >= 0x1p-1022 && inv <= math.MaxFloat64 {
		g.inv = inv
	}
	return g
}

// cell returns x's cell, int((x-lo)/w) clamped below cells; x must be
// in [lo, hi].
func (g seedGrid) cell(x float64) int {
	f := (x - g.lo) * g.inv
	i := int(f)
	if r := f - float64(i); !(r >= 1e-6 && r <= 1-1e-6) {
		i = int((x - g.lo) / g.w) // near an edge, or inv is 0
	}
	return min(i, g.cells-1)
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
