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
	"fmt"
	"math"
	"sync"

	"numarck/internal/fputil"
	"numarck/internal/kmeans"
	"numarck/internal/panics"
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
	errs := make([]error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			errs[w] = panics.Catch(func() error {
				for r := w; r < ranges; r += workers {
					lo := r * size
					hi := lo + size
					if hi > n {
						hi = n
					}
					fn(r, lo, hi)
				}
				return nil
			})
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			// fn returns nothing, so its panic is raised again where a
			// serial run would raise it: on the caller's goroutine,
			// which OrderedChunks turns into the run's error.
			panic(err)
		}
	}
	return ranges
}

// FitStats is the mergeable summary of a table input that the
// equal-width and log-scale tables are built from, and that bounds the
// clustering fit: the input's size and range, and each sign's
// population and magnitude range. Every field merges exactly (integer
// counts, minima and maxima), so stats scanned per range, per chunk or
// per rank and merged in input order are the whole input's, bit for
// bit, and the table built from them is the whole input's table.
// ScanFitStats(nil, opt) is the empty summary; the zero FitStats is not.
type FitStats struct {
	// N is the number of table-input ratios.
	N int
	// Lo and Hi are their minimum and maximum: +Inf and -Inf when N is
	// 0, or when the strategy needs no range (log-scale).
	Lo, Hi   float64
	neg, pos signStats // per-sign |d| statistics, log-scale only
}

// noSign is a sign's statistics over no ratio.
var noSign = signStats{min: math.Inf(1), max: math.Inf(-1)}

// ScanFitStats summarises the table input ti for opt's strategy: the
// per-sign statistics for log-scale, the range for every other, in one
// pass. Fixed statRangePoints ranges are scanned on opt.Workers
// goroutines and merged in range order.
func ScanFitStats(ti []float64, opt Options) FitStats {
	logScale := opt.Strategy == LogScale
	if len(ti) < 2*statRangePoints || opt.Workers == 1 {
		return scanStats(ti, logScale)
	}
	slots := make([]FitStats, (len(ti)+statRangePoints-1)/statRangePoints)
	forEachRange(len(ti), statRangePoints, opt.Workers, func(r, a, b int) {
		slots[r] = scanStats(ti[a:b], logScale)
	})
	s := slots[0]
	for _, o := range slots[1:] {
		s.Merge(o)
	}
	return s
}

// scanStats is ScanFitStats over one range.
func scanStats(xs []float64, logScale bool) FitStats {
	s := FitStats{N: len(xs), Lo: math.Inf(1), Hi: math.Inf(-1), neg: noSign, pos: noSign}
	if logScale {
		s.neg, s.pos = scanSignStats(xs)
	} else if len(xs) > 0 {
		s.Lo, s.Hi = minMax(xs)
	}
	return s
}

// Merge folds o, the stats of the table input that follows s's in the
// same strategy's encode, into s. A tie keeps s's value, as a serial
// scan keeps the first (0 before -0, say), so merging in input order
// gives the serial scan's bits.
func (s *FitStats) Merge(o FitStats) {
	s.N += o.N
	if o.Lo < s.Lo {
		s.Lo = o.Lo
	}
	if o.Hi > s.Hi {
		s.Hi = o.Hi
	}
	s.neg.merge(o.neg)
	s.pos.merge(o.pos)
}

// Wire is s as two fixed-length vectors for a collective reduction:
// mins holds the minima and the negated maxima, to be reduced by
// element-wise minimum; sums holds the counts, to be reduced by sum.
// FitStatsFromWire reads the reduced pair back.
func (s FitStats) Wire() (mins, sums []float64) {
	mins = []float64{s.Lo, -s.Hi, s.neg.min, -s.neg.max, s.pos.min, -s.pos.max}
	sums = []float64{float64(s.N), float64(s.neg.n), float64(s.pos.n)}
	return mins, sums
}

// FitStatsFromWire is the merged stats whose Wire vectors, reduced, are
// mins and sums. Counts up to 2^53 add exactly as float64s.
func FitStatsFromWire(mins, sums []float64) (FitStats, error) {
	if len(mins) != 6 || len(sums) != 3 {
		return FitStats{}, fmt.Errorf("%w: fit stats wire of %d+%d values, want 6+3", ErrBadOptions, len(mins), len(sums))
	}
	return FitStats{
		N:  int(sums[0]),
		Lo: mins[0], Hi: -mins[1],
		neg: signStats{n: int(sums[1]), min: mins[2], max: -mins[3]},
		pos: signStats{n: int(sums[2]), min: mins[4], max: -mins[5]},
	}, nil
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

// scanSignStats gathers both signs' magnitude statistics over xs.
// Zero-magnitude ratios are skipped: the log-scale Lookup sends them to
// its nearest-rep fallback.
func scanSignStats(xs []float64) (neg, pos signStats) {
	neg, pos = noSign, noSign
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
// sketch, and the occupied cells become the weighted micro-centroids
// (points, weights) the Lloyd loop clusters — the "weighted centroid
// merge" of the paper authors' parallel follow-up. The seeds reproduce
// the serial path's histogram seeding exactly: the coarse seed
// histogram is gathered in the same pass and fed to
// kmeans.SeedFromCounts. They are nil when fewer cells are occupied
// than there are clusters: the loop then clamps K and seeds from the
// micro-centroids themselves. The result is deterministic for a given
// input sequence regardless of the worker count.
//
// The ranges run on OrderedChunks, so each worker refills one slot
// sketch per range and the emitter merges it into the global sketch in
// range order; a slot is refilled only after its last range has been
// merged. Merges and resets cost the cells a range touched, and the
// scratch is one sketch per worker plus the global one, whatever the
// input size, taken from fs. Seed counts are integers and merge in any
// order, so each worker keeps one coarse histogram for all of its
// ranges.
func (fs *fitScratch) sketchFit(data []float64, k int, opt Options) (points, weights, seeds []float64, err error) {
	st := ScanFitStats(data, opt)
	lo, hi := st.Lo, st.Hi
	if fputil.Eq(lo, hi) {
		// Single distinct value: every centroid is that value, which a
		// cell mean of its copies need not be.
		return []float64{lo}, nil, nil, nil
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
	err = OrderedChunks(ranges, workers, "encode-fit", nil,
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
		return nil, nil, nil, err
	}
	counts := slots[0].counts
	for _, s := range slots[1:] {
		for i, c := range s.counts {
			counts[i] += c
		}
	}

	points, weights = sk.Points()
	switch {
	case len(points) < k: // nil seeds, as documented above
	case opt.UniformSeeding:
		seeds = kmeans.UniformSeeds(lo, hi, k)
	default:
		seeds = kmeans.SeedFromCounts(lo, hi, counts, k)
	}
	return points, weights, seeds, nil
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
// cell closed — kmeans.SeedCounts' cells, w taken without forming hi-lo
// where that overflows, as SeedCounts takes it. cell reaches that cell
// with one multiply by inv = 1/w instead of a divide. Where inv is a
// normal float, the product and the quotient both lie within 1.5e-8 of
// the exact (x-lo)/w — a relative error of 2.3e-16 on a value of at
// most 4·2^24 — so their integer parts agree unless the product is
// within 1e-6 of a cell edge, and there cell divides as SeedCounts
// does. A range whose 1/w is not a normal float — w denormal enough for
// 1/w to overflow — always divides: inv is 0 then.
type seedGrid struct {
	lo, w, inv float64
	cells      int
}

func newSeedGrid(lo, hi float64, cells int) seedGrid {
	g := seedGrid{lo: lo, w: (hi - lo) / float64(cells), cells: cells}
	if math.IsInf(g.w, 0) {
		g.w = hi/float64(cells) - lo/float64(cells)
	}
	if inv := 1 / g.w; inv >= 0x1p-1022 && inv <= math.MaxFloat64 {
		g.inv = inv
	}
	return g
}

// cell returns x's cell, int((x-lo)/w) clamped below cells; x must be
// in [lo, hi]. Like SeedCounts it compares before it converts: x-lo
// can overflow to +Inf, where int is implementation-defined.
func (g seedGrid) cell(x float64) int {
	if f := (x - g.lo) * g.inv; f < float64(g.cells) {
		i := int(f)
		if r := f - float64(i); r >= 1e-6 && r <= 1-1e-6 {
			return i
		}
	}
	// Near an edge, past the last cell, or inv is 0.
	if f := (x - g.lo) / g.w; f < float64(g.cells-1) {
		return int(f)
	}
	return g.cells - 1
}
