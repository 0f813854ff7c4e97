// Package kmeans implements a goroutine-parallel one-dimensional k-means
// clustering used by NUMARCK's clustering-based approximation strategy
// (paper §II-C3). The paper uses the authors' MPI-parallel k-means
// package; this is the shared-memory equivalent: the assignment step is
// decomposed over points across workers, and the update step sums each
// cluster in point order, so the result does not depend on the worker
// count.
//
// To overcome k-means' sensitivity to the initial centroids the paper
// seeds them "with prior-knowledge from the equal-width histogram";
// SeedFromHistogram reproduces that: the initial centroids are the
// centers of the k most populated equal-width histogram bins (falling
// back to evenly spaced centers when fewer bins are occupied).
package kmeans

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"

	"numarck/internal/fputil"
)

// Config controls a clustering run.
type Config struct {
	// K is the number of clusters. Required, >= 1.
	K int
	// MaxIter bounds the number of Lloyd iterations. Defaults to 100.
	MaxIter int
	// Tol stops iteration when the largest centroid movement falls
	// below it. Defaults to 1e-12 (absolute movement of ratios).
	Tol float64
	// Workers is the number of goroutines for the assignment step.
	// Defaults to GOMAXPROCS.
	Workers int
	// Seeds optionally fixes the initial centroids; len must equal K.
	// When nil, SeedFromHistogram(data, K) is used.
	Seeds []float64
}

// Result is the outcome of a clustering run.
type Result struct {
	// Centroids are the final cluster centers, sorted ascending.
	Centroids []float64
	// Assign[i] is the index into Centroids of point i's cluster.
	Assign []int
	// Sizes[c] is the number of points assigned to centroid c.
	Sizes []int
	// Iterations is the number of Lloyd iterations performed.
	Iterations int
	// Converged reports whether the run stopped by Tol rather than
	// by MaxIter.
	Converged bool
}

// ErrNoData reports an empty input.
var ErrNoData = errors.New("kmeans: no data points")

// Run clusters data into cfg.K groups and returns the result. data is
// not modified. All points must be finite.
func Run(data []float64, cfg Config) (*Result, error) {
	if len(data) == 0 {
		return nil, ErrNoData
	}
	if cfg.K < 1 {
		return nil, fmt.Errorf("kmeans: K must be >= 1, got %d", cfg.K)
	}
	for i, x := range data {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return nil, fmt.Errorf("kmeans: non-finite value %v at index %d", x, i)
		}
	}
	if cfg.MaxIter <= 0 {
		cfg.MaxIter = 100
	}
	if cfg.Tol <= 0 {
		cfg.Tol = 1e-12
	}
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.Workers > len(data) {
		cfg.Workers = len(data)
	}

	cents := cfg.Seeds
	if cents == nil {
		cents = SeedFromHistogram(data, cfg.K)
	}
	if len(cents) != cfg.K {
		return nil, fmt.Errorf("kmeans: %d seeds for K=%d", len(cents), cfg.K)
	}
	cents = append([]float64(nil), cents...)
	sort.Float64s(cents)

	res := &Result{
		Centroids: cents,
		Assign:    make([]int, len(data)),
		Sizes:     make([]int, cfg.K),
	}

	sums := make([]float64, cfg.K)
	chunk := (len(data) + cfg.Workers - 1) / cfg.Workers
	for iter := 0; iter < cfg.MaxIter; iter++ {
		res.Iterations = iter + 1
		// Assignment step, parallel over point ranges, accelerated by
		// a per-iteration uniform-grid index over the sorted centroids.
		ix := NewIndex(res.Centroids)
		var wg sync.WaitGroup
		for w := 0; w < cfg.Workers; w++ {
			lo := w * chunk
			hi := min(lo+chunk, len(data))
			if lo >= hi {
				continue
			}
			wg.Add(1)
			go func(lo, hi int) {
				defer wg.Done()
				for i := lo; i < hi; i++ {
					res.Assign[i] = ix.Nearest(data[i])
				}
			}(lo, hi)
		}
		wg.Wait()

		// Update step: sum each cluster in point order, so the
		// centroids are the same bits whatever the worker count.
		clear(sums)
		clear(res.Sizes)
		for i, c := range res.Assign {
			sums[c] += data[i]
			res.Sizes[c]++
		}
		moved := 0.0
		for c, count := range res.Sizes {
			if count == 0 {
				continue // empty cluster keeps its centroid
			}
			next := sums[c] / float64(count)
			if d := math.Abs(next - res.Centroids[c]); d > moved {
				moved = d
			}
			res.Centroids[c] = next
		}
		// Centroid means of disjoint sorted intervals stay sorted, so
		// no re-sort is needed between iterations.
		if moved < cfg.Tol {
			res.Converged = true
			break
		}
	}
	return res, nil
}

// Nearest returns the index of the centroid closest to x. cents must be
// sorted ascending and non-empty. Ties go to the lower centroid.
// The binary search is inlined rather than delegated to sort.Search:
// this function runs once per point per Lloyd iteration and the closure
// indirection dominated encode profiles.
func Nearest(cents []float64, x float64) int {
	lo, hi := 0, len(cents) // first index with cents[i] >= x
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if cents[mid] < x {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	switch {
	case lo == 0:
		return 0
	case lo == len(cents):
		return len(cents) - 1
	}
	if x-cents[lo-1] <= cents[lo]-x {
		return lo - 1
	}
	return lo
}

// Index is a uniform-grid accelerator for nearest-centroid queries.
// A data-dependent binary search costs hundreds of cycles in branch
// misses when called millions of times per Lloyd iteration; the grid
// maps a value to its cell in O(1) and scans the (typically 1-3)
// candidate centroids overlapping that cell.
type Index struct {
	cents    []float64
	lo, inv  float64
	loCand   []int32
	hiCand   []int32
	lastCell int
}

// NewIndex builds an accelerator over sorted centroids (non-empty).
func NewIndex(cents []float64) *Index {
	k := len(cents)
	ix := &Index{cents: cents}
	lo, hi := cents[0], cents[k-1]
	if hi <= lo {
		// All centroids equal: a single cell answers everything.
		ix.lo = lo
		ix.inv = 0
		ix.loCand = []int32{0}
		ix.hiCand = []int32{0}
		return ix
	}
	cells := 4 * k
	if cells < 64 {
		cells = 64
	}
	ix.lo = lo
	ix.inv = float64(cells) / (hi - lo)
	ix.lastCell = cells - 1
	ix.loCand = make([]int32, cells)
	ix.hiCand = make([]int32, cells)
	w := (hi - lo) / float64(cells)
	c := 0
	for i := 0; i < cells; i++ {
		edgeLo := lo + float64(i)*w
		edgeHi := edgeLo + w
		// First centroid >= edgeLo.
		for c < k && cents[c] < edgeLo {
			c++
		}
		first := c - 1
		if first < 0 {
			first = 0
		}
		last := c
		for last < k && cents[last] <= edgeHi {
			last++
		}
		// last is now one past the final centroid inside the cell;
		// include it as a right-side candidate.
		if last >= k {
			last = k - 1
		}
		// first <= k, and k is capped at 2^24 bins by core.Options
		ix.loCand[i] = int32(first)
		// last <= k, and k is capped at 2^24 bins by core.Options
		ix.hiCand[i] = int32(last)
	}
	return ix
}

// Nearest returns the index of the centroid closest to x (ties to the
// lower centroid), identical to the package-level Nearest.
func (ix *Index) Nearest(x float64) int {
	cell := 0
	if !fputil.IsZero(ix.inv) {
		// Compare before converting: for far-out-of-range x the scaled
		// offset can exceed the int range (even overflow to +Inf), where
		// int(f) is implementation-defined and may come out negative.
		f := (x - ix.lo) * ix.inv
		if f >= float64(ix.lastCell) {
			cell = ix.lastCell
		} else if f > 0 {
			cell = int(f)
		}
	}
	best := int(ix.loCand[cell])
	hiC := int(ix.hiCand[cell])
	if best == hiC {
		// Single candidate: most cells of a well-spread table resolve
		// here, skipping the distance computation entirely.
		return best
	}
	bestDist := math.Abs(ix.cents[best] - x)
	for c := best + 1; c <= hiC; c++ {
		d := math.Abs(ix.cents[c] - x)
		if d < bestDist {
			best, bestDist = c, d
		}
	}
	return best
}

// SeedFromHistogram returns k initial centroids derived from an
// equal-width histogram of data, mirroring the paper's seeding. It
// builds a histogram with max(4k, 64) bins, takes the centers of the k
// most populated bins, and pads with evenly spaced centers across the
// data range when fewer than k bins are occupied. The result is sorted.
func SeedFromHistogram(data []float64, k int) []float64 {
	if k <= 0 || len(data) == 0 {
		return nil
	}
	lo, hi := data[0], data[0]
	for _, x := range data[1:] {
		if x < lo {
			lo = x
		}
		if x > hi {
			hi = x
		}
	}
	if fputil.Eq(lo, hi) {
		seeds := make([]float64, k)
		for i := range seeds {
			seeds[i] = lo
		}
		return seeds
	}
	bins := SeedHistogramBins(k)
	counts := make([]int, bins)
	w := (hi - lo) / float64(bins)
	for _, x := range data {
		i := int((x - lo) / w)
		if i >= bins {
			i = bins - 1
		}
		counts[i]++
	}
	return SeedFromCounts(lo, hi, counts, k)
}

// SeedHistogramBins returns the number of equal-width histogram bins
// the seeding procedure uses for k clusters. Exported so distributed
// callers can build the same histogram across ranks and merge counts
// before seeding.
func SeedHistogramBins(k int) int {
	bins := 4 * k
	if bins < 64 {
		bins = 64
	}
	return bins
}

// SeedFromCounts derives k seeds from an equal-width histogram over
// [lo, hi] whose occupancy is given in counts: the centers of the k
// most populated bins, padded with evenly spaced centers when fewer
// bins are occupied. This is the merge-friendly core of
// SeedFromHistogram: summing per-rank counts and calling it yields the
// seeds of the union of the data.
func SeedFromCounts(lo, hi float64, counts []int, k int) []float64 {
	if k <= 0 || len(counts) == 0 {
		return nil
	}
	if fputil.Eq(lo, hi) {
		seeds := make([]float64, k)
		for i := range seeds {
			seeds[i] = lo
		}
		return seeds
	}
	w := (hi - lo) / float64(len(counts))
	type bin struct {
		idx, count int
	}
	occupied := make([]bin, 0, len(counts))
	for i, c := range counts {
		if c > 0 {
			occupied = append(occupied, bin{i, c})
		}
	}
	sort.Slice(occupied, func(a, b int) bool {
		if occupied[a].count != occupied[b].count {
			return occupied[a].count > occupied[b].count
		}
		return occupied[a].idx < occupied[b].idx
	})
	if len(occupied) > k {
		occupied = occupied[:k]
	}
	seeds := make([]float64, 0, k)
	for _, b := range occupied {
		seeds = append(seeds, lo+(float64(b.idx)+0.5)*w)
	}
	// Pad with evenly spaced centers when the data occupies fewer than
	// k histogram bins.
	for i := 0; len(seeds) < k; i++ {
		seeds = append(seeds, lo+(hi-lo)*float64(i%k)/float64(k))
	}
	sort.Float64s(seeds)
	return seeds
}

// SeedUniform returns k centroids evenly spaced across [min(data),
// max(data)]. Used by the seeding ablation experiment.
func SeedUniform(data []float64, k int) []float64 {
	if k <= 0 || len(data) == 0 {
		return nil
	}
	lo, hi := data[0], data[0]
	for _, x := range data[1:] {
		if x < lo {
			lo = x
		}
		if x > hi {
			hi = x
		}
	}
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

// WithinClusterSS returns the total within-cluster sum of squared
// distances for a result over data — the k-means objective. Used in
// tests and the seeding ablation.
func WithinClusterSS(data []float64, res *Result) float64 {
	var ss float64
	for i, x := range data {
		d := x - res.Centroids[res.Assign[i]]
		ss += d * d
	}
	return ss
}
