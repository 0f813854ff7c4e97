// Package kmeans implements a goroutine-parallel one-dimensional k-means
// clustering used by NUMARCK's clustering-based approximation strategy
// (paper §II-C3). The paper uses the authors' MPI-parallel k-means
// package; this is the shared-memory equivalent: the assignment step is
// decomposed over points across workers, and the update step sums each
// cluster in point order, so the result does not depend on the worker
// count. RunWeighted is the one Lloyd loop: core's full-data and sketch
// fits and each rank of dist's global fit (through Config.Reduce) run
// it.
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

	"numarck/internal/fputil"
	"numarck/internal/panics"
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
	// When nil, SeedFromHistogram(points, K) is used.
	Seeds []float64
	// Reduce, when set, makes the points one part of a set that several
	// fits hold between them, as ranks do (package dist). Each update
	// step hands it this part's vector of per-cluster sums and weights,
	// and it must return that vector summed over every part, the same
	// bits to every fit. Seeds are then required, K is not clamped to
	// this part's point count, and a part with no points still makes
	// every reduction. A part whose points fail the input checks makes
	// none, so every part must hand in finite points.
	Reduce func([]float64) ([]float64, error)
}

// Result is the outcome of a clustering run.
type Result struct {
	// Centroids are the final cluster centers, sorted ascending.
	Centroids []float64
	// Assign[i] is the index into Centroids of point i's cluster.
	Assign []int
	// Iterations is the number of Lloyd iterations performed.
	Iterations int
	// Converged reports whether the run stopped by Tol rather than
	// by MaxIter.
	Converged bool
}

// ErrNoData reports an empty input.
var ErrNoData = errors.New("kmeans: no data points")

// Run clusters data into cfg.K groups: RunWeighted with every point
// weighing 1.
func Run(data []float64, cfg Config) (*Result, error) {
	return RunWeighted(data, nil, cfg)
}

// RunWeighted clusters weighted points into cfg.K groups by Lloyd
// iterations in which each point pulls its centroid with its weight;
// nil weights count 1 each. It is every clustering fit: core's over
// the table input (Run) and over a sketch's micro-centroids
// (Sketch.Points), and with cfg.Reduce each rank's part of dist's
// global fit. The assignment step runs on cfg.Workers goroutines; the
// update step sums each cluster in point order, so the result is the
// same bits whatever the worker count. K is clamped to the number of
// points, every point must be finite, and len(weights) must equal
// len(points) with every weight finite and > 0. points is not modified.
func RunWeighted(points, weights []float64, cfg Config) (*Result, error) {
	if len(points) == 0 && cfg.Reduce == nil {
		return nil, ErrNoData
	}
	if weights != nil && len(weights) != len(points) {
		return nil, fmt.Errorf("kmeans: %d weights for %d points", len(weights), len(points))
	}
	if cfg.K < 1 {
		return nil, fmt.Errorf("kmeans: K must be >= 1, got %d", cfg.K)
	}
	for i, x := range points {
		if !finite(x) {
			return nil, fmt.Errorf("kmeans: non-finite point %v at index %d", x, i)
		}
		if weights != nil && !(weights[i] > 0 && finite(weights[i])) {
			return nil, fmt.Errorf("kmeans: weight %v at index %d (want finite > 0)", weights[i], i)
		}
	}
	if cfg.K > len(points) && cfg.Reduce == nil {
		cfg.K = len(points)
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
	workers := max(min(cfg.Workers, len(points)), 1)

	cents := cfg.Seeds
	if cfg.Reduce == nil {
		// One part: the sums are the whole set's.
		cfg.Reduce = func(vec []float64) ([]float64, error) { return vec, nil }
		if cents == nil {
			cents = SeedFromHistogram(points, cfg.K)
		}
	} else if cents == nil {
		return nil, errors.New("kmeans: a reduced run needs seeds")
	}
	if len(cents) != cfg.K {
		return nil, fmt.Errorf("kmeans: %d seeds for K=%d", len(cents), cfg.K)
	}
	cents = append([]float64(nil), cents...)
	sort.Float64s(cents)

	k := cfg.K
	res := &Result{Centroids: cents, Assign: make([]int, len(points))}
	// sums holds each cluster's weighted sum, then each cluster's
	// weight: the vector Reduce sums.
	sums := make([]float64, 2*k)
	ix := &Index{}
	for iter := 0; iter < cfg.MaxIter; iter++ {
		res.Iterations = iter + 1
		ix.reset(res.Centroids)
		if err := assign(ix, points, res.Assign, workers); err != nil {
			return nil, err
		}

		// Update step: sum each cluster in point order.
		clear(sums)
		for i, c := range res.Assign {
			w := 1.0
			if weights != nil {
				w = weights[i]
			}
			sums[c] += points[i] * w
			sums[k+c] += w
		}
		red, err := cfg.Reduce(sums)
		if err != nil {
			return nil, err
		}
		// When a cluster's sum overflowed, every cluster's mean is also
		// summed as Σ x·(w/total), which stays finite. Every part sees
		// the same reduced sums, so every part makes this second
		// reduction or none does.
		var means []float64
		for c := 0; c < k && means == nil; c++ {
			if !fputil.IsZero(red[k+c]) && !finite(red[c]/red[k+c]) {
				means = make([]float64, k)
			}
		}
		if means != nil {
			for i, c := range res.Assign {
				w := 1.0
				if weights != nil {
					w = weights[i]
				}
				means[c] += points[i] * (w / red[k+c])
			}
			if means, err = cfg.Reduce(means); err != nil {
				return nil, err
			}
		}
		moved := 0.0
		for c := 0; c < k; c++ {
			if fputil.IsZero(red[k+c]) {
				continue // empty cluster keeps its centroid
			}
			next := red[c] / red[k+c]
			if !finite(next) {
				next = means[c]
			}
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

// finite reports whether x is neither ±Inf nor NaN. Parts whose sums
// overflowed to opposite infinities reduce to NaN.
func finite(x float64) bool { return math.Abs(x) <= math.MaxFloat64 }

// assign sets out[i] to the index of the centroid of ix nearest to
// points[i], over `workers` contiguous point ranges in parallel, or
// inline on one.
func assign(ix *Index, points []float64, out []int, workers int) error {
	chunk := (len(points) + workers - 1) / workers
	return panics.Each(workers, func(w int) error {
		lo := w * chunk
		hi := min(lo+chunk, len(points))
		for i := lo; i < hi; i++ {
			out[i] = ix.Nearest(points[i])
		}
		return nil
	})
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
// maps a value to its cell in O(1) and scans the candidate centroids of
// that cell: from the last centroid below the cell to the first one
// above it, so never fewer than two unless the cell is at an end of the
// table. Where centroids are dense the scan is long.
//
// An index built by NewIndexFor also carries a resolved grid: a finer
// uniform grid over the same range whose cell holds the one answer the
// scan gives every value in that cell (plus one), or 0 where that was
// not proved. A lookup in a resolved cell is one load and no distance
// computation.
type Index struct {
	cents    []float64
	lo, inv  float64
	loCand   []int32
	hiCand   []int32
	lastCell int

	// rinv scales x-lo to a resolved-grid cell; res holds the cells and
	// rcells their count. Both are zero without a resolved grid.
	rinv, rcells float64
	res          []int32
}

// NewIndex builds an accelerator over sorted centroids (non-empty).
func NewIndex(cents []float64) *Index {
	ix := &Index{}
	ix.reset(cents)
	return ix
}

// reset rebuilds the candidate grid over cents in place, reusing its
// arrays, and drops any resolved grid. The Lloyd loop rebuilds one
// index per iteration this way.
func (ix *Index) reset(cents []float64) {
	k := len(cents)
	ix.cents = cents
	ix.rinv, ix.rcells, ix.res = 0, 0, ix.res[:0]
	lo, hi := cents[0], cents[k-1]
	ix.lo = lo
	if hi <= lo || math.IsInf(hi-lo, 0) {
		// All centroids equal, or spanning more than MaxFloat64: no
		// grid (inv 0), and scan searches the centroids themselves.
		ix.inv = 0
		ix.lastCell = 0
		ix.loCand = append(ix.loCand[:0], 0)
		ix.hiCand = append(ix.hiCand[:0], 0)
		return
	}
	cells := 4 * k
	if cells < 64 {
		cells = 64
	}
	ix.inv = float64(cells) / (hi - lo)
	ix.lastCell = cells - 1
	ix.loCand = grow32(ix.loCand, cells)
	ix.hiCand = grow32(ix.hiCand, cells)
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
}

// grow32 returns s resized to n, reallocating only when its capacity
// is short.
func grow32(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	return s[:n]
}

// Nearest returns the index of the centroid closest to x (ties to the
// lower centroid among the candidates of x's cell). Among duplicate
// centroids the answer depends on the candidate grid, so it is not
// always the package-level Nearest's index, though always one at the
// same distance.
func (ix *Index) Nearest(x float64) int {
	if f := (x - ix.lo) * ix.rinv; f >= 0 && f < ix.rcells {
		if r := ix.res[int(f)]; r > 0 {
			return int(r) - 1
		}
	}
	return ix.scan(x)
}

// cell returns x's candidate-grid cell; ix must have a grid (inv > 0).
func (ix *Index) cell(x float64) int {
	// Compare before converting: for far-out-of-range x the scaled
	// offset can exceed the int range (even overflow to +Inf), where
	// int(f) is implementation-defined and may come out negative.
	f := (x - ix.lo) * ix.inv
	if f >= float64(ix.lastCell) {
		return ix.lastCell
	}
	if f > 0 {
		return int(f)
	}
	return 0
}

// scan answers x from its candidate-grid cell: the lowest-index
// centroid at the least distance among the cell's candidates. It
// defines Nearest; the resolved grid only caches its answers. Without
// a grid it gives the same answer by binary search: Nearest's value,
// at the lowest index that holds it.
func (ix *Index) scan(x float64) int {
	if fputil.IsZero(ix.inv) {
		return sort.SearchFloat64s(ix.cents, ix.cents[Nearest(ix.cents, x)])
	}
	cell := ix.cell(x)
	best := int(ix.loCand[cell])
	hiC := int(ix.hiCand[cell])
	if best == hiC {
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

// NewIndexFor builds an accelerator over sorted centroids (non-empty)
// that will serve about `lookups` queries, with a resolved grid sized
// so that building it costs a small share of those queries. Its
// answers are Nearest's on the candidate grid alone, bit for bit.
func NewIndexFor(cents []float64, lookups int) *Index {
	ix := NewIndex(cents)
	if cells := resolvedCells(len(cents), lookups); cells > 0 {
		ix.resolve(cells)
	}
	return ix
}

// resolvedCells sizes the resolved grid for k centroids and the given
// number of lookups: one cell per lookup, at most maxResolvedCells. It
// is 0, no resolved grid, below minLookupsPerCentroid lookups per
// centroid, too few to pay for the proofs.
func resolvedCells(k, lookups int) int {
	if k < 2 || lookups < minLookupsPerCentroid*k {
		return 0
	}
	return min(lookups, maxResolvedCells)
}

const (
	// minLookupsPerCentroid is how many lookups each centroid must
	// serve for a resolved grid to pay: resolve makes a few proofs per
	// centroid, each costing about as much as a few scans, and the
	// cells between proofs cost about a nanosecond each. At 64 the grid
	// is also always finer than the candidate grid's 4k cells.
	minLookupsPerCentroid = 64
	// maxResolvedCells bounds the resolved grid: 1<<16 int32 cells is
	// 256 KiB, which stays in L2 beside the data being assigned.
	maxResolvedCells = 1 << 16
)

// resolve builds a resolved grid of `cells` cells over the centroid
// range in one sweep over the runs of equal centroids. A run owns the
// cells between the midpoints to its neighbours; cover proves its
// answer over them in three blocks — below the run's value, the cell
// holding it, and above it — so a run costs a few proofs however many
// cells it owns, and the sweep is O(cells + k). A cell no proof covers
// stays 0 and falls back to scan.
func (ix *Index) resolve(cells int) {
	cents := ix.cents
	k := len(cents)
	lo, hi := cents[0], cents[k-1]
	rinv := float64(cells) / (hi - lo)
	if !(rinv > 0) || math.IsInf(rinv, 0) || fputil.IsZero(ix.inv) {
		return
	}
	w := (hi - lo) / float64(cells)
	res := grow32(ix.res, cells)
	clear(res)

	// at returns the cell of x, clamped to [0, cells-1]; it only picks
	// where proofs start and stop.
	at := func(x float64) int {
		f := (x - lo) * rinv
		if f >= float64(cells-1) {
			return cells - 1
		}
		if f > 0 {
			return int(f)
		}
		return 0
	}
	// bounds returns (a, b), cells [i0, i1] widened by 1/64 of a cell on
	// each side, and whether the lookup's own arithmetic confirms that
	// every x it maps into those cells lies strictly inside: it is
	// monotone in x, so checking a and b suffices.
	bounds := func(i0, i1 int) (a, b float64, ok bool) {
		f0, f1 := float64(i0), float64(i1+1)
		a, b = lo+(f0-1.0/64)*w, lo+(f1+1.0/64)*w
		return a, b, (a-lo)*rinv < f0 && (b-lo)*rinv >= f1
	}
	// proves reports whether scan answers r for every x in [a, b], given
	// that cents[p] is the last centroid below r's value and cents[q]
	// the first above it (p = -1, q = k when there is none).
	//   - r is a candidate of every candidate-grid cell [a, b] meets,
	//     and no duplicate of r below it is, so no equal-distance
	//     candidate has a lower index.
	//   - A centroid below r's value must be farther than r from every
	//     x, as scan breaks ties to the lower index. Either r's largest
	//     distance over [a, b] (at a or b: a distance is monotone on each
	//     side of its centroid) is below cents[p]'s distance from a, the
	//     nearest any of them gets; or [a, b] lies at or above r's value,
	//     where x-cents[p] exceeds x-cents[r] by more than the rounding
	//     of either can close: more than an ulp of b-cents[p].
	//   - A centroid above r's value must be no nearer. Either r's
	//     largest distance is at most cents[q]'s from b; or [a, b] lies at
	//     or below r's value, where cents[q]-x >= cents[r]-x and
	//     rounding keeps the order.
	proves := func(r, p, q int, a, b float64) bool {
		ra, rb := ix.cell(a), ix.cell(b)
		if r >= q || r > int(ix.hiCand[ra]) || int(ix.loCand[rb]) > r || (r != p+1 && int(ix.loCand[ra]) != r) {
			return false
		}
		c := cents[r]
		d := math.Abs(c - a)
		if db := math.Abs(c - b); db > d {
			d = db
		}
		below := p < 0 || cents[p] < a && d < math.Abs(cents[p]-a)
		if !below && a >= c {
			v := b - cents[p]
			below = c-cents[p] > 2*(math.Nextafter(v, math.Inf(1))-v)
		}
		above := q == k || b <= c || cents[q] > b && d <= math.Abs(cents[q]-b)
		return below && above
	}
	// cover stores run [p+1, q)'s answer in every cell of [i, last] a
	// proof reaches: the whole span at once, and when that fails, blocks
	// that halve after a failure, double after a success, and skip a
	// cell that fails alone.
	cover := func(i, last, p, q int) {
		for s := last - i + 1; i <= last; {
			e := min(i+s-1, last)
			a, b, ok := bounds(i, e)
			// The lowest index of the run that the candidates reach:
			// scan's answer among equals.
			r := max(p+1, int(ix.loCand[ix.cell(a)]))
			switch {
			case ok && proves(r, p, q, a, b):
				for ; i <= e; i++ {
					// r < k <= 2^24, the bin cap core.Options enforces
					res[i] = int32(r + 1)
				}
				s *= 2
			case s > 1:
				s /= 2
			default:
				i++
			}
		}
	}

	for p, q := -1, 0; q < k; p = q - 1 {
		// The run is cents[p+1 : q].
		for q = p + 2; q < k && fputil.Eq(cents[q], cents[p+1]); q++ {
		}
		first, mid, last := -1, at(cents[p+1]), cells
		if p >= 0 {
			first = at(cents[p] + (cents[p+1]-cents[p])/2)
		}
		if q < k {
			last = at(cents[q-1] + (cents[q]-cents[q-1])/2)
		}
		// The cells holding the midpoints hold values on both sides of
		// them, so no proof can cover those two; the first run reaches
		// down to cell 0 and the last up to cell cells-1.
		cover(first+1, mid-1, p, q)
		cover(mid, mid, p, q)
		cover(mid+1, last-1, p, q)
	}
	ix.rinv, ix.rcells, ix.res = rinv, float64(cells), res
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
	lo, hi := span(data)
	return SeedFromCounts(lo, hi, SeedCounts(data, lo, hi, k), k)
}

// span returns the least and the greatest of data (non-empty).
func span(data []float64) (lo, hi float64) {
	lo, hi = data[0], data[0]
	for _, x := range data[1:] {
		if x < lo {
			lo = x
		}
		if x > hi {
			hi = x
		}
	}
	return lo, hi
}

// SeedCounts is the histogram SeedFromHistogram seeds k clusters from:
// data counted into SeedHistogramBins(k) equal-width bins over [lo, hi],
// x in bin int((x-lo)/w), the last bin closed. Every x must lie in
// [lo, hi]; over a one-value range every x counts in the last bin.
// Counts of parts of the data add up to the counts of the whole, which
// is how ranks holding parts seed together.
func SeedCounts(data []float64, lo, hi float64, k int) []int {
	bins := SeedHistogramBins(k)
	counts := make([]int, bins)
	w := cellWidth(lo, hi, bins)
	for _, x := range data {
		// Compare before converting: x-lo can overflow to +Inf, where
		// int is implementation-defined.
		i := bins - 1
		if f := (x - lo) / w; f < float64(bins-1) {
			i = int(f)
		}
		counts[i]++
	}
	return counts
}

// cellWidth is the width of one of `cells` equal cells over [lo, hi],
// (hi-lo)/cells, taken without forming hi-lo when that overflows: the
// cells of a finite range are finite.
func cellWidth(lo, hi float64, cells int) float64 {
	if w := (hi - lo) / float64(cells); !math.IsInf(w, 0) {
		return w
	}
	return hi/float64(cells) - lo/float64(cells)
}

// cellCenter is the center of cell i of `cells` equal cells over
// [lo, hi], lo + (i+0.5)·cellWidth, or lo·(1-t) + hi·t, t = (i+0.5)/cells,
// where that sum overflows.
func cellCenter(lo, hi float64, i, cells int) float64 {
	t := (float64(i) + 0.5) / float64(cells)
	return finiteAt(lo+(float64(i)+0.5)*cellWidth(lo, hi, cells), lo, hi, t)
}

// finiteAt returns x, a point the caller computed a fraction t into
// [lo, hi] as lo plus a multiple of the width, unless that came out
// non-finite because hi-lo overflowed: then lo·(1-t) + hi·t, which
// cannot.
func finiteAt(x, lo, hi, t float64) float64 {
	if !math.IsInf(x, 0) && !math.IsNaN(x) {
		return x
	}
	return lo*(1-t) + hi*t
}

// SeedHistogramBins returns the number of equal-width histogram bins
// the seeding procedure uses for k clusters.
func SeedHistogramBins(k int) int {
	return max(4*k, 64)
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
		seeds = append(seeds, cellCenter(lo, hi, b.idx, len(counts)))
	}
	// Pad with evenly spaced centers when the data occupies fewer than
	// k histogram bins.
	for i := 0; len(seeds) < k; i++ {
		t := float64(i%k) / float64(k)
		seeds = append(seeds, finiteAt(lo+(hi-lo)*float64(i%k)/float64(k), lo, hi, t))
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
	lo, hi := span(data)
	return UniformSeeds(lo, hi, k)
}

// UniformSeeds is SeedUniform of data whose range is [lo, hi]. The
// seeds of a finite range are finite, even where hi-lo overflows.
func UniformSeeds(lo, hi float64, k int) []float64 {
	seeds := make([]float64, k)
	if k == 1 {
		seeds[0] = finiteAt((lo+hi)/2, lo, hi, 0.5)
		return seeds
	}
	for i := range seeds {
		t := float64(i) / float64(k-1)
		seeds[i] = finiteAt(lo+(hi-lo)*float64(i)/float64(k-1), lo, hi, t)
	}
	return seeds
}

// WithinClusterSS returns the total within-cluster sum of squared
// distances for a result over data — the k-means objective. Used in
// tests.
func WithinClusterSS(data []float64, res *Result) float64 {
	var ss float64
	for i, x := range data {
		d := x - res.Centroids[res.Assign[i]]
		ss += d * d
	}
	return ss
}
