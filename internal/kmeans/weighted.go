// Weighted k-means and the mergeable histogram sketch behind the
// parallel table-learning path. The NUMARCK authors' follow-up paper
// parallelizes exactly this step: each data partition is summarized
// independently and the summaries are merged into one weighted
// clustering problem whose solution stands in for k-means over the
// union of the data. Here the per-partition summary is a fixed-grid
// histogram Sketch that keeps each cell's population and value sum, so
// a merged cell reduces to a weighted micro-centroid (the exact mean of
// the values that fell in it) and the merge is a pure element-wise sum
// — associative, commutative in the integer fields, and cheap.
package kmeans

import (
	"fmt"
	"math"
	"sort"

	"numarck/internal/fputil"
)

// Sketch is a fixed-grid summary of a value set over [Lo, Hi]: cell i
// holds the count and sum of the values that fell in it. Two sketches
// over the same grid merge by element-wise addition, and each occupied
// cell yields a weighted micro-centroid (sum/count weighted by count)
// for RunWeighted. Build one sketch per data partition concurrently,
// merge them in a fixed order, and the result depends only on the data
// and the partition boundaries — not on how many goroutines built it.
//
// A sketch lists the cells it has touched, so Merge and Reset cost
// O(touched cells), not O(cells): a worker can refill one sketch per
// partition and merge each into a global one at the price of the
// partition's data. Skipping the untouched cells is exact, because an
// untouched cell's Sum is +0 and no cell's Sum is ever −0 (it starts
// at +0, and +0 + −0 is +0), so adding it changes nothing.
type Sketch struct {
	// Lo and Hi are the inclusive value range the grid covers; values
	// outside are clamped into the boundary cells.
	Lo, Hi float64
	// Count[i] and Sum[i] are cell i's population and value sum. Read
	// them; only Add, Merge and Reset may change them.
	Count []int64
	Sum   []float64

	inv     float64 // len(Count) / (Hi - Lo), 0 when the range is empty
	touched []int32 // the cells with Count > 0, in first-touch order
}

// NewSketch returns an empty sketch of `bins` cells over [lo, hi].
// bins must be >= 1 and lo <= hi.
func NewSketch(lo, hi float64, bins int) *Sketch {
	s := new(Sketch)
	s.Regrid(lo, hi, bins)
	return s
}

// Regrid empties the sketch and moves it onto `bins` cells over
// [lo, hi], as NewSketch(lo, hi, bins) would return it, reusing its
// arrays when they have room for that many cells: a pooled sketch
// serves fits of any range. Reset zeroes every cell Add or Merge set,
// so the cells a shorter grid leaves out of Count are zero when a
// longer one takes them back.
func (s *Sketch) Regrid(lo, hi float64, bins int) {
	s.Reset()
	if cap(s.Count) < bins {
		s.Count, s.Sum, s.touched = make([]int64, bins), make([]float64, bins), make([]int32, 0, bins)
	}
	s.Lo, s.Hi, s.Count, s.Sum, s.inv = lo, hi, s.Count[:bins], s.Sum[:bins], 0
	if hi > lo {
		s.inv = float64(bins) / (hi - lo)
		if fputil.IsZero(s.inv) {
			// hi-lo overflowed.
			s.inv = 1 / cellWidth(lo, hi, bins)
		}
	}
}

// Add folds xs into the sketch. Values outside [Lo, Hi] land in the
// first or last cell.
func (s *Sketch) Add(xs []float64) {
	last := len(s.Count) - 1
	for _, x := range xs {
		i := 0
		if !fputil.IsZero(s.inv) {
			// Compare before converting: int(f) is implementation-
			// defined once f exceeds the int range.
			f := (x - s.Lo) * s.inv
			if f >= float64(last) {
				i = last
			} else if f > 0 {
				i = int(f)
			}
		}
		if s.Count[i] == 0 {
			// i < bins, and sketches stay far below 2^31 cells
			s.touched = append(s.touched, int32(i))
		}
		s.Count[i]++
		s.Sum[i] += x
	}
}

// Merge folds o into s. Both must share the same grid (range and cell
// count).
func (s *Sketch) Merge(o *Sketch) error {
	if len(o.Count) != len(s.Count) || !fputil.Eq(o.Lo, s.Lo) || !fputil.Eq(o.Hi, s.Hi) {
		return fmt.Errorf("kmeans: merging sketches over different grids")
	}
	for _, i := range o.touched {
		if s.Count[i] == 0 {
			s.touched = append(s.touched, i)
		}
		s.Count[i] += o.Count[i]
		s.Sum[i] += o.Sum[i]
	}
	return nil
}

// Reset empties the sketch, keeping its grid and its arrays.
func (s *Sketch) Reset() {
	for _, i := range s.touched {
		s.Count[i], s.Sum[i] = 0, 0
	}
	s.touched = s.touched[:0]
}

// Points returns the occupied cells as weighted micro-centroids: the
// exact mean of each cell's values, weighted by its population. The
// points come out sorted ascending (cells are visited in grid order and
// cell means are ordered by construction up to ties at cell edges, so a
// final sort keeps the contract cheap and certain).
func (s *Sketch) Points() (centers, weights []float64) {
	centers = make([]float64, 0, len(s.Count))
	weights = make([]float64, 0, len(s.Count))
	for i, c := range s.Count {
		if c == 0 {
			continue
		}
		mean := s.Sum[i] / float64(c)
		if math.IsInf(mean, 0) {
			// The cell's sum overflowed; its values are gone, but its
			// mean lies in the cell.
			mean = cellCenter(s.Lo, s.Hi, i, len(s.Count))
		}
		centers = append(centers, mean)
		weights = append(weights, float64(c))
	}
	sort.Sort(&pairSort{centers, weights})
	return centers, weights
}

// pairSort sorts centers ascending, carrying weights along.
type pairSort struct{ c, w []float64 }

func (p *pairSort) Len() int           { return len(p.c) }
func (p *pairSort) Less(i, j int) bool { return p.c[i] < p.c[j] }
func (p *pairSort) Swap(i, j int) {
	p.c[i], p.c[j] = p.c[j], p.c[i]
	p.w[i], p.w[j] = p.w[j], p.w[i]
}

// RunWeighted clusters weighted points into cfg.K groups: Lloyd
// iterations where each point contributes weight w to its centroid's
// mean. It is the merge step of the parallel table-learning path — the
// points are micro-centroids from Sketch.Points, so the weighted
// objective approximates plain k-means over the summarized data. The
// run is sequential and deterministic: the point sets it sees are small
// (one per occupied sketch cell), so a goroutine fan-out would cost
// more in merge nondeterminism than it buys. cfg.Workers is ignored.
// len(weights) must equal len(points) and every weight must be > 0.
func RunWeighted(points, weights []float64, cfg Config) (*Result, error) {
	if len(points) == 0 {
		return nil, ErrNoData
	}
	if len(weights) != len(points) {
		return nil, fmt.Errorf("kmeans: %d weights for %d points", len(weights), len(points))
	}
	if cfg.K < 1 {
		return nil, fmt.Errorf("kmeans: K must be >= 1, got %d", cfg.K)
	}
	for i, x := range points {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return nil, fmt.Errorf("kmeans: non-finite point %v at index %d", x, i)
		}
		if !(weights[i] > 0) || math.IsInf(weights[i], 0) {
			return nil, fmt.Errorf("kmeans: weight %v at index %d (want finite > 0)", weights[i], i)
		}
	}
	if cfg.K > len(points) {
		cfg.K = len(points)
	}
	if cfg.MaxIter <= 0 {
		cfg.MaxIter = 100
	}
	if cfg.Tol <= 0 {
		cfg.Tol = 1e-12
	}

	cents := cfg.Seeds
	if cents == nil {
		cents = SeedFromHistogram(points, cfg.K)
	}
	if len(cents) != cfg.K {
		return nil, fmt.Errorf("kmeans: %d seeds for K=%d", len(cents), cfg.K)
	}
	cents = append([]float64(nil), cents...)
	sort.Float64s(cents)

	res := &Result{
		Centroids: cents,
		Assign:    make([]int, len(points)),
		Sizes:     make([]int, cfg.K),
	}
	sum := make([]float64, cfg.K)
	wsum := make([]float64, cfg.K)
	count := make([]int, cfg.K)
	ix := &Index{}
	for iter := 0; iter < cfg.MaxIter; iter++ {
		res.Iterations = iter + 1
		ix.reset(res.Centroids)
		for c := 0; c < cfg.K; c++ {
			sum[c], wsum[c], count[c] = 0, 0, 0
		}
		for i, x := range points {
			c := ix.Nearest(x)
			res.Assign[i] = c
			sum[c] += x * weights[i]
			wsum[c] += weights[i]
			count[c]++
		}
		moved := 0.0
		for c := 0; c < cfg.K; c++ {
			res.Sizes[c] = count[c]
			if count[c] == 0 {
				continue // empty cluster keeps its centroid
			}
			next := sum[c] / wsum[c]
			if math.IsInf(next, 0) {
				next = meanOf(points, weights, res.Assign, c, wsum[c])
			}
			if d := math.Abs(next - res.Centroids[c]); d > moved {
				moved = d
			}
			res.Centroids[c] = next
		}
		if moved < cfg.Tol {
			res.Converged = true
			break
		}
	}
	return res, nil
}
