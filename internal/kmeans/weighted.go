// The mergeable histogram sketch behind the parallel table-learning
// path. The NUMARCK authors' follow-up paper parallelizes exactly this
// step: each data partition is summarized independently and the
// summaries are merged into one weighted clustering problem
// (RunWeighted) whose solution stands in for k-means over the union of
// the data. Here the per-partition summary is a fixed-grid
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
