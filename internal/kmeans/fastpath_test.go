package kmeans

// Property tests pinning Index.Nearest. Against the package-level
// binary-search Nearest it must return a centroid at the same distance
// on adversarial centroid sets: duplicates, single entries,
// near-degenerate spacing, and extreme magnitudes. Against gridIndex, a
// verbatim copy of the candidate-grid index as it was before the
// resolved grid existed, it must return the same index: among
// duplicates the grid's choice is in the bytes of every encode with a
// duplicate representative. Probes stay finite — the encode pipeline
// only looks up finite ratios (RatioOK excludes NaN/±Inf before
// assignment).

import (
	"encoding/binary"
	"math"
	"math/rand"
	"sort"
	"testing"

	"numarck/internal/fputil"
)

func adversarialCentroidSets(rng *rand.Rand) [][]float64 {
	sets := [][]float64{
		{0},
		{1, 1, 1, 1},                        // all duplicates
		{-2, -2, 0, 0, 3},                   // duplicate runs
		{1, 1 + 1e-15, 1 + 2e-15},           // adjacent floats
		{-1e300, 0, 1e300},                  // extreme span
		{-1e308, -1e308, 0.5, 1e308, 1e308}, // span past MaxFloat64: no grid
		{-0.001, 0.001},
	}
	for c := 0; c < 6; c++ {
		n := 1 + rng.Intn(300)
		cents := make([]float64, n)
		for i := range cents {
			cents[i] = rng.NormFloat64() * math.Exp(float64(rng.Intn(8)))
			if i > 0 && rng.Intn(5) == 0 {
				cents[i] = cents[i-1]
			}
		}
		sort.Float64s(cents)
		sets = append(sets, cents)
	}
	return sets
}

func TestIndexNearestMatchesBinarySearch(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for si, cents := range adversarialCentroidSets(rng) {
		sort.Float64s(cents)
		ix := NewIndex(cents)
		probes := append([]float64{}, cents...)
		for j := 1; j < len(cents); j++ {
			mid := cents[j-1] + (cents[j]-cents[j-1])/2
			probes = append(probes, mid,
				math.Nextafter(mid, math.Inf(-1)), math.Nextafter(mid, math.Inf(1)))
		}
		for i := 0; i < 2000; i++ {
			probes = append(probes, rng.NormFloat64()*math.Exp(float64(rng.Intn(12)-4)))
		}
		probes = append(probes, -1e307, 1e307, 0, 5e-324, -5e-324)
		for _, p := range probes {
			fast := ix.Nearest(p)
			slow := Nearest(cents, p)
			if fast == slow {
				continue
			}
			// With duplicate centroids several indices are equally
			// near; accept any index at the same distance.
			if math.Abs(cents[fast]-p) != math.Abs(cents[slow]-p) {
				t.Fatalf("set %d: Index.Nearest(%v) = %d (cent %v), Nearest = %d (cent %v)",
					si, p, fast, cents[fast], slow, cents[slow])
			}
		}
	}
}

// gridIndex is the candidate-grid index exactly as it answered before
// the resolved grid: the oracle every Index must reproduce index for
// index.
type gridIndex struct {
	cents    []float64
	lo, inv  float64
	loCand   []int32
	hiCand   []int32
	lastCell int
}

func newGridIndex(cents []float64) *gridIndex {
	k := len(cents)
	ix := &gridIndex{cents: cents}
	lo, hi := cents[0], cents[k-1]
	if hi <= lo {
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
		if last >= k {
			last = k - 1
		}
		ix.loCand[i] = int32(first)
		ix.hiCand[i] = int32(last)
	}
	return ix
}

func (ix *gridIndex) Nearest(x float64) int {
	cell := 0
	if !fputil.IsZero(ix.inv) {
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

// gridProbes returns the probes that stress both grids of an index
// over cents: every centroid, every midpoint between neighbours, and
// every edge of either grid, each with its neighbours up to 4 ulp away.
func gridProbes(cents []float64, ix *Index) []float64 {
	var base []float64
	base = append(base, cents...)
	for j := 1; j < len(cents); j++ {
		base = append(base, cents[j-1]+(cents[j]-cents[j-1])/2)
	}
	lo, hi := cents[0], cents[len(cents)-1]
	for _, cells := range []int{len(ix.loCand), int(ix.rcells)} {
		if cells == 0 || !(hi > lo) {
			continue
		}
		w := (hi - lo) / float64(cells)
		for i := 0; i <= cells; i++ {
			base = append(base, lo+float64(i)*w)
		}
	}
	probes := make([]float64, 0, 9*len(base))
	for _, x := range base {
		down, up := x, x
		probes = append(probes, x)
		for u := 0; u < 4; u++ {
			down, up = math.Nextafter(down, math.Inf(-1)), math.Nextafter(up, math.Inf(1))
			probes = append(probes, down, up)
		}
	}
	return probes
}

// resolvedSets returns centroid sets for the resolved-grid pin at the
// given size: duplicate runs, runs of adjacent floats, centroids at ±0,
// and a dense core with wide tails like a learned table.
func resolvedSets(rng *rand.Rand, k int) [][]float64 {
	dense := make([]float64, k)
	for i := range dense {
		if rng.Intn(20) == 0 {
			dense[i] = 0.3 * rng.NormFloat64()
		} else {
			dense[i] = 0.004 * rng.NormFloat64()
		}
	}
	dups := make([]float64, k)
	for i := range dups {
		dups[i] = float64(rng.Intn(k/3+1)) * 0.01
	}
	adjacent := make([]float64, k)
	adjacent[0] = 1
	for i := 1; i < k; i++ {
		adjacent[i] = adjacent[i-1]
		if rng.Intn(3) != 0 {
			adjacent[i] = math.Nextafter(adjacent[i], 2)
		}
	}
	zeros := make([]float64, k)
	for i := range zeros {
		switch rng.Intn(4) {
		case 0:
			zeros[i] = 0
		case 1:
			zeros[i] = math.Copysign(0, -1)
		default:
			zeros[i] = rng.NormFloat64() * math.Exp(float64(rng.Intn(6)-3))
		}
	}
	sets := [][]float64{dense, dups, adjacent, zeros}
	if k >= 3 {
		// The absorption trap: a tiny centroid beside 0, where the
		// rounded distances of far values tie.
		sets = append(sets, append([]float64{-1e-300, 0, math.Copysign(0, -1)}, dense[3:]...))
	}
	for _, s := range sets {
		sort.Float64s(s)
	}
	return sets
}

// TestIndexResolvedMatchesGrid pins the resolved grid to the candidate
// grid it caches: at the smallest and the largest resolved grid for k
// centroids, Nearest must return the very index gridIndex returns, not
// merely an equally near one, on every probe of gridProbes.
func TestIndexResolvedMatchesGrid(t *testing.T) {
	rng := rand.New(rand.NewSource(40))
	for _, k := range []int{1, 2, 7, 255, 4095} {
		sizes := []int{1 << 30}
		if smallest := minLookupsPerCentroid * k; smallest < maxResolvedCells {
			sizes = append(sizes, smallest)
		}
		for si, cents := range resolvedSets(rng, k) {
			oracle := newGridIndex(cents)
			for _, lookups := range sizes {
				ix := NewIndexFor(cents, lookups)
				if k > 1 && cents[0] < cents[k-1] && ix.rcells == 0 {
					t.Errorf("k=%d set %d: no resolved grid at %d lookups", k, si, lookups)
				}
				for _, x := range gridProbes(cents, ix) {
					if got, want := ix.Nearest(x), oracle.Nearest(x); got != want {
						t.Fatalf("k=%d set %d lookups=%d: Nearest(%v) = %d (%v), grid = %d (%v)",
							k, si, lookups, x, got, cents[got], want, cents[want])
					}
				}
			}
		}
	}
}

// FuzzIndexNearestMatchesGrid draws centroid sets and probes from raw
// bits, so non-normal spacings, ±0, subnormals and huge spans all
// occur, and requires the resolved index to answer as gridIndex does.
func FuzzIndexNearestMatchesGrid(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0xf0, 0x3f, 0, 0, 0, 0, 0, 0, 0, 0x40}, uint16(4096))
	f.Add([]byte{1, 0, 0, 0, 0, 0, 0, 0x80, 0, 0, 0, 0, 0, 0, 0, 0, 0x9a, 0x99, 0x99, 0x99, 0x99, 0x99, 0xb9, 0x3f}, uint16(60000))
	f.Fuzz(func(t *testing.T, raw []byte, lookups uint16) {
		var cents []float64
		for ; len(raw) >= 8 && len(cents) < 64; raw = raw[8:] {
			x := math.Float64frombits(binary.LittleEndian.Uint64(raw))
			if math.IsNaN(x) || math.IsInf(x, 0) {
				continue
			}
			cents = append(cents, x)
		}
		if len(cents) == 0 {
			return
		}
		sort.Float64s(cents)
		ix := NewIndexFor(cents, int(lookups))
		oracle := newGridIndex(cents)
		for _, x := range gridProbes(cents, ix) {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				continue
			}
			if got, want := ix.Nearest(x), oracle.Nearest(x); got != want {
				t.Fatalf("Nearest(%v) = %d (%v), grid = %d (%v) over %v", x, got, cents[got], want, cents[want], cents)
			}
		}
	})
}
