package core

import (
	"fmt"
	"math"
	"sort"

	"numarck/internal/fputil"
	"numarck/internal/kmeans"
)

// Binner is a learned partition of the large change ratios into at most
// k groups, each approximated by a representative ratio. Lookup must be
// safe for concurrent use once fitting has finished; the encode driver
// assigns chunks, and ranges of a chunk, against one shared Binner.
type Binner interface {
	// Representatives returns one representative ratio per group. Its
	// length is at most 2^B - 1; group g is stored as index g+1 (index
	// 0 being reserved for "unchanged").
	Representatives() []float64
	// Lookup returns the group for ratio d (an index into
	// Representatives).
	Lookup(d float64) int
}

// fitBinner learns a partition of data (the table input, see
// Ratios.tableInput) using the configured strategy. data must be
// non-empty; opt must be validated.
func fitBinner(data []float64, opt Options) (Binner, error) {
	k := opt.NumBins()
	switch opt.Strategy {
	case EqualWidth:
		return fitEqualWidth(data, k, opt.Workers), nil
	case LogScale:
		return fitLogScale(data, k, opt.Workers), nil
	case Clustering:
		return fitClustering(data, k, opt)
	case EqualFrequency:
		return fitEqualFrequency(data, k), nil
	default:
		return nil, fmt.Errorf("%w: unknown strategy %d", ErrBadOptions, int(opt.Strategy))
	}
}

// fitEqualFrequency builds quantile bins: sort the ratios, cut into k
// equal-population groups, and represent each by its mean. Lookup is a
// nearest-representative search, so the learned table behaves exactly
// like a fixed table (EncodeWithTable) built from quantile statistics.
func fitEqualFrequency(data []float64, k int) *tableBinner {
	sorted := append([]float64(nil), data...)
	sort.Float64s(sorted)
	if k > len(sorted) {
		k = len(sorted)
	}
	reps := make([]float64, 0, k)
	for g := 0; g < k; g++ {
		lo := g * len(sorted) / k
		hi := (g + 1) * len(sorted) / k
		if lo >= hi {
			continue
		}
		var sum float64
		for _, v := range sorted[lo:hi] {
			sum += v
		}
		reps = append(reps, sum/float64(hi-lo))
	}
	// Means of sorted, disjoint groups are non-decreasing; dedupe so
	// the nearest-rep index sees strictly ordered values.
	dedup := reps[:0]
	for i, r := range reps {
		if i == 0 || !fputil.Eq(r, dedup[len(dedup)-1]) {
			dedup = append(dedup, r)
		}
	}
	return newTableBinner(dedup)
}

// equalWidthBinner partitions [lo, hi] into k equal bins; each ratio is
// represented by its bin center (§II-C1). When the bin width exceeds
// 2E, points near bin edges fail the error check and become
// incompressible — the weakness the paper calls out.
type equalWidthBinner struct {
	lo, width float64
	reps      []float64
}

func fitEqualWidth(data []float64, k, workers int) *equalWidthBinner {
	lo, hi := parMinMax(data, workers)
	if fputil.Eq(lo, hi) {
		return &equalWidthBinner{lo: lo, width: 0, reps: []float64{lo}}
	}
	b := &equalWidthBinner{lo: lo, width: (hi - lo) / float64(k), reps: make([]float64, k)}
	for i := range b.reps {
		b.reps[i] = lo + (float64(i)+0.5)*b.width
	}
	return b
}

func (b *equalWidthBinner) Representatives() []float64 { return b.reps }

func (b *equalWidthBinner) Lookup(d float64) int {
	if fputil.IsZero(b.width) {
		return 0
	}
	i := int((d - b.lo) / b.width)
	if i < 0 {
		i = 0
	}
	if i >= len(b.reps) {
		i = len(b.reps) - 1
	}
	return i
}

// logScaleBinner assigns ratios to bins by the e-based logarithm of
// their magnitude (§II-C2), with separate bin ranges for negative and
// positive ratios sized proportionally to each side's population. Small
// changes get narrow bins, large changes wide ones, so a large dynamic
// range is covered with the same 2^B - 1 bins.
type logScaleBinner struct {
	neg, pos logSide
	reps     []float64 // negative side first, then positive
}

// logSide is one sign's log-spaced binning over [minAbs, maxAbs].
//
// Lookup has two paths. The slow path evaluates the defining formula
// (a math.Log per point). The fast path exploits the fact that
// math.Float64bits is monotone over positive floats: the magnitude
// range [minAbs, maxAbs] becomes an integer interval of bit patterns,
// which a right shift tiles into equal cells. Each cell precomputes its
// bin where the formula gives the same answer at both cell edges —
// monotonicity then guarantees every interior value agrees — and marks
// itself ambiguous (-1) otherwise, falling back to the formula. The
// fast path is therefore bit-identical to the slow one by construction
// (TestLogLookupFastMatchesSlow exercises adversarial inputs).
type logSide struct {
	k          int // number of bins (0 if the side is empty)
	base       int // offset of this side's first rep in reps
	logLo, spn float64

	loBits, hiBits uint64 // Float64bits of minAbs / maxAbs
	shift          uint   // bits per LUT cell
	lut            []int32 // per-cell bin, -1 = take the slow path
}

func fitLogScale(data []float64, k, workers int) *logScaleBinner {
	// The per-sign magnitude statistics come from fixed-range parallel
	// scans (parfit.go): count/min/max merge exactly, so the learned
	// table is the same for any worker count. Zero-magnitude ratios are
	// skipped; they hit the nearest-rep fallback in Lookup.
	neg, pos := parSignStats(data, workers)
	b := &logScaleBinner{}
	kNeg, kPos := splitBins(k, neg.n, pos.n)
	if kNeg > 0 {
		b.neg = makeLogSide(kNeg, 0, neg.min, neg.max)
		b.neg.buildLUT(neg.min, neg.max)
	}
	if kPos > 0 {
		b.pos = makeLogSide(kPos, kNeg, pos.min, pos.max)
		b.pos.buildLUT(pos.min, pos.max)
	}
	b.reps = make([]float64, 0, kNeg+kPos)
	for i := 0; i < kNeg; i++ {
		b.reps = append(b.reps, -math.Exp(b.neg.logLo+(float64(i)+0.5)*b.neg.spn/float64(b.neg.k)))
	}
	for i := 0; i < kPos; i++ {
		b.reps = append(b.reps, math.Exp(b.pos.logLo+(float64(i)+0.5)*b.pos.spn/float64(b.pos.k)))
	}
	if len(b.reps) == 0 {
		// Degenerate input (all zeros); one zero representative.
		b.reps = []float64{0}
	}
	return b
}

// splitBins divides k bins between the negative and positive sides in
// proportion to their populations, guaranteeing each non-empty side at
// least one bin.
func splitBins(k, nNeg, nPos int) (kNeg, kPos int) {
	switch {
	case nNeg == 0 && nPos == 0:
		return 0, 0
	case nNeg == 0:
		return 0, k
	case nPos == 0:
		return k, 0
	}
	kNeg = int(math.Round(float64(k) * float64(nNeg) / float64(nNeg+nPos)))
	if kNeg < 1 {
		kNeg = 1
	}
	if kNeg > k-1 {
		kNeg = k - 1
	}
	return kNeg, k - kNeg
}

func makeLogSide(k, base int, minAbs, maxAbs float64) logSide {
	logLo := math.Log(minAbs)
	spn := math.Log(maxAbs) - logLo
	if spn <= 0 {
		spn = 0
	}
	return logSide{k: k, base: base, logLo: logLo, spn: spn}
}

// slowIndex is the defining log-formula bin computation, clamped to
// [0, k-1]. The LUT is built from it and falls back to it, so every
// fast answer is provably one this function would give.
func (s *logSide) slowIndex(absD float64) int {
	// Compare before converting: a magnitude far outside the fitted
	// range (possible when the table was learned on a sample) with a
	// near-degenerate span can push f past the int range, where int(f)
	// is implementation-defined.
	f := float64(s.k) * (math.Log(absD) - s.logLo) / s.spn
	if f >= float64(s.k-1) {
		return s.k - 1
	}
	if f > 0 {
		return int(f)
	}
	return 0
}

// lookupSlow is the pre-LUT lookup, kept as the reference oracle for
// the fast-path property tests.
func (s *logSide) lookupSlow(absD float64) int {
	if s.k == 0 {
		return -1
	}
	if fputil.IsZero(s.spn) {
		return s.base
	}
	return s.base + s.slowIndex(absD)
}

// maxLUTCells bounds the bits-grid lookup table per sign: 4096 int32
// cells is 16 KiB, within L1 alongside the data being scanned.
const maxLUTCells = 4096

// buildLUT precomputes the bits-grid fast path over [minAbs, maxAbs].
// Both bounds must be positive (guaranteed: zero magnitudes are skipped
// by the sign-stat scan) and the side non-degenerate (spn > 0).
func (s *logSide) buildLUT(minAbs, maxAbs float64) {
	if s.k == 0 || fputil.IsZero(s.spn) {
		return
	}
	s.loBits = math.Float64bits(minAbs)
	s.hiBits = math.Float64bits(maxAbs)
	span := s.hiBits - s.loBits
	s.shift = 0
	for (span >> s.shift) >= maxLUTCells {
		s.shift++
	}
	cells := int(span>>s.shift) + 1
	s.lut = make([]int32, cells)
	for c := 0; c < cells; c++ {
		start := s.loBits + uint64(c)<<s.shift
		end := start + 1<<s.shift - 1
		if end > s.hiBits {
			end = s.hiBits
		}
		first := s.slowIndex(math.Float64frombits(start))
		last := s.slowIndex(math.Float64frombits(end))
		if first == last {
			// bin index < k <= 2^MaxIndexBits, enforced by Options.Validate
			s.lut[c] = int32(first)
		} else {
			s.lut[c] = -1
		}
	}
}

func (s *logSide) lookup(absD float64) int {
	if s.k == 0 {
		return -1
	}
	if fputil.IsZero(s.spn) {
		return s.base
	}
	if s.lut != nil {
		b := math.Float64bits(absD)
		if b <= s.loBits {
			return s.base // slowIndex clamps everything below minAbs to 0
		}
		if b >= s.hiBits {
			return s.base + s.k - 1 // and everything above maxAbs to k-1
		}
		if g := s.lut[(b-s.loBits)>>s.shift]; g >= 0 {
			return s.base + int(g)
		}
	}
	return s.base + s.slowIndex(absD)
}

func (b *logScaleBinner) Representatives() []float64 { return b.reps }

func (b *logScaleBinner) Lookup(d float64) int {
	var i int
	switch {
	case d < 0:
		i = b.neg.lookup(-d)
	case d > 0:
		i = b.pos.lookup(d)
	default:
		i = -1
	}
	if i >= 0 {
		return i
	}
	return b.nearestRep(d)
}

// LookupSlow is Lookup through the pre-LUT formula path, kept as the
// oracle for the fast-path property tests: Lookup must agree with it on
// every input.
func (b *logScaleBinner) LookupSlow(d float64) int {
	var i int
	switch {
	case d < 0:
		i = b.neg.lookupSlow(-d)
	case d > 0:
		i = b.pos.lookupSlow(d)
	default:
		i = -1
	}
	if i >= 0 {
		return i
	}
	return b.nearestRep(d)
}

// nearestRep is the shared fallback for a zero ratio or a sign with no
// bins (possible only in the DisableZeroIndex ablation): the nearest
// representative by absolute distance.
func (b *logScaleBinner) nearestRep(d float64) int {
	best, bestDist := 0, math.Inf(1)
	for j, r := range b.reps {
		if dist := math.Abs(r - d); dist < bestDist {
			best, bestDist = j, dist
		}
	}
	return best
}

// clusterBinner approximates each ratio by its k-means centroid
// (§II-C3). Centroids are seeded from the equal-width histogram as in
// the paper (or uniformly, for the seeding ablation). Lookup runs
// through the kmeans uniform-grid index over the sorted centroids — the
// branch-light equivalent of a sorted-centroid midpoint table: each
// grid cell already knows the 1-3 centroids whose midpoints cross it,
// and single-candidate cells resolve without any comparison.
type clusterBinner struct {
	cents []float64
	ix    *kmeans.Index
}

func fitClustering(data []float64, k int, opt Options) (*clusterBinner, error) {
	if k > len(data) {
		k = len(data) // never more clusters than points
	}
	if len(data) > 2*sketchBins(k) {
		// Large input: learn over per-range sketches concurrently and
		// merge (parfit.go). Lloyd then iterates over at most
		// sketchBins(k) weighted micro-centroids instead of len(data)
		// points, which is where the clustering table stage's time goes.
		b, err := fitClusteringSketch(data, k, opt)
		if err != nil {
			return nil, fmt.Errorf("core: clustering strategy: %w", err)
		}
		return b, nil
	}
	cfg := kmeans.Config{
		K:       k,
		MaxIter: opt.KMeansMaxIter,
		Workers: opt.Workers,
	}
	if opt.UniformSeeding {
		cfg.Seeds = kmeans.SeedUniform(data, k)
	}
	res, err := kmeans.Run(data, cfg)
	if err != nil {
		return nil, fmt.Errorf("core: clustering strategy: %w", err)
	}
	return &clusterBinner{cents: res.Centroids, ix: kmeans.NewIndex(res.Centroids)}, nil
}

func (b *clusterBinner) Representatives() []float64 { return b.cents }

func (b *clusterBinner) Lookup(d float64) int {
	return b.ix.Nearest(d)
}

// tableBinner assigns each ratio to the nearest entry of a fixed,
// externally supplied table (EncodeWithTable).
type tableBinner struct {
	reps []float64 // sorted ascending
	ix   *kmeans.Index
}

func newTableBinner(table []float64) *tableBinner {
	reps := append([]float64(nil), table...)
	sort.Float64s(reps)
	return &tableBinner{reps: reps, ix: kmeans.NewIndex(reps)}
}

func (b *tableBinner) Representatives() []float64 { return b.reps }

func (b *tableBinner) Lookup(d float64) int {
	return b.ix.Nearest(d)
}

// EqualWidthTable returns the representative table the equal-width
// strategy would learn for ratios spanning [lo, hi]: the centers of k
// uniform bins. Exported for global (cross-rank) table construction.
func EqualWidthTable(lo, hi float64, k int) []float64 {
	if k < 1 {
		return nil
	}
	if fputil.Eq(lo, hi) {
		return []float64{lo}
	}
	w := (hi - lo) / float64(k)
	reps := make([]float64, k)
	for i := range reps {
		reps[i] = lo + (float64(i)+0.5)*w
	}
	return reps
}

// LogScaleTable returns the representative table the log-scale strategy
// would learn for ratios whose negative side spans magnitudes
// [negMin, negMax] with nNeg points and positive side [posMin, posMax]
// with nPos points. Sides with zero points get no bins. Exported for
// global (cross-rank) table construction.
func LogScaleTable(negMin, negMax float64, nNeg int, posMin, posMax float64, nPos int, k int) []float64 {
	kNeg, kPos := splitBins(k, nNeg, nPos)
	reps := make([]float64, 0, kNeg+kPos)
	if kNeg > 0 {
		side := makeLogSide(kNeg, 0, negMin, negMax)
		for i := 0; i < kNeg; i++ {
			reps = append(reps, -math.Exp(side.logLo+(float64(i)+0.5)*side.spn/float64(side.k)))
		}
	}
	if kPos > 0 {
		side := makeLogSide(kPos, kNeg, posMin, posMax)
		for i := 0; i < kPos; i++ {
			reps = append(reps, math.Exp(side.logLo+(float64(i)+0.5)*side.spn/float64(side.k)))
		}
	}
	if len(reps) == 0 {
		reps = []float64{0}
	}
	return reps
}

func minMax(xs []float64) (lo, hi float64) {
	lo, hi = xs[0], xs[0]
	for _, x := range xs[1:] {
		if x < lo {
			lo = x
		}
		if x > hi {
			hi = x
		}
	}
	return lo, hi
}
