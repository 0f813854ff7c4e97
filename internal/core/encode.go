package core

import (
	"fmt"
	"math"
	"runtime"
	"sync"

	"numarck/internal/bitpack"
	"numarck/internal/obs"
	"numarck/internal/stats"
)

// Encoded is one NUMARCK-compressed checkpoint iteration: the learned
// bin table, a B-bit index per point, and exact values for the points
// the error bound forced to be stored raw.
type Encoded struct {
	// Opt is the normalized options the encode ran with.
	Opt Options
	// N is the number of data points.
	N int
	// BinRatios[g] is the representative change ratio of group g.
	// Index value g+1 in the index stream refers to BinRatios[g];
	// index value 0 means "change within tolerance of zero".
	// len(BinRatios) <= 2^B - 1.
	BinRatios []float64
	// Indices[j] is point j's index value in [0, 2^B).
	Indices []uint32
	// Incompressible flags the points stored exactly.
	Incompressible *bitpack.Bitmap
	// Exact holds the exact current values of the incompressible
	// points, in increasing point order.
	Exact []float64

	// TrueRatios[j] is the actual change ratio of point j (0 where no
	// ratio exists). Kept for error accounting; it is NOT part of the
	// serialized format.
	TrueRatios []float64
}

// Encode compresses the transition prev → cur under opt. Both slices
// must have the same length and contain only finite values; prev is the
// (possibly reconstructed) previous checkpoint and cur the current one.
func Encode(prev, cur []float64, opt Options) (*Encoded, error) {
	// Validate before capturing opt in the fit closure: fitBinner must
	// see the resolved defaults (notably KMeansMaxIter), or the learned
	// table would differ from one fitted through core.Fit on validated
	// options, breaking the in-memory/streaming byte-identity.
	vopt, err := opt.Validate()
	if err != nil {
		return nil, err
	}
	return encodeWith(prev, cur, vopt, func(large []float64) (Binner, error) {
		return fitBinner(large, vopt)
	})
}

// EncodeWithTable compresses prev → cur against a fixed table of
// representative ratios instead of learning one from this data. Each
// large ratio is assigned to the nearest table entry; the error bound
// is enforced exactly as in Encode. This is how distributed encoding
// shares one globally learned table across ranks (internal/dist), and
// how a table learned on iteration i can be reused for iteration i+1.
// len(table) must be in (0, 2^B-1]; entries must be finite.
func EncodeWithTable(prev, cur []float64, table []float64, opt Options) (*Encoded, error) {
	vopt, err := opt.Validate()
	if err != nil {
		return nil, err
	}
	if len(table) == 0 {
		return nil, fmt.Errorf("%w: empty representative table", ErrBadOptions)
	}
	if len(table) > vopt.NumBins() {
		return nil, fmt.Errorf("%w: table of %d entries exceeds 2^%d-1 bins", ErrBadOptions, len(table), vopt.IndexBits)
	}
	for i, r := range table {
		if math.IsNaN(r) || math.IsInf(r, 0) {
			return nil, fmt.Errorf("%w: non-finite table entry %v at %d", ErrBadOptions, r, i)
		}
	}
	tb := newTableBinner(table)
	return encodeWith(prev, cur, opt, func([]float64) (Binner, error) {
		return tb, nil
	})
}

// encodeWith is the shared in-memory encode pipeline, built from the
// same reusable stages the streaming encoder (internal/chunk) runs per
// chunk: ComputeRatios → Ratios.TableInput → fit → AssignChunk. Keeping
// both paths on the same stage functions is what makes streaming output
// byte-identical to this path.
func encodeWith(prev, cur []float64, opt Options, fit func([]float64) (Binner, error)) (*Encoded, error) {
	opt, err := opt.Validate()
	if err != nil {
		return nil, err
	}
	rec := opt.Obs
	t := rec.Start()
	ratios, err := ComputeRatios(prev, cur, opt.Workers)
	t.Stop(obs.StageRatio)
	if err != nil {
		return nil, err
	}
	n := len(cur)
	e := &Encoded{
		Opt:            opt,
		N:              n,
		Indices:        make([]uint32, n),
		Incompressible: bitpack.NewBitmap(n),
		TrueRatios:     ratios.Delta,
	}

	t = rec.Start()
	large := ratios.TableInput(opt)
	var bins Binner
	if len(large) > 0 {
		bins, err = fit(large)
		if err != nil {
			t.Stop(obs.StageTable)
			return nil, err
		}
		e.BinRatios = bins.Representatives()
		if len(e.BinRatios) > opt.NumBins() {
			t.Stop(obs.StageTable)
			return nil, fmt.Errorf("core: internal error: %d representatives exceed %d bins", len(e.BinRatios), opt.NumBins())
		}
	}
	t.Stop(obs.StageTable)
	rec.Add(obs.CounterTableInput, int64(len(large)))
	rec.SetMax(obs.GaugeBinCount, int64(len(e.BinRatios)))

	// Assignment pass, parallel over point ranges: every binner's
	// Lookup is read-only after fitting. Incompressibility is recorded
	// as a flag here and gathered serially below so the exact-value
	// array keeps its point order.
	t = rec.Start()
	incompressible := make([]bool, n)
	parallelRanges(n, opt.Workers, func(lo, hi int) {
		assignRange(ratios, bins, e.BinRatios, opt, lo, hi, e.Indices, incompressible)
	})
	for j := 0; j < n; j++ {
		if incompressible[j] {
			e.markIncompressible(j, cur[j])
		}
	}
	t.Stop(obs.StageAssign)
	rec.Add(obs.CounterEncodes, 1)
	rec.Add(obs.CounterPointsEncoded, int64(n))
	rec.Add(obs.CounterExactValues, int64(len(e.Exact)))
	return e, nil
}

// assignRange runs the per-point bin-assignment stage over points
// [lo, hi): it writes each point's index value into indices and flags
// the points the error bound forces to be stored exactly. Both output
// fields are written unconditionally for every point — the slices may
// be pooled buffers carrying a previous chunk's values. reps must be
// bins.Representatives() (nil when no large ratios exist anywhere and
// bins is nil); opt must be validated.
func assignRange(ratios *Ratios, bins Binner, reps []float64, opt Options, lo, hi int, indices []uint32, incompressible []bool) {
	for j := lo; j < hi; j++ {
		if ratios.Kind[j] != RatioOK {
			indices[j] = 0
			incompressible[j] = true
			continue
		}
		d := ratios.Delta[j]
		if !opt.DisableZeroIndex && math.Abs(d) < opt.ErrorBound {
			indices[j] = 0 // within tolerance of "unchanged"
			incompressible[j] = false
			continue
		}
		g := bins.Lookup(d)
		rep := reps[g]
		if math.Abs(rep-d) > opt.ErrorBound {
			// The learned distribution cannot represent this point
			// within the bound: store it exactly. This is the
			// mechanism that makes the bound a guarantee (§II-C).
			indices[j] = 0
			incompressible[j] = true
			continue
		}
		// g+1 <= NumBins <= 2^MaxIndexBits, enforced by Options.Validate
		indices[j] = uint32(g + 1)
		incompressible[j] = false
	}
}

// AssignChunk runs the bin-assignment stage over one window of points
// whose ratios have already been computed: indices[j] and
// incompressible[j] are written for every j in [0, len(cur)). It is the
// chunk-local form of the assignment loop inside Encode, exported so
// out-of-core encoders make identical per-point decisions. bins may be
// nil only when no point anywhere has a table-input ratio. opt must be
// validated.
func AssignChunk(ratios *Ratios, bins Binner, opt Options, indices []uint32, incompressible []bool) {
	var reps []float64
	if bins != nil {
		reps = bins.Representatives()
	}
	assignRange(ratios, bins, reps, opt, 0, len(indices), indices, incompressible)
}

// parallelRanges splits [0, n) into contiguous chunks across up to
// `workers` goroutines (<= 0 means GOMAXPROCS) and runs fn on each.
func parallelRanges(n, workers int, fn func(lo, hi int)) {
	if n == 0 {
		return
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers == 1 {
		fn(0, n)
		return
	}
	chunk := (n + workers - 1) / workers
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo := w * chunk
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		if lo >= hi {
			continue
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			fn(lo, hi)
		}(lo, hi)
	}
	wg.Wait()
}

func (e *Encoded) markIncompressible(j int, v float64) {
	e.Indices[j] = 0
	e.Incompressible.Set(j, true)
	e.Exact = append(e.Exact, v)
}

// Decode reconstructs the checkpoint from prev, which may itself be a
// reconstruction (restart replays a chain of deltas on top of the last
// full checkpoint, §II-D). The result is within E·|prev| of the encoded
// state per point when prev is the slice the encode predicted from.
func (e *Encoded) Decode(prev []float64) ([]float64, error) {
	if len(prev) != e.N {
		return nil, fmt.Errorf("%w: prev has %d points, encoded has %d", ErrLength, len(prev), e.N)
	}
	rec := e.Opt.Obs
	t := rec.Start()
	defer t.Stop(obs.StageDecode)
	out := make([]float64, e.N)
	if err := Reconstruct(out, prev, RatioTable(e.BinRatios), e.Indices, e.Incompressible.Bytes(), e.Exact); err != nil {
		return nil, err
	}
	rec.Add(obs.CounterDecodes, 1)
	rec.Add(obs.CounterPointsDecoded, int64(e.N))
	return out, nil
}

// ApproxRatio returns the change ratio the decoder will apply at point
// j: the group representative, 0 for the reserved index, or the true
// ratio for incompressible points (their reconstruction is exact).
func (e *Encoded) ApproxRatio(j int) float64 {
	if e.Incompressible.Get(j) {
		return e.TrueRatios[j]
	}
	idx := e.Indices[j]
	if idx == 0 {
		return 0
	}
	return e.BinRatios[idx-1]
}

// Gamma returns the incompressible ratio γ: the fraction of points
// stored as exact values (§III-B).
func (e *Encoded) Gamma() float64 {
	if e.N == 0 {
		return 0
	}
	return float64(e.Incompressible.Count()) / float64(e.N)
}

// MeanErrorRate returns the average |approximated ratio − true ratio|
// across all points, as a fraction (multiply by 100 for the paper's
// percent figures). Incompressible points contribute zero error.
func (e *Encoded) MeanErrorRate() float64 {
	if e.N == 0 {
		return 0
	}
	var sum float64
	for j := 0; j < e.N; j++ {
		sum += math.Abs(e.ApproxRatio(j) - e.TrueRatios[j])
	}
	return sum / float64(e.N)
}

// MaxErrorRate returns the maximum |approximated ratio − true ratio|
// across all points, as a fraction.
func (e *Encoded) MaxErrorRate() float64 {
	var m float64
	for j := 0; j < e.N; j++ {
		if d := math.Abs(e.ApproxRatio(j) - e.TrueRatios[j]); d > m {
			m = d
		}
	}
	return m
}

// CompressionRatio returns the paper's Eq. 3 storage-saving percentage
// for this encoding.
func (e *Encoded) CompressionRatio() (float64, error) {
	return stats.CompressionRatio(e.N, e.Gamma(), e.Opt.IndexBits)
}

// CompressionRatioWithBitmap additionally charges the one-bit-per-point
// compressibility bitmap the self-contained format needs.
func (e *Encoded) CompressionRatioWithBitmap() (float64, error) {
	return stats.CompressionRatioWithBitmap(e.N, e.Gamma(), e.Opt.IndexBits)
}

// PackedIndices returns the B-bit-packed index stream.
func (e *Encoded) PackedIndices() ([]byte, error) {
	return bitpack.Pack(e.Indices, e.Opt.IndexBits)
}

// EncodedSizeBytes returns the serialized payload size implied by the
// paper's storage model: packed indices + bitmap + exact values + bin
// table. (The on-disk format in internal/checkpoint adds a small
// header.)
func (e *Encoded) EncodedSizeBytes() int {
	idx := bitpack.PackedLen(e.N, e.Opt.IndexBits)
	bitmap := (e.N + 7) / 8
	exact := 8 * len(e.Exact)
	table := 8 * e.Opt.NumBins()
	return idx + bitmap + exact + table
}
