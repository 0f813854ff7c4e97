package core

import (
	"fmt"
	"math"
	"runtime"

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
// It runs the one encode driver (EncodeChunks) over the two slices as a
// single chunk, whose ratio and assign stages are split over up to
// opt.Workers goroutines; the streaming encoder (internal/chunk) runs
// the same driver over windows, so both agree by construction.
func Encode(prev, cur []float64, opt Options) (*Encoded, error) {
	opt, err := opt.Validate()
	if err != nil {
		return nil, err
	}
	return encodeSlices(prev, cur, opt, nil)
}

// EncodeWithTable compresses prev → cur against a fixed table of
// representative ratios instead of learning one from this data. Each
// large ratio is assigned to the nearest table entry; the error bound
// is enforced exactly as in Encode, through the same driver. This is
// how a table learned on iteration i is reused for iteration i+1, and
// how distributed encoding (internal/dist) shares the one clustering
// table its ranks learn together. len(table) must be in (0, 2^B-1];
// entries must be finite. When no point has a table-input ratio, the
// result carries no table, as Encode's would.
func EncodeWithTable(prev, cur []float64, table []float64, opt Options) (*Encoded, error) {
	opt, err := opt.Validate()
	if err != nil {
		return nil, err
	}
	if len(table) == 0 {
		return nil, fmt.Errorf("%w: empty representative table", ErrBadOptions)
	}
	if len(table) > opt.NumBins() {
		return nil, fmt.Errorf("%w: table of %d entries exceeds 2^%d-1 bins", ErrBadOptions, len(table), opt.IndexBits)
	}
	for i, r := range table {
		if math.IsNaN(r) || math.IsInf(r, 0) {
			return nil, fmt.Errorf("%w: non-finite table entry %v at %d", ErrBadOptions, r, i)
		}
	}
	return encodeSlices(prev, cur, opt, newTableBinner(table, len(cur)))
}

// EncodeWithStats compresses prev → cur against the equal-width or
// log-scale binner built from st, with that strategy's own Lookup. When
// st merges this transition's ScanFitStats with those of the rest of a
// larger transition, each part's bytes are the bytes Encode gives that
// part of the whole: this is how distributed encoding (internal/dist)
// encodes each rank's shard against one global table. st must summarise
// at least one ratio. When no point of this part has a table-input
// ratio, the result carries no table, as Encode's would.
func EncodeWithStats(prev, cur []float64, st FitStats, opt Options) (*Encoded, error) {
	opt, err := opt.Validate()
	if err != nil {
		return nil, err
	}
	bins, err := st.Binner(opt)
	if err != nil {
		return nil, err
	}
	return encodeSlices(prev, cur, opt, bins)
}

// encodeSlices runs the driver over prev → cur as one chunk, learning
// the binner unless one is given. opt must be validated.
func encodeSlices(prev, cur []float64, opt Options, fixed Binner) (*Encoded, error) {
	n := len(cur)
	// The one chunk's flags replace the empty bitmap; n = 0 has no chunk.
	e := &Encoded{Opt: opt, N: n, Incompressible: bitpack.NewBitmap(0)}
	plan := Plan{ChunkPoints: max(n, 1), Workers: opt.Workers, CacheRatios: true}
	if plan.Workers == 0 {
		plan.Workers = runtime.GOMAXPROCS(0)
	}
	if _, _, err := encodeChunks(SliceSource(prev), SliceSource(cur), opt, plan, fixed, (*encodedSink)(e)); err != nil {
		return nil, err
	}
	return e, nil
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
