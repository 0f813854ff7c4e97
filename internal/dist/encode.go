package dist

import (
	"errors"
	"fmt"
	"math"
	"sync"

	"numarck/internal/core"
	"numarck/internal/fputil"
	"numarck/internal/kmeans"
)

// TableMode selects how the distribution of change ratios is learned
// across ranks.
type TableMode int

const (
	// LocalTables has each rank learn its own 2^B-1 representative
	// table from its shard. No inter-rank communication; storage pays
	// for R tables. This is the paper's "minimal data movement,
	// mostly in place" extreme.
	LocalTables TableMode = iota
	// GlobalTable learns one table over all ranks' ratios: min/max
	// reductions for the binning strategies, an MPI-style parallel
	// k-means (partial-sum allreduce per Lloyd iteration) for
	// clustering. Storage pays for one table; communication pays for
	// the reductions.
	GlobalTable
)

// String names the mode.
func (m TableMode) String() string {
	switch m {
	case LocalTables:
		return "local-tables"
	case GlobalTable:
		return "global-table"
	default:
		return fmt.Sprintf("TableMode(%d)", int(m))
	}
}

// Config describes a distributed encode.
type Config struct {
	// Ranks is the number of ranks the points are partitioned over.
	Ranks int
	// Mode selects local or global table learning.
	Mode TableMode
	// Opt are the per-rank NUMARCK options (error bound, bits,
	// strategy).
	Opt core.Options
}

// Result is the outcome of a distributed encode.
type Result struct {
	// Shards holds each rank's encoding of its contiguous slice of
	// points, in rank order.
	Shards []*core.Encoded
	// ShardOffsets[r] is the global index of rank r's first point.
	ShardOffsets []int
	// BytesMoved is the total inter-rank traffic of table learning.
	BytesMoved int64
	// TableEntries is the total number of representative-table entries
	// stored across the whole encode (R tables for LocalTables, one
	// for GlobalTable).
	TableEntries int
}

// ErrConfig reports an invalid distributed-encode configuration.
var ErrConfig = errors.New("dist: invalid config")

// Decode reconstructs the full checkpoint by decoding every shard
// against its slice of prev.
func (r *Result) Decode(prev []float64) ([]float64, error) {
	out := make([]float64, 0, len(prev))
	for i, sh := range r.Shards {
		lo := r.ShardOffsets[i]
		hi := lo + sh.N
		if hi > len(prev) {
			return nil, fmt.Errorf("dist: shard %d spans [%d,%d) but prev has %d points", i, lo, hi, len(prev))
		}
		dec, err := sh.Decode(prev[lo:hi])
		if err != nil {
			return nil, fmt.Errorf("dist: shard %d: %w", i, err)
		}
		out = append(out, dec...)
	}
	if len(out) != len(prev) {
		return nil, fmt.Errorf("dist: shards cover %d of %d points", len(out), len(prev))
	}
	return out, nil
}

// N returns the total number of points.
func (r *Result) N() int {
	n := 0
	for _, sh := range r.Shards {
		n += sh.N
	}
	return n
}

// Gamma returns the aggregate incompressible ratio.
func (r *Result) Gamma() float64 {
	n := r.N()
	if n == 0 {
		return 0
	}
	inc := 0
	for _, sh := range r.Shards {
		inc += sh.Incompressible.Count()
	}
	return float64(inc) / float64(n)
}

// MeanErrorRate returns the point-weighted mean ratio error.
func (r *Result) MeanErrorRate() float64 {
	n := r.N()
	if n == 0 {
		return 0
	}
	var sum float64
	for _, sh := range r.Shards {
		sum += sh.MeanErrorRate() * float64(sh.N)
	}
	return sum / float64(n)
}

// MaxErrorRate returns the worst per-point ratio error of any shard.
func (r *Result) MaxErrorRate() float64 {
	var m float64
	for _, sh := range r.Shards {
		if e := sh.MaxErrorRate(); e > m {
			m = e
		}
	}
	return m
}

// StorageBits returns the paper-Eq.3-style storage model for the whole
// distributed encode: per point either a B-bit index or a raw 64-bit
// value, plus 64 bits per stored table entry (R tables for LocalTables,
// one for GlobalTable).
func (r *Result) StorageBits() int {
	bits := 64 * r.TableEntries
	for _, sh := range r.Shards {
		inc := sh.Incompressible.Count()
		bits += (sh.N-inc)*sh.Opt.IndexBits + inc*64
	}
	return bits
}

// CompressionRatio returns the percent saving of StorageBits over raw
// 64-bit storage.
func (r *Result) CompressionRatio() float64 {
	n := r.N()
	if n == 0 {
		return 0
	}
	raw := 64 * n
	return float64(raw-r.StorageBits()) / float64(raw) * 100
}

// Encode partitions prev/cur across cfg.Ranks contiguous shards and
// encodes each in parallel under cfg.Mode.
func Encode(prev, cur []float64, cfg Config) (*Result, error) {
	if len(prev) != len(cur) {
		return nil, fmt.Errorf("%w: prev has %d points, cur %d", ErrConfig, len(prev), len(cur))
	}
	if cfg.Ranks < 1 {
		return nil, fmt.Errorf("%w: need >= 1 rank, got %d", ErrConfig, cfg.Ranks)
	}
	opt, err := cfg.Opt.Validate()
	if err != nil {
		return nil, err
	}
	if cfg.Ranks > len(prev) && len(prev) > 0 {
		cfg.Ranks = len(prev)
	}
	if len(prev) == 0 {
		cfg.Ranks = 1
	}

	fabric, err := NewFabric(cfg.Ranks)
	if err != nil {
		return nil, err
	}
	res := &Result{
		Shards:       make([]*core.Encoded, cfg.Ranks),
		ShardOffsets: make([]int, cfg.Ranks),
	}
	errs := make([]error, cfg.Ranks)

	chunk := (len(prev) + cfg.Ranks - 1) / cfg.Ranks
	var wg sync.WaitGroup
	for r := 0; r < cfg.Ranks; r++ {
		lo := r * chunk
		hi := lo + chunk
		if hi > len(prev) {
			hi = len(prev)
		}
		if lo > hi {
			lo, hi = len(prev), len(prev)
		}
		res.ShardOffsets[r] = lo
		wg.Add(1)
		go func(r, lo, hi int) {
			defer wg.Done()
			res.Shards[r], errs[r] = encodeRank(fabric, r, prev[lo:hi], cur[lo:hi], cfg.Mode, opt)
		}(r, lo, hi)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	res.BytesMoved = fabric.BytesSent()
	for _, sh := range res.Shards {
		res.TableEntries += len(sh.BinRatios)
	}
	if cfg.Mode == GlobalTable && cfg.Ranks > 1 {
		// All ranks share one table; count it once.
		res.TableEntries = len(res.Shards[0].BinRatios)
	}
	return res, nil
}

// encodeRank runs one rank's part of the encode.
func encodeRank(f *Fabric, rank int, prev, cur []float64, mode TableMode, opt core.Options) (*core.Encoded, error) {
	if mode == LocalTables || f.Ranks() == 1 {
		// Every rank still participates in a zero-length barrier so
		// single-mode runs have identical structure (and the fabric
		// records zero traffic for them only if ranks == 1).
		return core.Encode(prev, cur, opt)
	}

	// Global mode: compute local ratios, learn the shared table, then
	// encode the shard against it.
	large, err := core.TableInput(prev, cur, opt)
	if err != nil {
		return nil, err
	}
	table, err := learnGlobalTable(f, rank, large, opt)
	if err != nil {
		return nil, err
	}
	if len(table) == 0 {
		// No rank had large ratios: plain encode degenerates to the
		// zero-index-only case.
		return core.Encode(prev, cur, opt)
	}
	return core.EncodeWithTable(prev, cur, table, opt)
}

// learnGlobalTable learns one representative table over all ranks'
// large ratios. Every rank returns the identical table. An empty table
// means no rank had large ratios.
func learnGlobalTable(f *Fabric, rank int, large []float64, opt core.Options) ([]float64, error) {
	k := opt.NumBins()
	switch opt.Strategy {
	case core.EqualWidth:
		lo, hi, n, err := globalRange(f, rank, large)
		if err != nil || n == 0 {
			return nil, err
		}
		return core.EqualWidthTable(lo, hi, k), nil

	case core.LogScale:
		stats := logSideStats(large)
		red, err := f.AllReduce(rank, []float64{
			stats.negMin, -stats.negMax,
			stats.posMin, -stats.posMax,
		}, OpMin)
		if err != nil {
			return nil, err
		}
		cnt, err := f.AllReduce(rank, []float64{stats.nNeg, stats.nPos}, OpSum)
		if err != nil {
			return nil, err
		}
		nNeg, nPos := int(cnt[0]+0.5), int(cnt[1]+0.5)
		if nNeg+nPos == 0 {
			return nil, nil
		}
		return core.LogScaleTable(red[0], -red[1], nNeg, red[2], -red[3], nPos, k), nil

	case core.Clustering:
		return globalKMeans(f, rank, large, k, opt)

	default:
		return nil, fmt.Errorf("%w: strategy %v", ErrConfig, opt.Strategy)
	}
}

// globalRange min/max-reduces the local ratio range. n is the global
// count of large ratios.
func globalRange(f *Fabric, rank int, large []float64) (lo, hi float64, n int, err error) {
	lo, hi = posInf, negInf
	for _, v := range large {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	// Two collectives: [min, -max] under OpMin, count under OpSum.
	red, err := f.AllReduce(rank, []float64{lo, -hi}, OpMin)
	if err != nil {
		return 0, 0, 0, err
	}
	total, err := f.AllReduceScalar(rank, float64(len(large)), OpSum)
	if err != nil {
		return 0, 0, 0, err
	}
	return red[0], -red[1], int(total + 0.5), nil
}

type sideStats struct {
	negMin, negMax float64 // magnitudes
	posMin, posMax float64
	nNeg, nPos     float64
}

// logSideStats summarizes a shard for the log-scale table: per-sign
// magnitude ranges and counts. Ranges merge under OpMin (maxes are
// negated by the caller); counts merge under OpSum.
func logSideStats(large []float64) sideStats {
	s := sideStats{negMin: posInf, negMax: negInf, posMin: posInf, posMax: negInf}
	for _, d := range large {
		a := math.Abs(d)
		if fputil.IsZero(a) {
			continue
		}
		if d < 0 {
			s.nNeg++
			if a < s.negMin {
				s.negMin = a
			}
			if a > s.negMax {
				s.negMax = a
			}
		} else {
			s.nPos++
			if a < s.posMin {
				s.posMin = a
			}
			if a > s.posMax {
				s.posMax = a
			}
		}
	}
	return s
}

// globalKMeans is the paper's MPI-parallel k-means over all ranks'
// ratios: seeds come from a merged equal-width histogram, then each
// Lloyd iteration allreduces per-centroid partial sums and counts.
// Every rank deterministically computes identical centroids.
func globalKMeans(f *Fabric, rank int, large []float64, k int, opt core.Options) ([]float64, error) {
	lo, hi, n, err := globalRange(f, rank, large)
	if err != nil {
		return nil, err
	}
	if n == 0 {
		return nil, nil
	}
	if k > n {
		k = n
	}

	// Merged histogram seeding: local counts, one sum-allreduce.
	bins := kmeans.SeedHistogramBins(k)
	counts := make([]float64, bins)
	if hi > lo {
		w := (hi - lo) / float64(bins)
		for _, x := range large {
			i := int((x - lo) / w)
			if i >= bins {
				i = bins - 1
			}
			if i < 0 {
				i = 0
			}
			counts[i]++
		}
	}
	merged, err := f.AllReduce(rank, counts, OpSum)
	if err != nil {
		return nil, err
	}
	intCounts := make([]int, bins)
	for i, c := range merged {
		intCounts[i] = int(c + 0.5)
	}
	cents := kmeans.SeedFromCounts(lo, hi, intCounts, k)
	if cents == nil {
		return nil, nil
	}

	maxIter := opt.KMeansMaxIter
	if maxIter <= 0 {
		maxIter = 12
	}
	// Lloyd iterations: partial [sum_0..sum_k-1, count_0..count_k-1]
	// reduced across ranks each round.
	partial := make([]float64, 2*k)
	for iter := 0; iter < maxIter; iter++ {
		for i := range partial {
			partial[i] = 0
		}
		for _, x := range large {
			c := kmeans.Nearest(cents, x)
			partial[c] += x
			partial[k+c]++
		}
		red, err := f.AllReduce(rank, partial, OpSum)
		if err != nil {
			return nil, err
		}
		moved := 0.0
		for c := 0; c < k; c++ {
			cnt := red[k+c]
			if fputil.IsZero(cnt) {
				continue
			}
			next := red[c] / cnt
			if d := math.Abs(next - cents[c]); d > moved {
				moved = d
			}
			cents[c] = next
		}
		if moved < 1e-12 {
			break
		}
	}
	return cents, nil
}
