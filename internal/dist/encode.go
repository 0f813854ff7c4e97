package dist

import (
	"errors"
	"fmt"
	"sync"

	"numarck/internal/core"
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
	// GlobalTable learns one table over all ranks' ratios: one
	// reduction of core's fit stats, from which equal-width and
	// log-scale build core.Encode's own table, and for clustering an
	// MPI-style parallel k-means seeded from them: kmeans' Lloyd loop
	// over each rank's ratios, its partial sums all-reduced every
	// iteration. Equal-frequency has no global form.
	// Storage pays for one table; communication pays for the
	// reductions.
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

// errPeer is a rank's error when another rank's shard failed: Encode
// reports that rank's error instead.
var errPeer = errors.New("dist: another rank failed")

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
	// Not panics.Each: every rank must stay live for each AllReduce, so
	// a rank whose panic were caught would leave its peers blocked in
	// the collective forever. A panic here ends the process instead.
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
		if err != nil && !errors.Is(err, errPeer) {
			return nil, err
		}
	}
	res.BytesMoved = fabric.BytesSent()
	for _, sh := range res.Shards {
		if cfg.Mode == GlobalTable {
			// Every shard with a table input carries the one global
			// table, and a shard without one carries none: count it once.
			res.TableEntries = max(res.TableEntries, len(sh.BinRatios))
		} else {
			res.TableEntries += len(sh.BinRatios)
		}
	}
	return res, nil
}

// encodeRank runs one rank's part of the encode.
func encodeRank(f *Fabric, rank int, prev, cur []float64, mode TableMode, opt core.Options) (*core.Encoded, error) {
	if mode == LocalTables || f.Ranks() == 1 {
		return core.Encode(prev, cur, opt)
	}

	// Global mode: summarise the shard's table input, reduce the
	// summaries to the whole input's, then encode the shard against the
	// table they determine.
	ti, tiErr := core.TableInput(prev, cur, opt)
	st, err := reduceStats(f, rank, core.ScanFitStats(ti, opt), tiErr != nil)
	switch {
	case tiErr != nil:
		return nil, tiErr
	case err != nil:
		return nil, err
	case st.N == 0:
		// No rank has a table input: no table, as core.Encode gives.
		return core.Encode(prev, cur, opt)
	case opt.Strategy != core.Clustering:
		return core.EncodeWithStats(prev, cur, st, opt)
	}
	table, err := globalKMeans(f, rank, ti, st, opt)
	if err != nil {
		return nil, err
	}
	return core.EncodeWithTable(prev, cur, table, opt)
}

// reduceStats merges every rank's fit stats into the whole input's: one
// min-reduction and one sum-reduction of their wire form. The sums
// carry one more count, of the ranks that failed to compute their
// table input, so that every rank leaves the collectives together
// instead of waiting for one that already left.
func reduceStats(f *Fabric, rank int, st core.FitStats, failed bool) (core.FitStats, error) {
	mins, sums := st.Wire()
	last := len(sums)
	if sums = append(sums, 0); failed {
		sums[last] = 1
	}
	mins, err := f.AllReduce(rank, mins, OpMin)
	if err != nil {
		return core.FitStats{}, err
	}
	if sums, err = f.AllReduce(rank, sums, OpSum); err != nil {
		return core.FitStats{}, err
	}
	if sums[last] > 0 {
		return core.FitStats{}, errPeer
	}
	return core.FitStatsFromWire(mins, sums[:last])
}

// globalKMeans is the distributed form of the clustering fit's
// full-data path over all ranks' table inputs, whose merged stats are
// st. The seeds come from st's range: the centers of a merged
// equal-width histogram's fullest bins (one count all-reduce), or evenly
// spaced under Options.UniformSeeding. The Lloyd iterations are
// kmeans.RunWeighted's over this rank's part, with the per-centroid
// partial sums and counts all-reduced each iteration (a second
// reduction when a sum overflows). The fabric folds them in rank order,
// so every rank computes the same centroids, run after run.
func globalKMeans(f *Fabric, rank int, ti []float64, st core.FitStats, opt core.Options) ([]float64, error) {
	k := min(opt.NumBins(), st.N)
	// Over a one-value range the uniform seeds are the histogram's too.
	cents := kmeans.UniformSeeds(st.Lo, st.Hi, k)
	if !opt.UniformSeeding && st.Hi > st.Lo {
		counts := kmeans.SeedCounts(ti, st.Lo, st.Hi, k)
		wire := make([]float64, len(counts))
		for i, c := range counts {
			wire[i] = float64(c)
		}
		merged, err := f.AllReduce(rank, wire, OpSum)
		if err != nil {
			return nil, err
		}
		for i, c := range merged {
			counts[i] = int(c)
		}
		cents = kmeans.SeedFromCounts(st.Lo, st.Hi, counts, k)
	}
	res, err := kmeans.RunWeighted(ti, nil, kmeans.Config{
		K: k, MaxIter: opt.KMeansMaxIter, Workers: 1, Seeds: cents,
		Reduce: func(vec []float64) ([]float64, error) { return f.AllReduce(rank, vec, OpSum) },
	})
	if err != nil {
		return nil, err
	}
	return res.Centroids, nil
}
