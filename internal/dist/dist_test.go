package dist

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"math/rand"
	"sync"
	"testing"

	"numarck/internal/core"
)

func genData(n int, seed int64) (prev, cur []float64) {
	rng := rand.New(rand.NewSource(seed))
	prev = make([]float64, n)
	cur = make([]float64, n)
	for i := range prev {
		prev[i] = 10 + rng.Float64()*90
		change := rng.NormFloat64() * 0.002
		if rng.Float64() < 0.05 {
			change = rng.NormFloat64() * 0.1
		}
		cur[i] = prev[i] * (1 + change)
	}
	return prev, cur
}

func opts(s core.Strategy) core.Options {
	return core.Options{ErrorBound: 0.001, IndexBits: 8, Strategy: s}
}

// --- fabric -----------------------------------------------------------

func TestFabricAllReduceSum(t *testing.T) {
	f, err := NewFabric(4)
	if err != nil {
		t.Fatal(err)
	}
	results := make([][]float64, 4)
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			vec := []float64{float64(r), 1}
			out, err := f.AllReduce(r, vec, OpSum)
			if err != nil {
				t.Error(err)
				return
			}
			results[r] = out
		}(r)
	}
	wg.Wait()
	for r, out := range results {
		if out[0] != 0+1+2+3 || out[1] != 4 {
			t.Errorf("rank %d: %v", r, out)
		}
	}
	if f.BytesSent() == 0 {
		t.Error("no bytes accounted")
	}
}

func TestFabricAllReduceMinMax(t *testing.T) {
	f, _ := NewFabric(3)
	var wg sync.WaitGroup
	mins := make([]float64, 3)
	maxs := make([]float64, 3)
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			mn, err := f.AllReduce(r, []float64{float64(r) - 1}, OpMin)
			if err != nil {
				t.Error(err)
				return
			}
			mins[r] = mn[0]
			mx, err := f.AllReduce(r, []float64{float64(r) - 1}, OpMax)
			if err != nil {
				t.Error(err)
				return
			}
			maxs[r] = mx[0]
		}(r)
	}
	wg.Wait()
	for r := 0; r < 3; r++ {
		if mins[r] != -1 || maxs[r] != 1 {
			t.Errorf("rank %d: min %v max %v", r, mins[r], maxs[r])
		}
	}
}

func TestFabricSingleRankNoTraffic(t *testing.T) {
	f, _ := NewFabric(1)
	out, err := f.AllReduce(0, []float64{7}, OpSum)
	if err != nil || out[0] != 7 {
		t.Fatalf("out=%v err=%v", out, err)
	}
	if f.BytesSent() != 0 {
		t.Errorf("single rank moved %d bytes", f.BytesSent())
	}
}

func TestFabricRejectsBadRank(t *testing.T) {
	f, _ := NewFabric(2)
	if _, err := f.AllReduce(5, []float64{1}, OpSum); err == nil {
		t.Error("out-of-range rank accepted")
	}
	if _, err := NewFabric(0); err == nil {
		t.Error("zero ranks accepted")
	}
}

func TestFabricMismatchedCollectiveFails(t *testing.T) {
	f, _ := NewFabric(2)
	var wg sync.WaitGroup
	errs := make([]error, 2)
	wg.Add(2)
	go func() {
		defer wg.Done()
		_, errs[0] = f.AllReduce(0, []float64{1, 2}, OpSum)
	}()
	go func() {
		defer wg.Done()
		_, errs[1] = f.AllReduce(1, []float64{1}, OpSum)
	}()
	wg.Wait()
	if errs[0] == nil && errs[1] == nil {
		t.Error("mismatched lengths not detected")
	}
}

func TestLog2Ceil(t *testing.T) {
	cases := map[int]int{1: 1, 2: 1, 3: 2, 4: 2, 5: 3, 8: 3, 9: 4, 1024: 10}
	for n, want := range cases {
		if got := log2ceil(n); got != want {
			t.Errorf("log2ceil(%d) = %d, want %d", n, got, want)
		}
	}
}

// --- distributed encode ------------------------------------------------

func TestEncodeLocalTablesMatchesSingleRank(t *testing.T) {
	prev, cur := genData(10000, 1)
	for _, s := range core.Strategies {
		res, err := Encode(prev, cur, Config{Ranks: 1, Mode: LocalTables, Opt: opts(s)})
		if err != nil {
			t.Fatalf("%v: %v", s, err)
		}
		single, err := core.Encode(prev, cur, opts(s))
		if err != nil {
			t.Fatal(err)
		}
		if res.Gamma() != single.Gamma() {
			t.Errorf("%v: 1-rank gamma %v != direct %v", s, res.Gamma(), single.Gamma())
		}
		if res.BytesMoved != 0 {
			t.Errorf("%v: local mode moved %d bytes", s, res.BytesMoved)
		}
	}
}

func TestEncodeErrorBoundHolsAllModesStrategies(t *testing.T) {
	prev, cur := genData(20000, 2)
	for _, mode := range []TableMode{LocalTables, GlobalTable} {
		for _, s := range core.Strategies {
			for _, ranks := range []int{1, 3, 8} {
				res, err := Encode(prev, cur, Config{Ranks: ranks, Mode: mode, Opt: opts(s)})
				if err != nil {
					t.Fatalf("%v/%v/%d: %v", mode, s, ranks, err)
				}
				rec, err := res.Decode(prev)
				if err != nil {
					t.Fatal(err)
				}
				for j := range cur {
					trueR := (cur[j] - prev[j]) / prev[j]
					recR := (rec[j] - prev[j]) / prev[j]
					if math.Abs(recR-trueR) > 0.001+1e-12 {
						t.Fatalf("%v/%v/%d: bound violated at %d", mode, s, ranks, j)
					}
				}
				if m := res.MaxErrorRate(); m > 0.001+1e-12 {
					t.Errorf("%v/%v/%d: max err %v", mode, s, ranks, m)
				}
			}
		}
	}
}

func TestGlobalTableIdenticalAcrossRanks(t *testing.T) {
	prev, cur := genData(12000, 3)
	for _, s := range core.Strategies {
		res, err := Encode(prev, cur, Config{Ranks: 4, Mode: GlobalTable, Opt: opts(s)})
		if err != nil {
			t.Fatalf("%v: %v", s, err)
		}
		ref := res.Shards[0].BinRatios
		for r := 1; r < len(res.Shards); r++ {
			got := res.Shards[r].BinRatios
			if len(got) != len(ref) {
				t.Fatalf("%v: rank %d table size %d != %d", s, r, len(got), len(ref))
			}
			for i := range ref {
				if got[i] != ref[i] {
					t.Fatalf("%v: rank %d table entry %d differs: %v vs %v", s, r, i, got[i], ref[i])
				}
			}
		}
		if res.BytesMoved == 0 {
			t.Errorf("%v: global mode moved no bytes", s)
		}
	}
}

func TestGlobalKMeansMatchesSingleRankQuality(t *testing.T) {
	// The parallel k-means reduces partial sums in a different
	// floating-point order than the serial implementation, so tables
	// are not bit-identical; the learned quality must match closely,
	// under either seeding. Uniform seeding must be honoured across
	// ranks, not fall back to the histogram's seeds.
	prev, cur := genData(8000, 4)
	uniform := opts(core.Clustering)
	uniform.UniformSeeding = true
	for _, ranks := range []int{1, 4} {
		hist, err := Encode(prev, cur, Config{Ranks: ranks, Mode: GlobalTable, Opt: opts(core.Clustering)})
		if err != nil {
			t.Fatal(err)
		}
		for _, opt := range []core.Options{opts(core.Clustering), uniform} {
			resDist, err := Encode(prev, cur, Config{Ranks: ranks, Mode: GlobalTable, Opt: opt})
			if err != nil {
				t.Fatal(err)
			}
			single, err := core.Encode(prev, cur, opt)
			if err != nil {
				t.Fatal(err)
			}
			name := fmt.Sprintf("R=%d uniform=%v", ranks, opt.UniformSeeding)
			a, b := resDist.Shards[0].BinRatios, single.BinRatios
			if len(a) != len(b) {
				t.Fatalf("%s: table sizes %d vs %d", name, len(a), len(b))
			}
			if g1, g2 := resDist.Gamma(), single.Gamma(); math.Abs(g1-g2) > 0.005 {
				t.Errorf("%s: gamma %v vs %v", name, g1, g2)
			}
			if e1, e2 := resDist.MeanErrorRate(), single.MeanErrorRate(); math.Abs(e1-e2) > 1e-4 {
				t.Errorf("%s: mean err %v vs %v", name, e1, e2)
			}
			if opt.UniformSeeding && sameBits(a, hist.Shards[0].BinRatios) {
				t.Errorf("%s: the uniform-seeded table is the histogram-seeded one", name)
			}
		}
	}
}

// sameBits reports whether a and b hold the same float64 bit patterns.
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// quietPrefix returns genData(n, seed) with its first half unchanged,
// so the ranks covering it have no table input.
func quietPrefix(n int, seed int64) (prev, cur []float64) {
	prev, cur = genData(n, seed)
	copy(cur[:n/2], prev[:n/2])
	return prev, cur
}

// TestGlobalMatchesCore pins that a global-table encode under the
// equal-width and log-scale strategies is core.Encode's, cut at the
// shard boundaries: the ranks reduce core's own fit statistics, which
// merge exactly, and encode against the binner core builds from them.
// The sizes straddle 2·8192 points, where core's fit scans go parallel;
// in the quiet cases the first half of the points is unchanged, so at
// least one rank has no table input and carries no table.
func TestGlobalMatchesCore(t *testing.T) {
	for _, n := range []int{5000, 40000} {
		for _, quiet := range []bool{false, true} {
			prev, cur := genData(n, int64(n))
			if quiet {
				prev, cur = quietPrefix(n, int64(n))
			}
			for _, s := range []core.Strategy{core.EqualWidth, core.LogScale} {
				want, err := core.Encode(prev, cur, opts(s))
				if err != nil {
					t.Fatal(err)
				}
				for _, ranks := range []int{1, 2, 3, 4, 16} {
					name := fmt.Sprintf("%v n=%d quiet=%v R=%d", s, n, quiet, ranks)
					res, err := Encode(prev, cur, Config{Ranks: ranks, Mode: GlobalTable, Opt: opts(s)})
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					var exact []float64
					tables, j := 0, 0
					for r, sh := range res.Shards {
						exact = append(exact, sh.Exact...)
						for i := 0; i < sh.N; i, j = i+1, j+1 {
							if sh.Indices[i] != want.Indices[j] || sh.Incompressible.Get(i) != want.Incompressible.Get(j) {
								t.Fatalf("%s: point %d (rank %d) has index %d flag %v, core.Encode %d %v", name, j,
									r, sh.Indices[i], sh.Incompressible.Get(i), want.Indices[j], want.Incompressible.Get(j))
							}
						}
						if len(sh.BinRatios) == 0 {
							continue
						}
						tables++
						if !sameBits(sh.BinRatios, want.BinRatios) {
							t.Fatalf("%s: rank %d's table differs from core.Encode's", name, r)
						}
					}
					if j != n || !sameBits(exact, want.Exact) {
						t.Fatalf("%s: shards cover %d points and %d exact values, core.Encode %d and %d", name, j, len(exact), n, len(want.Exact))
					}
					if tables == 0 || (quiet && ranks > 1 && tables == ranks) {
						t.Fatalf("%s: %d of %d shards carry a table", name, tables, ranks)
					}
				}
			}
		}
	}
}

// TestGlobalTableEntriesCountsSharedTable pins that a global encode
// charges its one table once even when rank 0's shard, having no table
// input, carries none.
func TestGlobalTableEntriesCountsSharedTable(t *testing.T) {
	prev, cur := quietPrefix(20000, 10)
	for _, s := range core.Strategies {
		res, err := Encode(prev, cur, Config{Ranks: 2, Mode: GlobalTable, Opt: opts(s)})
		if err != nil {
			t.Fatal(err)
		}
		single, err := core.Encode(prev, cur, opts(s))
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Shards[0].BinRatios) != 0 {
			t.Fatalf("%v: rank 0 has no table input but carries a table", s)
		}
		if res.TableEntries != len(single.BinRatios) {
			t.Errorf("%v: TableEntries = %d, core.Encode's table has %d entries", s, res.TableEntries, len(single.BinRatios))
		}
	}
}

// TestEncodeRankFailureDoesNotHang pins that a rank whose shard cannot
// be encoded fails the global encode with its own error, while the
// other ranks leave the collectives instead of waiting for it.
func TestEncodeRankFailureDoesNotHang(t *testing.T) {
	prev, cur := genData(4000, 11)
	cur[2500] = math.NaN() // rank 2 of 4
	for _, s := range core.Strategies {
		_, err := Encode(prev, cur, Config{Ranks: 4, Mode: GlobalTable, Opt: opts(s)})
		if !errors.Is(err, core.ErrNonFinite) {
			t.Errorf("%v: err = %v, want ErrNonFinite", s, err)
		}
	}
}

func TestGlobalVsLocalTradeoff(t *testing.T) {
	// The ablation the package exists for: local tables move zero
	// bytes but store R tables; the global table moves bytes but
	// stores one.
	prev, cur := genData(30000, 5)
	local, err := Encode(prev, cur, Config{Ranks: 8, Mode: LocalTables, Opt: opts(core.Clustering)})
	if err != nil {
		t.Fatal(err)
	}
	global, err := Encode(prev, cur, Config{Ranks: 8, Mode: GlobalTable, Opt: opts(core.Clustering)})
	if err != nil {
		t.Fatal(err)
	}
	if local.BytesMoved != 0 {
		t.Errorf("local moved %d bytes", local.BytesMoved)
	}
	if global.BytesMoved == 0 {
		t.Error("global moved no bytes")
	}
	if local.TableEntries <= global.TableEntries {
		t.Errorf("local stores %d table entries, global %d — expected R tables > 1 table",
			local.TableEntries, global.TableEntries)
	}
	// Both must stay within the bound and compress substantially.
	if local.CompressionRatio() < 50 || global.CompressionRatio() < 50 {
		t.Errorf("ratios local %.1f global %.1f", local.CompressionRatio(), global.CompressionRatio())
	}
}

func TestEncodeDeterministicAcrossRuns(t *testing.T) {
	prev, cur := genData(9000, 6)
	cfg := Config{Ranks: 5, Mode: GlobalTable, Opt: opts(core.Clustering)}
	a, err := Encode(prev, cur, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Encode(prev, cur, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Gamma() != b.Gamma() || a.BytesMoved != b.BytesMoved {
		t.Errorf("non-deterministic: gamma %v/%v bytes %d/%d", a.Gamma(), b.Gamma(), a.BytesMoved, b.BytesMoved)
	}

	// The fabric folds every collective in rank order, so the global
	// clustering table's bits do not depend on the order the ranks'
	// goroutines arrive in.
	prev, cur = genData(1<<14, 6)
	for _, ranks := range []int{3, 4, 8} {
		cfg := Config{Ranks: ranks, Mode: GlobalTable, Opt: opts(core.Clustering)}
		ref, err := Encode(prev, cur, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for run := 0; run < 20; run++ {
			got, err := Encode(prev, cur, cfg)
			if err != nil {
				t.Fatal(err)
			}
			for r, sh := range got.Shards {
				if !sameBits(sh.BinRatios, ref.Shards[r].BinRatios) {
					t.Fatalf("R=%d run %d: rank %d learned a different table from the first run's", ranks, run, r)
				}
			}
		}
	}
}

func TestEncodeConfigValidation(t *testing.T) {
	prev, cur := genData(10, 7)
	if _, err := Encode(prev, cur[:5], Config{Ranks: 2, Opt: opts(core.EqualWidth)}); !errors.Is(err, ErrConfig) {
		t.Errorf("length mismatch: %v", err)
	}
	if _, err := Encode(prev, cur, Config{Ranks: 0, Opt: opts(core.EqualWidth)}); !errors.Is(err, ErrConfig) {
		t.Errorf("zero ranks: %v", err)
	}
	if _, err := Encode(prev, cur, Config{Ranks: 2, Opt: core.Options{}}); err == nil {
		t.Error("invalid options accepted")
	}
}

func TestEncodeMoreRanksThanPoints(t *testing.T) {
	prev, cur := genData(3, 8)
	res, err := Encode(prev, cur, Config{Ranks: 10, Mode: GlobalTable, Opt: opts(core.EqualWidth)})
	if err != nil {
		t.Fatal(err)
	}
	rec, err := res.Decode(prev)
	if err != nil {
		t.Fatal(err)
	}
	if len(rec) != 3 {
		t.Errorf("decoded %d points", len(rec))
	}
}

func TestEncodeEmpty(t *testing.T) {
	res, err := Encode(nil, nil, Config{Ranks: 4, Mode: GlobalTable, Opt: opts(core.Clustering)})
	if err != nil {
		t.Fatal(err)
	}
	if res.N() != 0 || res.Gamma() != 0 {
		t.Errorf("empty encode: %+v", res)
	}
	rec, err := res.Decode(nil)
	if err != nil || len(rec) != 0 {
		t.Errorf("empty decode: %v, %v", rec, err)
	}
}

func TestEncodeUnchangedData(t *testing.T) {
	prev := make([]float64, 1000)
	for i := range prev {
		prev[i] = float64(i + 1)
	}
	cur := append([]float64(nil), prev...)
	res, err := Encode(prev, cur, Config{Ranks: 4, Mode: GlobalTable, Opt: opts(core.Clustering)})
	if err != nil {
		t.Fatal(err)
	}
	if res.Gamma() != 0 || res.MeanErrorRate() != 0 {
		t.Errorf("unchanged data: gamma %v err %v", res.Gamma(), res.MeanErrorRate())
	}
}

func TestGlobalTableHelpsSkewedShards(t *testing.T) {
	// Construct data where one shard sees only small ratios and
	// another only large ones: with local tables each shard fits its
	// own range; with a global table the shared table must cover both.
	// Both must respect the bound; the global table should move bytes
	// proportional to k, not to n.
	n := 20000
	rng := rand.New(rand.NewSource(9))
	prev := make([]float64, n)
	cur := make([]float64, n)
	for i := range prev {
		prev[i] = 100
		var change float64
		if i < n/2 {
			change = 0.002 + rng.Float64()*0.001
		} else {
			change = 0.5 + rng.Float64()*0.1
		}
		cur[i] = prev[i] * (1 + change)
	}
	res, err := Encode(prev, cur, Config{Ranks: 2, Mode: GlobalTable, Opt: opts(core.Clustering)})
	if err != nil {
		t.Fatal(err)
	}
	if m := res.MaxErrorRate(); m > 0.001+1e-12 {
		t.Errorf("bound violated: %v", m)
	}
	// Traffic should be tens of KB (k-sized reductions), far below
	// shipping the 160 KB of raw data per rank.
	if res.BytesMoved > int64(8*n) {
		t.Errorf("global table moved %d bytes, more than half the raw data", res.BytesMoved)
	}
}

// TestGlobalClusteringTablePinned pins the bits of the global
// clustering table: a CRC-32 of rank 0's representatives, little-endian,
// recorded before the distributed fit moved onto kmeans' shared Lloyd
// loop. A change to the seeding, the assignment, the reduction's layout
// or order, or the update step that moves one bit of any table fails
// here.
func TestGlobalClusteringTablePinned(t *testing.T) {
	pins := []struct {
		n       int
		uniform bool
		ranks   int
		crc     uint32
	}{
		{8000, false, 2, 0x27efd1f0},
		{8000, false, 3, 0xcdd6ef91},
		{8000, false, 4, 0x67100d9c},
		{8000, false, 16, 0xd9067107},
		{8000, true, 2, 0x0d0ba73e},
		{8000, true, 3, 0xf5643e40},
		{8000, true, 4, 0x2e28a90a},
		{8000, true, 16, 0x8303f4cf},
		{40000, false, 2, 0xd7903bed},
		{40000, false, 3, 0x97e4f8ca},
		{40000, false, 4, 0x67fc813c},
		{40000, false, 16, 0x2945b76f},
		{40000, true, 2, 0xee8d2b63},
		{40000, true, 3, 0x7045ac35},
		{40000, true, 4, 0x817e763a},
		{40000, true, 16, 0xb67eb87f},
	}
	for _, p := range pins {
		name := fmt.Sprintf("n=%d uniform=%v R=%d", p.n, p.uniform, p.ranks)
		prev, cur := genData(p.n, int64(p.n))
		opt := opts(core.Clustering)
		opt.UniformSeeding = p.uniform
		res, err := Encode(prev, cur, Config{Ranks: p.ranks, Mode: GlobalTable, Opt: opt})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		table := res.Shards[0].BinRatios
		b := make([]byte, 0, 8*len(table))
		for _, r := range table {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(r))
		}
		if got := crc32.ChecksumIEEE(b); got != p.crc || len(table) != 255 {
			t.Errorf("%s: table of %d entries has CRC-32 %#08x, want 255 entries and %#08x", name, len(table), got, p.crc)
		}
	}
}

// TestGlobalOverflowingRangeGivesFiniteTable is core's
// TestOverflowingRangeGivesFiniteTable for the global clustering table:
// prev = 1 and cur alternating ±1e308, every third point 1.5, so a
// cluster's ratio sum overflows. The distributed fit must fall back to
// the overflow-safe mean as core's fit does, at every rank count and
// under either seeding: only finite representatives, and every point
// decodes within E·|prev|.
func TestGlobalOverflowingRangeGivesFiniteTable(t *testing.T) {
	for _, n := range []int{300, 40_000} {
		prev := make([]float64, n)
		cur := make([]float64, n)
		for j := range cur {
			prev[j] = 1
			switch {
			case j%3 == 2:
				cur[j] = 1.5
			case j%2 == 0:
				cur[j] = 1e308
			default:
				cur[j] = -1e308
			}
		}
		for _, uniform := range []bool{false, true} {
			opt := opts(core.Clustering)
			opt.UniformSeeding = uniform
			for _, ranks := range []int{2, 4} {
				name := fmt.Sprintf("n=%d uniform=%v R=%d", n, uniform, ranks)
				res, err := Encode(prev, cur, Config{Ranks: ranks, Mode: GlobalTable, Opt: opt})
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				for r, sh := range res.Shards {
					for g, v := range sh.BinRatios {
						if math.IsNaN(v) || math.IsInf(v, 0) {
							t.Fatalf("%s: rank %d's representative %d is %v", name, r, g, v)
						}
					}
				}
				got, err := res.Decode(prev)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				for j := range got {
					if !(math.Abs(got[j]-cur[j]) <= opt.ErrorBound*math.Abs(prev[j])) {
						t.Fatalf("%s: point %d decodes to %v, encoded %v", name, j, got[j], cur[j])
					}
				}
			}
		}
	}
}

func BenchmarkEncodeGlobal8Ranks(b *testing.B) {
	prev, cur := genData(1<<17, 1)
	cfg := Config{Ranks: 8, Mode: GlobalTable, Opt: opts(core.Clustering)}
	b.SetBytes(int64(8 * len(prev)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Encode(prev, cur, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEncodeLocal8Ranks(b *testing.B) {
	prev, cur := genData(1<<17, 1)
	cfg := Config{Ranks: 8, Mode: LocalTables, Opt: opts(core.Clustering)}
	b.SetBytes(int64(8 * len(prev)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Encode(prev, cur, cfg); err != nil {
			b.Fatal(err)
		}
	}
}
