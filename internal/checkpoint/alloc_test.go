package checkpoint

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"testing"

	"numarck/internal/core"
)

// TestDeltaV2WriterAppendChunkAllocs pins AppendChunk's steady state at
// exactly zero allocations: the pack buffer and section scratch are
// sized by the first chunk and every later equal-size chunk reuses them.
func TestDeltaV2WriterAppendChunkAllocs(t *testing.T) {
	const cp = 512
	const runs = 20
	opt, err := core.Options{ErrorBound: 0.001, IndexBits: 8, Strategy: core.EqualWidth}.Validate()
	if err != nil {
		t.Fatal(err)
	}
	w, err := NewDeltaV2Writer(io.Discard, "v", 1, cp*(runs+2), opt, []float64{0.5, -0.5}, cp)
	if err != nil {
		t.Fatal(err)
	}
	indices := make([]uint32, cp)
	flags := make([]byte, cp/8)
	exact := make([]float64, 0, 4)
	for j := range indices {
		indices[j] = uint32(j % 3)
	}
	flags[0] = 1 << 7
	exact = append(exact, 3.25)
	if err := w.AppendChunk(indices, flags, exact); err != nil {
		t.Fatal(err)
	}
	got := testing.AllocsPerRun(runs, func() {
		if err := w.AppendChunk(indices, flags, exact); err != nil {
			t.Fatal(err)
		}
	})
	if got != 0 {
		t.Errorf("AppendChunk allocates %.0f times per steady-state chunk, want 0", got)
	}
}

// TestChunkDecoderSteadyStateAllocs pins ChunkDecoder's steady state at
// exactly zero allocations across equal-size chunks.
func TestChunkDecoderSteadyStateAllocs(t *testing.T) {
	const cp = 512
	const nChunks = 8
	n := cp * nChunks
	prev := make([]float64, n)
	cur := make([]float64, n)
	for j := range prev {
		prev[j] = 10 + float64(j%17)
		cur[j] = prev[j] * 1.01
	}
	opt := core.Options{ErrorBound: 0.001, IndexBits: 8, Strategy: core.EqualWidth}
	enc, err := core.Encode(prev, cur, opt)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := MarshalDeltaV2("v", 1, enc, cp)
	if err != nil {
		t.Fatal(err)
	}
	d, err := OpenDeltaV2(bytes.NewReader(raw), int64(len(raw)))
	if err != nil {
		t.Fatal(err)
	}
	dec := d.NewChunkDecoder()
	pbuf := make([]float64, cp)
	dst := make([]float64, cp)
	if err := dec.DecodeChunkInto(0, prev[:cp], dst); err != nil {
		t.Fatal(err)
	}
	i := 0
	got := testing.AllocsPerRun(40, func() {
		lo := i * cp
		if err := dec.DecodeChunkInto(i, prev[lo:lo+cp], dst); err != nil {
			t.Fatal(err)
		}
		i = (i + 1) % nChunks
	})
	_ = pbuf
	if got != 0 {
		t.Errorf("ChunkDecoder.DecodeChunkInto allocates %.0f times per steady-state chunk, want 0", got)
	}
}

// TestReplayDeltaAllocs pins the restart path's per-file cost: replaying
// one single-chunk delta in place with a warm decoder allocates a small
// constant — the reader, its parsed header and bin table, a one-entry
// directory — and nothing that grows with the point count: no index
// slice, no bitmap, no output array. Both formats, two sizes, one
// number.
func TestReplayDeltaAllocs(t *testing.T) {
	const limit = 16
	var counts []float64
	for _, n := range []int{1 << 10, 1 << 14} {
		series := genSeries(n, 2, 17)
		enc, err := core.Encode(series[0], series[1], opts())
		if err != nil {
			t.Fatal(err)
		}
		v1, err := marshalV1("v", 1, enc)
		if err != nil {
			t.Fatal(err)
		}
		v2, err := MarshalDeltaV2("v", 1, enc, n)
		if err != nil {
			t.Fatal(err)
		}
		for _, raw := range [][]byte{v1, v2} {
			dec := &ChunkDecoder{}
			state := append([]float64(nil), series[0]...)
			replay := func() {
				if _, err := ReplayDelta(raw, "v", 1, state, dec, RecoverOptions{}); err != nil {
					t.Fatal(err)
				}
			}
			replay() // warm the decoder's scratch
			counts = append(counts, testing.AllocsPerRun(20, replay))
		}
	}
	for i, got := range counts {
		if got > limit || got != counts[i%2] {
			t.Fatalf("ReplayDelta allocations per file (v1, v2 at 1Ki then 16Ki points) = %v, want <= %d and independent of N", counts, limit)
		}
	}
}

// TestOpenReadOnlyAllocs pins what a cold read-only open allocates per
// chain entry: measured at two chain lengths, the slope must stay under
// 2.5. Parsing the index and deriving the view are linear, but their
// per-entry allocations are shared: one variable's records share one
// string, the entries' names are substrings of one string, the view's
// slices are windows on one array.
func TestOpenReadOnlyAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool, and so encoding/json's allocations, random")
	}
	const perEntryLimit = 2.5
	measure := func(n int) float64 {
		dir := filepath.Join(t.TempDir(), fmt.Sprint(n))
		indexedStore(t, dir, 4, n)
		return testing.AllocsPerRun(5, func() {
			if _, err := OpenReadOnly(dir); err != nil {
				t.Fatal(err)
			}
		})
	}
	const short, long = 400, 1600
	a, b := measure(short), measure(long)
	slope := (b - a) / (long - short)
	t.Logf("OpenReadOnly allocates %.0f times at %d entries, %.0f at %d: %.3f per entry", a, short, b, long, slope)
	if slope > perEntryLimit {
		t.Errorf("OpenReadOnly allocates %.2f times per chain entry, want <= %.1f", slope, perEntryLimit)
	}
}

// TestWarmRestartBytes pins what a warm restart allocates: the state it
// returns (8·N bytes) and a few KiB of reader per file — at B = 8 most
// of it the parsed bin table and its ratio table, 2 KiB each — and no copy of
// any file's bytes — the full and every delta are read into pooled
// buffers, and the workers' decoders are pooled too. Measured on one
// goroutine and fanned out, at two sizes; every file of the chain is
// larger than the per-file allowance, so a single copy of one fails it.
func TestWarmRestartBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops sync.Pool entries at random")
	}
	const perFile, fixed = 6 << 10, 16 << 10
	const depth = 12
	for _, n := range []int{1 << 15, 1 << 17} {
		dir := filepath.Join(t.TempDir(), fmt.Sprint(n))
		benchChain(t, dir, n, depth, n/2)
		rv, err := OpenReadOnly(dir)
		if err != nil {
			t.Fatal(err)
		}
		chain, err := rv.Chain("v")
		if err != nil {
			t.Fatal(err)
		}
		smallest := chain[0].Len
		for _, ce := range chain {
			smallest = min(smallest, ce.Len)
		}
		if smallest <= perFile+fixed {
			t.Fatalf("n=%d: the smallest file is %d bytes, too small to tell a copy from the allowance", n, smallest)
		}
		budget := uint64(8*n + perFile*len(chain) + fixed)
		for _, lim := range []replayLimits{{replayWindowBytes, math.MaxInt}, {replayWindowBytes, 0}} {
			restart := func() {
				if _, _, err := restartWithin(lim, rv.fs, dir, chain, "v", depth, RecoverOptions{}); err != nil {
					t.Fatal(err)
				}
			}
			restart() // warm the pools
			least := func() uint64 {
				// A collection empties the pools; keep it out of the
				// measured restarts.
				defer debug.SetGCPercent(debug.SetGCPercent(-1))
				least := uint64(math.MaxUint64)
				for range 5 {
					var before, after runtime.MemStats
					runtime.ReadMemStats(&before)
					restart()
					runtime.ReadMemStats(&after)
					least = min(least, after.TotalAlloc-before.TotalAlloc)
				}
				return least
			}()
			t.Logf("n=%d, fan-out at %d point-files: a warm restart of %d files allocates %d bytes, budget %d", n, lim.fanOutWork, len(chain), least, budget)
			if least > budget {
				t.Errorf("n=%d, fan-out at %d point-files: a warm restart allocates %d bytes, want <= %d (8·N + %d per file + %d)", n, lim.fanOutWork, least, budget, perFile, fixed)
			}
		}
	}
}
