package checkpoint

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"runtime"
	"testing"

	"numarck/internal/core"
)

// closedLoopChain writes full@0 (the given state) and `depth` deltas
// into a fresh store at dir, the way a closed-loop writer does: step
// advances the true state to iteration i, the delta is encoded against
// the reconstruction of i-1 and committed as a v1 file when chunking(i)
// is 0 and as a v2 file of that chunk size otherwise. It returns the
// reconstruction a restart at `depth` must produce.
func closedLoopChain(tb testing.TB, dir string, opt core.Options, cur []float64, depth int, chunking func(i int) int, step func(i int, cur []float64)) []float64 {
	tb.Helper()
	st, err := Create(dir, opt)
	if err != nil {
		tb.Fatal(err)
	}
	if err := st.WriteFull("v", 0, cur); err != nil {
		tb.Fatal(err)
	}
	recon := append([]float64(nil), cur...)
	for i := 1; i <= depth; i++ {
		step(i, cur)
		enc, err := core.Encode(recon, cur, opt)
		if err != nil {
			tb.Fatal(err)
		}
		var raw []byte
		if cp := chunking(i); cp == 0 {
			raw, err = MarshalDelta("v", i, enc)
		} else {
			raw, err = MarshalDeltaV2("v", i, enc, cp)
		}
		if err != nil {
			tb.Fatal(err)
		}
		if err := st.WriteRawDelta("v", i, raw); err != nil {
			tb.Fatal(err)
		}
		if recon, err = enc.Decode(recon); err != nil {
			tb.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		tb.Fatal(err)
	}
	return recon
}

// benchChain is a closedLoopChain of n points in one format (v1 when
// chunkPoints is 0). The change per step is small and smooth with a
// sprinkling of sign flips, so most indices are small, some points are
// unchanged, and every delta carries a few exact values: the shape of
// the benchmark's restart_chain workload.
func benchChain(tb testing.TB, dir string, n, depth, chunkPoints int) []float64 {
	rng := rand.New(rand.NewSource(32))
	cur := make([]float64, n)
	for j := range cur {
		cur[j] = 50 + rng.Float64()*100
	}
	opt := core.Options{ErrorBound: 0.001, IndexBits: 8, Strategy: core.LogScale}
	return closedLoopChain(tb, dir, opt, cur, depth, func(int) int { return chunkPoints }, func(_ int, cur []float64) {
		for j := range cur {
			switch {
			case rng.Intn(512) == 0:
				cur[j] = -cur[j]
			case rng.Intn(4) != 0:
				cur[j] *= 1 + rng.NormFloat64()*0.004
			}
		}
	})
}

// BenchmarkRestartDepth32 times what the restart_chain workload's read
// op spends in this package: a restart that replays 32 deltas of 65 536
// points from the page cache, as one-section v1 files (what the library
// store writes) and as 4-chunk v2 files (what the daemon writes).
// bytes/s counts the reconstructed state once; ns/pt/delta is the
// host-portable form of the same number. Run with -cpu 1,2 to see the
// apply phase's fan-out: it must win at 2 and not lose at 1.
func BenchmarkRestartDepth32(b *testing.B) {
	const n, depth = 1 << 16, 32
	for _, f := range []struct {
		name        string
		chunkPoints int
	}{{"v1", 0}, {"v2x4", n / 4}} {
		b.Run(f.name, func(b *testing.B) {
			dir := filepath.Join(b.TempDir(), "ck")
			want := benchChain(b, dir, n, depth, f.chunkPoints)
			rv, err := OpenReadOnly(dir)
			if err != nil {
				b.Fatal(err)
			}
			b.SetBytes(8 * n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				got, err := rv.Restart("v", depth)
				if err != nil {
					b.Fatal(err)
				}
				if i == 0 && !bitsEqual(got, want) {
					b.Fatal("restart differs from the closed-loop reconstruction")
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/n/depth, "ns/pt/delta")
		})
	}
}

// BenchmarkRestartPhases times the phases of a restart one at a time —
// the rows of PERF.md §6's table — for the two shapes the repository's
// benchmark restarts (restart_chain: 32 deltas of 65 536 points;
// store_small: 15 deltas of 12 960), at 1 and 2 workers: reading the
// files (always the caller alone), the full checkpoint's fpc
// decompression (one task, whatever the worker count), open + CRC +
// validate of every delta, and the blocked unpack + reconstruct. A row
// whose worker count exceeds GOMAXPROCS measures scheduling, not
// scaling, and says so with env_limited=1.
func BenchmarkRestartPhases(b *testing.B) {
	for _, shape := range []struct {
		name     string
		n, depth int
	}{{"restart_chain", 1 << 16, 32}, {"store_small", 12960, 15}} {
		dir := filepath.Join(b.TempDir(), shape.name)
		benchChain(b, dir, shape.n, shape.depth, 0)
		rv, err := OpenReadOnly(dir)
		if err != nil {
			b.Fatal(err)
		}
		chain, err := rv.Chain("v")
		if err != nil {
			b.Fatal(err)
		}
		read := func() [][]byte {
			raws := make([][]byte, len(chain))
			for i, ce := range chain {
				if raws[i], err = readCheckpointFile(rv.fs, dir, "v", ce.Kind, ce.Iteration, ce.Len); err != nil {
					b.Fatal(err)
				}
			}
			return raws
		}
		raws := read()
		hdr, payload, err := readFile(raws[0], magicFull)
		if err != nil {
			b.Fatal(err)
		}
		state, err := decompressFull(hdr, payload)
		if err != nil {
			b.Fatal(err)
		}
		prepare := func(workers int) []*replayFile {
			files := make([]*replayFile, shape.depth)
			pool := newLoadPool(workers, len(files))
			for i := range files {
				f := &replayFile{}
				files[i] = f
				pool.do(func() { f.prepare(raws[i+1], "v", i+1, shape.n) })
			}
			pool.wait()
			return files
		}
		files := prepare(1)
		phase := func(name string, workers int, run func()) {
			b.Run(fmt.Sprintf("%s/%s/workers=%d", shape.name, name, workers), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					run()
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/1e6, "ms/restart")
				if workers > runtime.GOMAXPROCS(0) {
					b.ReportMetric(1, "env_limited")
				}
			})
		}
		phase("read", 1, func() { read() })
		phase("fpc", 1, func() {
			if _, err := decompressFull(hdr, payload); err != nil {
				b.Fatal(err)
			}
		})
		for _, workers := range []int{1, 2} {
			phase("open+crc+validate", workers, func() { prepare(workers) })
			decs := make([]*ChunkDecoder, workers)
			for w := range decs {
				decs[w] = &ChunkDecoder{}
			}
			phase("unpack+reconstruct", workers, func() {
				if _, err := replayWindow(state, files, decs, RecoverOptions{}); err != nil {
					b.Fatal(err)
				}
			})
		}
	}
}
