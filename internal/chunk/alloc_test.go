package chunk

import (
	"bytes"
	"io"
	"testing"

	"numarck/internal/checkpoint"
	"numarck/internal/core"
)

// allocPair builds a transition of exactly nChunks equal chunks.
func allocPair(nChunks, chunkPoints int) (prev, cur []float64) {
	return genPair(nChunks*chunkPoints, 9)
}

// encodeAllocs measures the average allocations of one full streaming
// encode of nChunks chunks on the given number of workers.
// MaxTableInput bounds the reservoir (and disables the pass-1 ratio
// cache, whose per-chunk entries are a deliberate uncapped-mode
// allocation), so everything chunk-count-proportional should come from
// the pooled slot buffers — i.e. nothing.
func encodeAllocs(t *testing.T, nChunks, workers int) float64 {
	t.Helper()
	const cp = 1024
	prev, cur := allocPair(nChunks, cp)
	opt := core.Options{ErrorBound: 0.001, IndexBits: 8, Strategy: core.EqualWidth}
	cfg := Config{ChunkPoints: cp, Workers: workers, MaxTableInput: 64}
	return testing.AllocsPerRun(5, func() {
		if _, err := EncodeDeltaV2(io.Discard, "v", 1, SliceSource(prev), SliceSource(cur), opt, cfg); err != nil {
			t.Fatal(err)
		}
	})
}

// TestEncodeSteadyStateAllocs pins the allocation-free steady state of
// the streaming encoder: a run has a fixed setup cost (slot buffers,
// v2 writer, reservoir, fit), but second-and-later chunks must reuse the
// slot's buffers, so adding 64 more chunks must add no allocations —
// on the inline single-worker path and on the ring, where both runs
// have more chunks than workers so every slot is reused.
func TestEncodeSteadyStateAllocs(t *testing.T) {
	for _, workers := range []int{1, 3} {
		small := encodeAllocs(t, 8, workers)
		large := encodeAllocs(t, 72, workers)
		perChunk := (large - small) / 64
		if perChunk >= 1 {
			t.Errorf("%d workers: streaming encode allocates %.2f times per chunk in steady state (8 chunks: %.0f allocs, 72 chunks: %.0f); pooled buffers are not being reused", workers, perChunk, small, large)
		}
	}
}

// decodeAllocs measures the average allocations of one full streaming
// decode of the given encoded file on the given number of workers.
func decodeAllocs(t *testing.T, raw []byte, prev []float64, workers int) float64 {
	t.Helper()
	return testing.AllocsPerRun(5, func() {
		d, err := checkpoint.OpenDeltaV2(bytes.NewReader(raw), int64(len(raw)))
		if err != nil {
			t.Fatal(err)
		}
		err = DecodeDeltaV2(d, SliceSource(prev), Config{Workers: workers}, func([]float64) error { return nil })
		if err != nil {
			t.Fatal(err)
		}
	})
}

// TestDecodeSteadyStateAllocs pins the decoder's steady state the same
// way: per-slot decoder scratch (section, indices, bitmap, exact, prev
// window, output) is sized on the first chunk and reused, so 64 extra
// chunks must add no allocations, inline or on the ring.
func TestDecodeSteadyStateAllocs(t *testing.T) {
	const cp = 1024
	opt := core.Options{ErrorBound: 0.001, IndexBits: 8, Strategy: core.EqualWidth}
	cfg := Config{ChunkPoints: cp, Workers: 1}
	encode := func(nChunks int) (raw []byte, prev []float64) {
		t.Helper()
		prev, cur := allocPair(nChunks, cp)
		var buf bytes.Buffer
		if _, err := EncodeDeltaV2(&buf, "v", 1, SliceSource(prev), SliceSource(cur), opt, cfg); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes(), prev
	}
	rawS, prevS := encode(8)
	rawL, prevL := encode(72)
	for _, workers := range []int{1, 3} {
		small := decodeAllocs(t, rawS, prevS, workers)
		large := decodeAllocs(t, rawL, prevL, workers)
		perChunk := (large - small) / 64
		if perChunk >= 1 {
			t.Errorf("%d workers: streaming decode allocates %.2f times per chunk in steady state (8 chunks: %.0f allocs, 72 chunks: %.0f); decoder scratch is not being reused", workers, perChunk, small, large)
		}
	}
}
