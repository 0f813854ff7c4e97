package checkpoint

import (
	"bytes"
	"io"
	"testing"

	"numarck/internal/core"
)

// TestDeltaV2WriterAppendChunkAllocs pins AppendChunk's steady state at
// exactly zero allocations: the pack buffer, bitmap, and section
// scratch are sized by the first chunk and every later equal-size chunk
// reuses them.
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
	incompressible := make([]bool, cp)
	exact := make([]float64, 0, 4)
	for j := range indices {
		indices[j] = uint32(j % 3)
	}
	incompressible[7] = true
	exact = append(exact, 3.25)
	if err := w.AppendChunk(indices, incompressible, exact); err != nil {
		t.Fatal(err)
	}
	got := testing.AllocsPerRun(runs, func() {
		if err := w.AppendChunk(indices, incompressible, exact); err != nil {
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
		v1, err := MarshalDelta("v", 1, enc)
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
				if _, err := replayDelta(raw, "v", 1, state, dec, RecoverOptions{}); err != nil {
					t.Fatal(err)
				}
			}
			replay() // warm the decoder's scratch
			counts = append(counts, testing.AllocsPerRun(20, replay))
		}
	}
	for i, got := range counts {
		if got > limit || got != counts[i%2] {
			t.Fatalf("replayDelta allocations per file (v1, v2 at 1Ki then 16Ki points) = %v, want <= %d and independent of N", counts, limit)
		}
	}
}
