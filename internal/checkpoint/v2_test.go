package checkpoint

import (
	"bytes"
	"errors"
	"math"
	"os"
	"path/filepath"
	"testing"

	"numarck/internal/bitpack"
	"numarck/internal/core"
)

// encodeTestData returns a small encoding with a mix of zero-index,
// binned, and incompressible points.
func encodeTestData(t *testing.T, n int) (*core.Encoded, []float64) {
	t.Helper()
	series := genSeries(n, 2, 11)
	enc, err := core.Encode(series[0], series[1], opts())
	if err != nil {
		t.Fatal(err)
	}
	return enc, series[0]
}

func TestMarshalDeltaV2RoundTrip(t *testing.T) {
	enc, prev := encodeTestData(t, 3000)
	// 700 does not divide 3000, so the last chunk is short; B=8 with
	// 700 points keeps sections byte-aligned but exercises the
	// remainder path.
	raw, err := MarshalDeltaV2("pres", 3, enc, 700)
	if err != nil {
		t.Fatal(err)
	}
	v, it, got, err := UnmarshalDeltaV2(raw)
	if err != nil {
		t.Fatal(err)
	}
	if v != "pres" || it != 3 {
		t.Errorf("header = %s@%d", v, it)
	}
	if got.N != enc.N || len(got.Exact) != len(enc.Exact) {
		t.Fatalf("counts differ: n %d/%d exact %d/%d", got.N, enc.N, len(got.Exact), len(enc.Exact))
	}
	for i := range enc.Indices {
		if got.Indices[i] != enc.Indices[i] {
			t.Fatalf("index %d differs", i)
		}
		if got.Incompressible.Get(i) != enc.Incompressible.Get(i) {
			t.Fatalf("bitmap %d differs", i)
		}
	}
	for i := range enc.Exact {
		if math.Float64bits(got.Exact[i]) != math.Float64bits(enc.Exact[i]) {
			t.Fatalf("exact %d differs", i)
		}
	}

	// Reconstruction through the v2 reader matches v1 decode.
	want, err := enc.Decode(prev)
	if err != nil {
		t.Fatal(err)
	}
	d, err := OpenDeltaV2(bytes.NewReader(raw), int64(len(raw)))
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 3, 8} {
		out, err := d.Decode(prev, workers)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i := range want {
			if math.Float64bits(out[i]) != math.Float64bits(want[i]) {
				t.Fatalf("workers=%d: point %d differs", workers, i)
			}
		}
	}
}

func TestDeltaV2DecodeRange(t *testing.T) {
	enc, prev := encodeTestData(t, 2500)
	raw, err := MarshalDeltaV2("v", 1, enc, 512)
	if err != nil {
		t.Fatal(err)
	}
	d, err := OpenDeltaV2(bytes.NewReader(raw), int64(len(raw)))
	if err != nil {
		t.Fatal(err)
	}
	want, err := enc.Decode(prev)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range [][2]int{{0, 2500}, {0, 1}, {511, 513}, {1000, 1000}, {2400, 2500}, {37, 1537}} {
		lo, hi := r[0], r[1]
		out, err := d.DecodeRange(prev[lo:hi], lo, hi)
		if err != nil {
			t.Fatalf("range [%d,%d): %v", lo, hi, err)
		}
		for i := range out {
			if math.Float64bits(out[i]) != math.Float64bits(want[lo+i]) {
				t.Fatalf("range [%d,%d): point %d differs", lo, hi, lo+i)
			}
		}
	}
	if _, err := d.DecodeRange(nil, -1, 4); err == nil {
		t.Fatal("negative range accepted")
	}
	if _, err := d.DecodeRange(nil, 0, 4); err == nil {
		t.Fatal("short prev range accepted")
	}
}

func TestDeltaV2EmptyAndSingleChunk(t *testing.T) {
	// Zero points.
	empty := &core.Encoded{Opt: mustValidate(t, opts()), N: 0, Incompressible: bitpack.NewBitmap(0)}
	raw, err := MarshalDeltaV2("v", 0, empty, 16)
	if err != nil {
		t.Fatal(err)
	}
	_, _, got, err := UnmarshalDeltaV2(raw)
	if err != nil {
		t.Fatal(err)
	}
	if got.N != 0 {
		t.Fatalf("n = %d", got.N)
	}

	// chunkPoints larger than n: one chunk.
	enc, prev := encodeTestData(t, 300)
	raw, err = MarshalDeltaV2("v", 1, enc, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	d, err := OpenDeltaV2(bytes.NewReader(raw), int64(len(raw)))
	if err != nil {
		t.Fatal(err)
	}
	if d.Meta().ChunkCount != 1 {
		t.Fatalf("chunk count = %d", d.Meta().ChunkCount)
	}
	out, err := d.Decode(prev, 4)
	if err != nil {
		t.Fatal(err)
	}
	want, err := enc.Decode(prev)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if math.Float64bits(out[i]) != math.Float64bits(want[i]) {
			t.Fatalf("point %d differs", i)
		}
	}
}

func TestDeltaV2CorruptionLocalized(t *testing.T) {
	enc, _ := encodeTestData(t, 3000)
	raw, err := MarshalDeltaV2("v", 1, enc, 700)
	if err != nil {
		t.Fatal(err)
	}
	d, err := OpenDeltaV2(bytes.NewReader(raw), int64(len(raw)))
	if err != nil {
		t.Fatal(err)
	}
	// Flip a byte inside chunk 2's section.
	_, np := d.ChunkSpan(2)
	if np != 700 {
		t.Fatalf("chunk 2 has %d points", np)
	}
	bad := append([]byte(nil), raw...)
	bad[d.dir[2].off+5] ^= 0xff
	bd, err := OpenDeltaV2(bytes.NewReader(bad), int64(len(bad)))
	if err != nil {
		t.Fatalf("open should succeed, only chunk 2 is corrupt: %v", err)
	}
	// Untouched chunks still read.
	for _, i := range []int{0, 1, 3, 4} {
		if _, err := bd.ReadChunk(i); err != nil {
			t.Fatalf("chunk %d should be clean: %v", i, err)
		}
	}
	_, err = bd.ReadChunk(2)
	var ce *ChunkError
	if !errors.As(err, &ce) {
		t.Fatalf("want ChunkError, got %v", err)
	}
	if ce.Chunk != 2 || ce.Offset != d.dir[2].off {
		t.Fatalf("ChunkError = chunk %d offset %d, want 2 at %d", ce.Chunk, ce.Offset, d.dir[2].off)
	}
	if !errors.Is(err, ErrCorrupt) {
		t.Fatal("ChunkError should wrap ErrCorrupt")
	}
}

func TestDeltaV2TruncationAndLies(t *testing.T) {
	enc, _ := encodeTestData(t, 1200)
	raw, err := MarshalDeltaV2("v", 1, enc, 256)
	if err != nil {
		t.Fatal(err)
	}
	// Every prefix truncation must error, never panic.
	for _, cut := range []int{0, 5, 9, 11, 40, len(raw) / 2, len(raw) - 21, len(raw) - 1} {
		if cut >= len(raw) {
			continue
		}
		if _, _, _, err := UnmarshalDeltaV2(raw[:cut]); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
	// A directory offset pointing elsewhere must be rejected.
	d, err := OpenDeltaV2(bytes.NewReader(raw), int64(len(raw)))
	if err != nil {
		t.Fatal(err)
	}
	lie := append([]byte(nil), raw...)
	// First directory entry's offset field: shift it by one byte.
	dirOff := int64(len(raw)) - footerSize - int64(d.Meta().ChunkCount)*dirEntrySize
	lie[dirOff] ^= 0x01
	if _, _, _, err := UnmarshalDeltaV2(lie); err == nil {
		t.Fatal("lying section offset accepted")
	}
}

func TestStoreReadsAndVerifiesV2(t *testing.T) {
	dir := t.TempDir()
	st, err := Create(dir, opts())
	if err != nil {
		t.Fatal(err)
	}
	series := genSeries(1000, 4, 5)
	if err := st.WriteFull("dens", 0, series[0]); err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(series); i++ {
		if err := writeDeltaAs(st, 2, 300, "dens", i, series[i-1], series[i]); err != nil {
			t.Fatal(err)
		}
	}
	// Restart replays v2 deltas transparently.
	got, err := st.Restart("dens", 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1000 {
		t.Fatalf("restart returned %d points", len(got))
	}
	issues, err := st.Verify()
	if err != nil {
		t.Fatal(err)
	}
	if len(issues) != 0 {
		t.Fatalf("clean store has issues: %v", issues)
	}

	// Corrupt one chunk of one delta; Verify must name the chunk and
	// its byte offset.
	path := filepath.Join(dir, "dens.delta.000002.nmk")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	d, err := OpenDeltaV2(bytes.NewReader(raw), int64(len(raw)))
	if err != nil {
		t.Fatal(err)
	}
	raw[d.dir[1].off] ^= 0xff
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	issues, err = st.Verify()
	if err != nil {
		t.Fatal(err)
	}
	// The corrupt delta plus the chain break it causes downstream.
	if len(issues) == 0 {
		t.Fatal("corrupt chunk not reported")
	}
	is := issues[0]
	if is.Chunk != 1 || is.Offset != d.dir[1].off {
		t.Fatalf("issue localizes chunk %d offset %d, want 1 at %d", is.Chunk, is.Offset, d.dir[1].off)
	}
	if is.Iteration != 2 || is.Kind != "delta" {
		t.Fatalf("issue = %v", is)
	}
}

func mustValidate(t *testing.T, opt core.Options) core.Options {
	t.Helper()
	v, err := opt.Validate()
	if err != nil {
		t.Fatal(err)
	}
	return v
}
