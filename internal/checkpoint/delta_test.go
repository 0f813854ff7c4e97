package checkpoint

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"math/rand"
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
	dec := bd.NewChunkDecoder()
	for _, i := range []int{0, 1, 3, 4} {
		if _, err := dec.ReadChunk(i); err != nil {
			t.Fatalf("chunk %d should be clean: %v", i, err)
		}
	}
	_, err = dec.ReadChunk(2)
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

// craftedDelta frames a hand-written JSON header as a delta file: magic
// | len | header | tail. The headers below carry valid CRCs (of empty
// regions), so only count validation stands between them and the
// allocator.
func craftedDelta(magic, header string, tail []byte) []byte {
	raw := append([]byte(magic), 0, 0, 0, 0)
	binary.LittleEndian.PutUint32(raw[len(magic):], uint32(len(header)))
	return append(append(raw, header...), tail...)
}

// craftedBinCount is an NMRKD1 file of under 250 bytes whose bin_count
// of 2^61 wraps 8*bin_count to zero: the payload-length check passed
// and the parser asked for a 2^61-entry bin table.
func craftedBinCount() []byte {
	return craftedDelta("NMRKD1", `{"variable":"v","iteration":1,"n":0,"crc":0,"index_bits":8,"error_bound":0.001,"strategy":"clustering","bin_count":2305843009213693952}`, nil)
}

// craftedChunkCount is an NMRKD2 file of under 250 bytes whose
// chunk_count of 2^62 wraps the directory length chunk_count*20 to
// zero: the directory-offset check passed and the parser asked for a
// 2^62-entry directory.
func craftedChunkCount() []byte {
	header := `{"variable":"v","iteration":1,"n":4611686018427387904,"crc":0,"index_bits":8,"error_bound":0.001,"strategy":"clustering","chunk_points":1,"chunk_count":4611686018427387904}`
	foot := make([]byte, footerSize)
	binary.LittleEndian.PutUint64(foot, uint64(frameSize+len(header))) // empty directory right after the empty bin table
	copy(foot[12:], footerMagic)
	return craftedDelta("NMRKD2", header, foot)
}

// TestCraftedHeaderCounts is the regression test for two header-count
// overflows, each of which panicked one of the two former parsers
// (makeslice: len out of range) from every place that takes bytes from
// outside: raw commits, the recovery scan of a dropped file, verify,
// inspect. The one header validator bounds every count by the file
// size before it is multiplied or allocated.
func TestCraftedHeaderCounts(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "ck")
	seedStore(t, dir, 1)
	for name, raw := range map[string][]byte{"bin_count": craftedBinCount(), "chunk_count": craftedChunkCount()} {
		if len(raw) >= 250 {
			t.Fatalf("%s: crafted file is %d bytes", name, len(raw))
		}
		if _, _, _, err := UnmarshalDelta(raw); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: UnmarshalDelta = %v, want ErrCorrupt", name, err)
		}
		if _, err := OpenDelta(bytes.NewReader(raw), int64(len(raw))); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: OpenDelta = %v, want ErrCorrupt", name, err)
		}
		// Dropped into a store, the file must be quarantined by the next
		// Open, not make the store un-openable.
		if err := os.WriteFile(filepath.Join(dir, "v.delta.000001.nmk"), raw, 0o644); err != nil {
			t.Fatal(err)
		}
		st, err := Open(dir)
		if err != nil {
			t.Fatalf("%s: open with crafted file dropped in: %v", name, err)
		}
		if q := st.Recovery().Quarantined; len(q) != 1 || q[0] != "v.delta.000001.nmk" {
			t.Errorf("%s: quarantined %v", name, q)
		}
		if err := st.WriteRawDelta("v", 1, raw); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: WriteRawDelta = %v, want ErrCorrupt", name, err)
		}
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestDeltaFormatEquivalence is the contract of the one reader: the
// same encoding written as NMRKD1 and as NMRKD2 (any chunking) opens to
// the same metadata, assembles to the same Encoded, and decodes — out
// of place, in place through replayDelta, fail-closed and salvage — to
// the bits core's own Decode produces.
func TestDeltaFormatEquivalence(t *testing.T) {
	const n = 200
	rng := rand.New(rand.NewSource(7))
	prev, cur := make([]float64, n), make([]float64, n)
	for j := range prev {
		prev[j] = 50 + rng.Float64()*100
		cur[j] = prev[j] * (1 + rng.NormFloat64()*0.004)
		if j%13 == 0 {
			prev[j] = 0 // no ratio exists: stored exactly
		}
	}
	for _, strategy := range []core.Strategy{core.EqualWidth, core.LogScale, core.Clustering, core.EqualFrequency} {
		for _, bits := range []int{3, 8, 12} {
			enc, err := core.Encode(prev, cur, core.Options{ErrorBound: 0.001, IndexBits: bits, Strategy: strategy})
			if err != nil {
				t.Fatal(err)
			}
			if len(enc.Exact) == 0 {
				t.Fatal("no incompressible points")
			}
			want, err := enc.Decode(prev)
			if err != nil {
				t.Fatal(err)
			}
			v1, err := MarshalDelta("dens", 4, enc)
			if err != nil {
				t.Fatal(err)
			}
			files := map[int][]byte{0: v1} // by chunk size; 0 is the v1 file
			for _, cp := range []int{1, 7, 64, n, n + 1} {
				if files[cp], err = MarshalDeltaV2("dens", 4, enc, cp); err != nil {
					t.Fatal(err)
				}
			}
			for cp, raw := range files {
				d, err := OpenDelta(bytes.NewReader(raw), int64(len(raw)))
				if err != nil {
					t.Fatalf("%v B=%d chunk=%d: %v", strategy, bits, cp, err)
				}
				meta := d.Meta()
				wantCP, wantVersion := cp, 2
				if cp == 0 {
					wantCP, wantVersion = n, 1
				}
				if meta.Version != wantVersion || meta.Variable != "dens" || meta.Iteration != 4 || meta.N != n ||
					meta.ChunkPoints != wantCP || meta.ChunkCount != (n+wantCP-1)/wantCP ||
					meta.Opt.IndexBits != bits || meta.Opt.Strategy != strategy || !bitsEqual(meta.BinRatios, enc.BinRatios) {
					t.Fatalf("%v B=%d chunk=%d: meta %+v", strategy, bits, cp, meta)
				}
				got, err := d.Encoded()
				if err != nil {
					t.Fatal(err)
				}
				if got.N != n || !bitsEqual(got.Exact, enc.Exact) || !bytes.Equal(got.Incompressible.Bytes(), enc.Incompressible.Bytes()) {
					t.Fatalf("%v B=%d chunk=%d: Encoded view differs", strategy, bits, cp)
				}
				for j := range enc.Indices {
					if got.Indices[j] != enc.Indices[j] {
						t.Fatalf("%v B=%d chunk=%d: index %d differs", strategy, bits, cp, j)
					}
				}
				out, err := d.Decode(prev, 3)
				if err != nil || !bitsEqual(out, want) {
					t.Fatalf("%v B=%d chunk=%d: Decode differs (%v)", strategy, bits, cp, err)
				}
				for _, salvage := range []bool{false, true} {
					state := append([]float64(nil), prev...)
					lost, err := replayDelta(raw, "dens", 4, state, &ChunkDecoder{}, RecoverOptions{Salvage: salvage})
					if err != nil || lost != nil || !bitsEqual(state, want) {
						t.Fatalf("%v B=%d chunk=%d salvage=%v: in-place replay differs (lost=%v err=%v)", strategy, bits, cp, salvage, lost, err)
					}
				}
				if _, err := replayDelta(raw, "dens", 5, append([]float64(nil), prev...), &ChunkDecoder{}, RecoverOptions{}); !errors.Is(err, ErrCorrupt) {
					t.Fatalf("%v B=%d chunk=%d: replay under the wrong identity = %v", strategy, bits, cp, err)
				}
			}
		}
	}
}
