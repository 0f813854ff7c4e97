package numarck_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"math/rand"
	"path/filepath"
	"slices"
	"testing"

	"numarck"
	"numarck/internal/checkpoint"
	"numarck/internal/rawio"
)

// TestStreamFilesRoundTrip drives the file-to-file streaming API:
// encode two raw files into a chunked checkpoint under a small memory
// budget, decode it back, and check the error bound point-wise.
func TestStreamFilesRoundTrip(t *testing.T) {
	const n = 50_000
	rng := rand.New(rand.NewSource(17))
	prev := make([]float64, n)
	cur := make([]float64, n)
	for i := range prev {
		prev[i] = 1 + rng.Float64()
		cur[i] = prev[i] * (1 + 0.02*rng.NormFloat64())
	}
	dir := t.TempDir()
	prevPath := filepath.Join(dir, "prev.f64")
	curPath := filepath.Join(dir, "cur.f64")
	ckptPath := filepath.Join(dir, "ckpt.nmk")
	outPath := filepath.Join(dir, "out.f64")
	if err := rawio.WriteFile(prevPath, prev); err != nil {
		t.Fatal(err)
	}
	if err := rawio.WriteFile(curPath, cur); err != nil {
		t.Fatal(err)
	}

	enc := numarck.StreamEncoder{
		Opt:    numarck.Options{ErrorBound: 0.001, IndexBits: 8, Strategy: numarck.EqualWidth},
		Config: numarck.StreamConfig{BudgetBytes: 256 << 10, Workers: 2},
	}
	res, err := enc.EncodeFiles(ckptPath, "v", 1, prevPath, curPath)
	if err != nil {
		t.Fatal(err)
	}
	if res.N != n || res.ChunkCount < 2 {
		t.Fatalf("result = %+v", res)
	}
	if res.PeakBufferBytes > 256<<10 {
		t.Fatalf("peak buffers %d exceed budget", res.PeakBufferBytes)
	}

	got, err := numarck.StreamDecoder{}.DecodeFiles(ckptPath, prevPath, outPath)
	if err != nil {
		t.Fatal(err)
	}
	if got != n {
		t.Fatalf("decoded %d points", got)
	}
	rec, err := rawio.ReadFile(outPath)
	if err != nil {
		t.Fatal(err)
	}
	for i := range rec {
		trueRatio := (cur[i] - prev[i]) / prev[i]
		recRatio := (rec[i] - prev[i]) / prev[i]
		if math.Abs(recRatio-trueRatio) > 0.001+1e-12 {
			t.Fatalf("point %d violates the bound", i)
		}
	}
}

// TestStreamDecodeRecover drives the façade's streaming salvage over a
// chunked file with one byte of one chunk's section flipped: that
// chunk's range comes out as prev's values and is the one lost range of
// a *PartialDataError that wraps ErrStoreCorrupt, every other point is
// Decode's, and restart's own one-file salvage step
// (checkpoint.ReplayDelta) agrees on the values and the ranges. A clean
// file salvages to Decode's output with no error. Two adjacent corrupt
// chunks are one merged lost range, at one worker and at four.
func TestStreamDecodeRecover(t *testing.T) {
	const n, chunkPoints = 5000, 1024
	rng := rand.New(rand.NewSource(23))
	prev := make([]float64, n)
	cur := make([]float64, n)
	for i := range prev {
		prev[i] = 1 + rng.Float64()
		cur[i] = prev[i] * (1 + 0.02*rng.NormFloat64())
	}
	var buf bytes.Buffer
	enc := numarck.StreamEncoder{
		Opt:    numarck.Options{ErrorBound: 0.001, IndexBits: 8, Strategy: numarck.EqualWidth},
		Config: numarck.StreamConfig{ChunkPoints: chunkPoints, Workers: 2},
	}
	if _, err := enc.Encode(&buf, "v", 1, numarck.SliceSource(prev), numarck.SliceSource(cur)); err != nil {
		t.Fatal(err)
	}
	clean := buf.Bytes()
	decode := func(raw []byte, salvage bool) ([]float64, *numarck.PartialDataError, error) {
		var out []float64
		emit := func(vals []float64) error { out = append(out, vals...); return nil }
		r, size, src := bytes.NewReader(raw), int64(len(raw)), numarck.SliceSource(prev)
		if !salvage {
			return out, nil, numarck.StreamDecoder{}.Decode(r, size, src, emit)
		}
		pde, err := numarck.StreamDecoder{}.DecodeRecover(r, size, src, emit)
		return out, pde, err
	}
	same := func(a, b []float64) bool {
		return slices.EqualFunc(a, b, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
	}
	want, _, err := decode(clean, false)
	if err != nil {
		t.Fatal(err)
	}
	if got, pde, err := decode(clean, true); err != nil || pde != nil || !same(got, want) {
		t.Fatalf("salvage of a clean file: %v, %v, same values %v", pde, err, same(got, want))
	}

	// Flip a byte in the middle of chunk 1's section, located through
	// the footer and the directory (FORMAT.md, NMRKD2).
	dirOff := binary.LittleEndian.Uint64(clean[len(clean)-20:])
	ent := clean[dirOff+20 : dirOff+40]
	off, length := binary.LittleEndian.Uint64(ent), binary.LittleEndian.Uint32(ent[8:])
	bad := slices.Clone(clean)
	bad[off+uint64(length)/2] ^= 0x20
	lost := numarck.Range{Lo: chunkPoints, Hi: 2 * chunkPoints}

	got, pde, err := decode(bad, true)
	if err != nil || pde == nil || !slices.Equal(pde.Lost, []numarck.Range{lost}) || !errors.Is(pde, numarck.ErrStoreCorrupt) {
		t.Fatalf("salvage of chunk 1's flipped byte = %v, %v; want one lost range %v wrapping ErrStoreCorrupt", pde, err, lost)
	}
	if len(got) != n || !same(got[lost.Lo:lost.Hi], prev[lost.Lo:lost.Hi]) ||
		!same(got[:lost.Lo], want[:lost.Lo]) || !same(got[lost.Hi:], want[lost.Hi:]) {
		t.Fatal("salvage emitted other values than prev's in the lost range and Decode's elsewhere")
	}

	state := slices.Clone(prev)
	rp, err := checkpoint.ReplayDelta(bad, "v", 1, state, &checkpoint.ChunkDecoder{}, checkpoint.RecoverOptions{Salvage: true})
	if err != nil || rp == nil || !slices.Equal(rp.Lost, pde.Lost) || !same(state, got) {
		t.Fatalf("ReplayDelta's salvage of the same bytes = %v, %v; same values %v", rp, err, same(state, got))
	}

	// Two adjacent bad chunks, 2 and 3, are one lost range, as a salvage
	// restart reports them, at every worker count; the recorder counts
	// both quarantined chunks.
	bad2 := slices.Clone(clean)
	for _, c := range []int{2, 3} {
		ent := clean[int(dirOff)+20*c : int(dirOff)+20*(c+1)]
		off, length := binary.LittleEndian.Uint64(ent), binary.LittleEndian.Uint32(ent[8:])
		bad2[off+uint64(length)/2] ^= 0x20
	}
	lost2 := []numarck.Range{{Lo: 2 * chunkPoints, Hi: 4 * chunkPoints}}
	state = slices.Clone(prev)
	rp, err = checkpoint.ReplayDelta(bad2, "v", 1, state, &checkpoint.ChunkDecoder{}, checkpoint.RecoverOptions{Salvage: true})
	if err != nil || rp == nil || !slices.Equal(rp.Lost, lost2) {
		t.Fatalf("ReplayDelta's salvage of chunks 2 and 3 = %v, %v; want lost %v", rp, err, lost2)
	}
	for _, workers := range []int{1, 4} {
		rec := numarck.NewRecorder()
		var out []float64
		dec := numarck.StreamDecoder{Config: numarck.StreamConfig{Workers: workers}, Recorder: rec}
		pde, err := dec.DecodeRecover(bytes.NewReader(bad2), int64(len(bad2)), numarck.SliceSource(prev), func(vals []float64) error {
			out = append(out, vals...)
			return nil
		})
		if err != nil || pde == nil || !slices.Equal(pde.Lost, lost2) {
			t.Fatalf("workers %d: salvage of chunks 2 and 3 = %v, %v; want one lost range %v", workers, pde, err, lost2)
		}
		if !same(out, state) {
			t.Fatalf("workers %d: salvage emitted other values than ReplayDelta's", workers)
		}
		if q := rec.Snapshot().Counters["chunks_quarantined"]; q != 2 {
			t.Fatalf("workers %d: %d chunks quarantined, want 2", workers, q)
		}
	}
}
