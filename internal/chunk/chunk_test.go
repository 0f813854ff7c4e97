package chunk

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"numarck/internal/checkpoint"
	"numarck/internal/core"
	"numarck/internal/rawio"
)

// genPair builds a prev/cur transition mixing every ratio class: zero
// bases, unchanged points, ratios under the bound, and large ratios.
func genPair(n int, seed int64) (prev, cur []float64) {
	rng := rand.New(rand.NewSource(seed))
	prev = make([]float64, n)
	cur = make([]float64, n)
	for j := range prev {
		switch rng.Intn(10) {
		case 0: // no base: stored exactly
			prev[j] = 0
			cur[j] = rng.NormFloat64()
		case 1: // unchanged
			prev[j] = 2 + rng.Float64()
			cur[j] = prev[j]
		case 2: // tiny ratio, inside the bound
			base := 1 + rng.Float64()
			prev[j] = base
			cur[j] = base * (1 + 1e-5*rng.NormFloat64())
		default: // large ratio
			base := 1 + rng.Float64()
			prev[j] = base
			cur[j] = base * (1 + 0.05*rng.NormFloat64())
		}
	}
	return prev, cur
}

// TestStreamingMatchesInMemory is the byte-identity property test: for
// every binning strategy, index widths whose packed values straddle
// byte and chunk boundaries, and chunk sizes that do not divide n, the
// streaming encoder's bytes equal MarshalDeltaV2 of the in-memory
// encode at the same chunk granularity. The second input spans more
// than two of the driver's fixed ranges, so runs with fewer chunks
// than workers split each chunk's stages over ranges.
func TestStreamingMatchesInMemory(t *testing.T) {
	const big = 3*8192 + 17
	for _, in := range []struct {
		n           int
		chunkPoints []int
		workers     []int
	}{
		{5000, []int{97, 1000, 5000}, []int{3}},
		{big, []int{big, big/2 + 1}, []int{3, 4}},
	} {
		n := in.n
		prev, cur := genPair(n, 42)
		for _, strategy := range []core.Strategy{core.EqualWidth, core.LogScale, core.Clustering, core.EqualFrequency} {
			for _, bits := range []int{3, 5, 8} {
				opt := core.Options{ErrorBound: 0.001, IndexBits: bits, Strategy: strategy}
				enc, err := core.Encode(prev, cur, opt)
				if err != nil {
					t.Fatal(err)
				}
				for _, chunkPoints := range in.chunkPoints {
					for _, workers := range in.workers {
						name := fmt.Sprintf("n%d/%s/B%d/cp%d/w%d", n, strategy, bits, chunkPoints, workers)
						cfg := Config{ChunkPoints: chunkPoints, Workers: workers}

						wantV2, err := checkpoint.MarshalDeltaV2("v", 7, enc, chunkPoints)
						if err != nil {
							t.Fatal(err)
						}
						var buf bytes.Buffer
						res, err := EncodeDeltaV2(&buf, "v", 7, SliceSource(prev), SliceSource(cur), opt, cfg)
						if err != nil {
							t.Fatalf("%s: %v", name, err)
						}
						if !bytes.Equal(buf.Bytes(), wantV2) {
							t.Errorf("%s: streaming v2 bytes differ from in-memory MarshalDeltaV2", name)
						}
						if res.ExactCount != len(enc.Exact) {
							t.Errorf("%s: exact count %d, want %d", name, res.ExactCount, len(enc.Exact))
						}
					}
				}
			}
		}
	}
}

// TestNonFinitePointNamedGlobally pins that a non-finite input is named
// by its index in the whole state, not in its chunk: a NaN at point
// 3003 is point 3003 in memory, on one chunk split over workers, and in
// chunk 3 of 1000-point chunks, inline or on the ring.
func TestNonFinitePointNamedGlobally(t *testing.T) {
	const n, bad = 10000, 3003
	prev, cur := genPair(n, 5)
	cur[bad] = math.NaN()
	opt := core.Options{ErrorBound: 0.001, IndexBits: 8}
	_, err := core.Encode(prev, cur, opt)
	errs := map[string]error{"core.Encode": err}
	for _, cfg := range []Config{{ChunkPoints: n, Workers: 2}, {ChunkPoints: 1000, Workers: 1}, {ChunkPoints: 1000, Workers: 3}} {
		_, err := EncodeDeltaV2(io.Discard, "v", 1, SliceSource(prev), SliceSource(cur), opt, cfg)
		errs[fmt.Sprintf("EncodeDeltaV2 %+v", cfg)] = err
	}
	for name, err := range errs {
		if !errors.Is(err, core.ErrNonFinite) || !strings.Contains(err.Error(), fmt.Sprintf("point %d ", bad)) {
			t.Errorf("%s: err = %v, want ErrNonFinite naming point %d", name, err, bad)
		}
	}
}

// TestStreamingUnderBudget encodes file-backed input much larger than
// the memory budget and checks both the budget accounting and
// byte-identity with the in-memory path.
func TestStreamingUnderBudget(t *testing.T) {
	const n = 120_000 // 960 KiB per input file
	prev, cur := genPair(n, 7)
	dir := t.TempDir()
	pPath := filepath.Join(dir, "prev.raw")
	cPath := filepath.Join(dir, "cur.raw")
	if err := rawio.WriteFile(pPath, prev); err != nil {
		t.Fatal(err)
	}
	if err := rawio.WriteFile(cPath, cur); err != nil {
		t.Fatal(err)
	}
	pSrc, err := rawio.OpenFile(pPath)
	if err != nil {
		t.Fatal(err)
	}
	defer pSrc.Close()
	cSrc, err := rawio.OpenFile(cPath)
	if err != nil {
		t.Fatal(err)
	}
	defer cSrc.Close()

	opt := core.Options{ErrorBound: 0.001, IndexBits: 8, Strategy: core.EqualWidth}
	cfg := Config{Workers: 4, BudgetBytes: 512 << 10} // far below the 1.9 MiB of input
	var got bytes.Buffer
	res, err := EncodeDeltaV2(&got, "v", 1, pSrc, cSrc, opt, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.PeakBufferBytes > cfg.BudgetBytes {
		t.Fatalf("peak buffer %d exceeds budget %d", res.PeakBufferBytes, cfg.BudgetBytes)
	}
	if res.ChunkCount < 2 {
		t.Fatalf("budget did not force chunking: %d chunks of %d points", res.ChunkCount, res.ChunkPoints)
	}

	enc, err := core.Encode(prev, cur, opt)
	if err != nil {
		t.Fatal(err)
	}
	want, err := checkpoint.MarshalDeltaV2("v", 1, enc, res.ChunkPoints)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatal("budgeted streaming encode differs from in-memory encode")
	}
}

// TestStreamingDecode round-trips a v2 file through the streaming
// decoder, file to file, and compares with the in-memory decode.
func TestStreamingDecode(t *testing.T) {
	const n = 3210
	prev, cur := genPair(n, 99)
	opt := core.Options{ErrorBound: 0.001, IndexBits: 8, Strategy: core.Clustering}
	cfg := Config{ChunkPoints: 500, Workers: 3}

	dir := t.TempDir()
	deltaPath := filepath.Join(dir, "delta.nmk")
	df, err := os.Create(deltaPath)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := EncodeDeltaV2(df, "v", 1, SliceSource(prev), SliceSource(cur), opt, cfg); err != nil {
		t.Fatal(err)
	}
	if err := df.Close(); err != nil {
		t.Fatal(err)
	}

	enc, err := core.Encode(prev, cur, opt)
	if err != nil {
		t.Fatal(err)
	}
	want, err := enc.Decode(prev)
	if err != nil {
		t.Fatal(err)
	}

	// prev from a file, output streamed to a file.
	pPath := filepath.Join(dir, "prev.raw")
	if err := rawio.WriteFile(pPath, prev); err != nil {
		t.Fatal(err)
	}
	pSrc, err := rawio.OpenFile(pPath)
	if err != nil {
		t.Fatal(err)
	}
	defer pSrc.Close()
	raw, err := os.ReadFile(deltaPath)
	if err != nil {
		t.Fatal(err)
	}
	d, err := checkpoint.OpenDeltaV2(bytes.NewReader(raw), int64(len(raw)))
	if err != nil {
		t.Fatal(err)
	}
	outPath := filepath.Join(dir, "out.raw")
	of, err := os.Create(outPath)
	if err != nil {
		t.Fatal(err)
	}
	ow := rawio.NewWriter(of)
	err = DecodeDeltaV2(d, pSrc, cfg, func(vals []float64) error {
		return ow.WriteFloats(vals)
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := of.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := rawio.ReadFile(outPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("decoded %d points, want %d", len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("point %d differs", i)
		}
	}
}

// TestDecodeErrorNamesChunkOnce pins that a corrupt chunk's decode
// error is the *checkpoint.ChunkError that names it, not wrapped in a
// second "chunk 7: " by the pipeline, at one worker and on the ring.
func TestDecodeErrorNamesChunkOnce(t *testing.T) {
	const chunks, cp = 16, 128
	prev, cur := genPair(chunks*cp, 12)
	var buf bytes.Buffer
	opt := core.Options{ErrorBound: 0.001, IndexBits: 8}
	if _, err := EncodeDeltaV2(&buf, "v", 1, SliceSource(prev), SliceSource(cur), opt, Config{ChunkPoints: cp}); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	dirOff := binary.LittleEndian.Uint64(raw[len(raw)-20:])
	ent := raw[dirOff+20*7 : dirOff+20*8]
	raw[binary.LittleEndian.Uint64(ent)+uint64(binary.LittleEndian.Uint32(ent[8:]))/2] ^= 0x20
	for _, workers := range []int{1, 4} {
		d, err := checkpoint.OpenDeltaV2(bytes.NewReader(raw), int64(len(raw)))
		if err != nil {
			t.Fatal(err)
		}
		err = DecodeDeltaV2(d, SliceSource(prev), Config{Workers: workers}, func([]float64) error { return nil })
		var ce *checkpoint.ChunkError
		if !errors.As(err, &ce) || ce.Chunk != 7 || strings.Count(err.Error(), "chunk") != 1 {
			t.Errorf("%d workers: err = %v, want chunk 7's ChunkError, naming a chunk once", workers, err)
		}
	}
}

func TestConfigResolve(t *testing.T) {
	// Budget shrinks workers first, then chunk size.
	cfg, err := Config{ChunkPoints: 1 << 16, Workers: 8, BudgetBytes: 1 << 20}.resolve()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Workers != 1 {
		t.Errorf("workers = %d, want 1", cfg.Workers)
	}
	if cfg.ChunkPoints >= 1<<16 {
		t.Errorf("chunk points not shrunk: %d", cfg.ChunkPoints)
	}
	if cfg.peakBufferBytes() > 1<<20 {
		t.Errorf("peak %d exceeds budget", cfg.peakBufferBytes())
	}

	// A budget below one minimal chunk fails loudly.
	if _, err := (Config{BudgetBytes: 1024}).resolve(); !errors.Is(err, ErrBudget) {
		t.Errorf("tiny budget: err = %v, want ErrBudget", err)
	}
	// Negative values are rejected.
	if _, err := (Config{Workers: -1}).resolve(); err == nil {
		t.Error("negative workers accepted")
	}
}

func TestEncodeErrors(t *testing.T) {
	opt := core.Options{ErrorBound: 0.001, IndexBits: 8}
	// Length mismatch.
	_, err := EncodeDeltaV2(io.Discard, "v", 0, SliceSource(make([]float64, 3)), SliceSource(make([]float64, 4)), opt, Config{})
	if !errors.Is(err, core.ErrLength) {
		t.Errorf("err = %v, want ErrLength", err)
	}
	// Non-finite data surfaces from a worker.
	prev := []float64{1, 2, 3}
	cur := []float64{1, math.NaN(), 3}
	_, err = EncodeDeltaV2(io.Discard, "v", 0, SliceSource(prev), SliceSource(cur), opt, Config{ChunkPoints: 1})
	if !errors.Is(err, core.ErrNonFinite) {
		t.Errorf("err = %v, want ErrNonFinite", err)
	}
	// Empty input produces a valid empty v2 file.
	var raw bytes.Buffer
	res, err := EncodeDeltaV2(&raw, "v", 0, SliceSource(nil), SliceSource(nil), opt, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if res.ChunkCount != 0 || res.ExactCount != 0 {
		t.Fatalf("empty encode: %+v", res)
	}
	if _, _, enc, err := checkpoint.UnmarshalDeltaV2(raw.Bytes()); err != nil || enc.N != 0 {
		t.Fatalf("empty v2 file does not parse: %v", err)
	}
}
