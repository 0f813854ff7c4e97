package fpc

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"
	"testing/quick"
)

func roundTrip(t *testing.T, vals []float64) {
	t.Helper()
	comp := Compress(vals)
	got, err := Decompress(comp)
	if err != nil {
		t.Fatalf("Decompress: %v", err)
	}
	if len(got) != len(vals) {
		t.Fatalf("length %d, want %d", len(got), len(vals))
	}
	for i := range vals {
		if math.Float64bits(got[i]) != math.Float64bits(vals[i]) {
			t.Fatalf("value %d: %x != %x", i, math.Float64bits(got[i]), math.Float64bits(vals[i]))
		}
	}
}

func TestRoundTripEmpty(t *testing.T) { roundTrip(t, nil) }

func TestRoundTripSingle(t *testing.T) { roundTrip(t, []float64{math.Pi}) }

func TestRoundTripOddCount(t *testing.T) {
	roundTrip(t, []float64{1, 2, 3})
}

func TestRoundTripSpecialValues(t *testing.T) {
	roundTrip(t, []float64{
		0, math.Copysign(0, -1), 1, -1,
		math.MaxFloat64, -math.MaxFloat64,
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
		math.Inf(1), math.Inf(-1), math.NaN(),
		math.Pi, math.E, 1e-300, 1e300,
	})
}

func TestRoundTripSmooth(t *testing.T) {
	vals := make([]float64, 10000)
	for i := range vals {
		vals[i] = math.Sin(float64(i) * 0.001)
	}
	roundTrip(t, vals)
}

func TestRoundTripRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	vals := make([]float64, 10000)
	for i := range vals {
		vals[i] = rng.NormFloat64() * math.Exp(rng.NormFloat64()*5)
	}
	roundTrip(t, vals)
}

func TestRoundTripAllTableSizes(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	vals := make([]float64, 2000)
	for i := range vals {
		vals[i] = float64(rng.Intn(100)) * 0.5
	}
	for _, bits := range []int{4, 8, 12, 16, 20} {
		comp := CompressBits(vals, bits)
		got, err := Decompress(comp)
		if err != nil {
			t.Fatalf("bits=%d: %v", bits, err)
		}
		for i := range vals {
			if got[i] != vals[i] {
				t.Fatalf("bits=%d: value %d mismatch", bits, i)
			}
		}
	}
	// Out-of-range table sizes clamp rather than fail.
	if _, err := Decompress(CompressBits(vals[:10], 1)); err != nil {
		t.Errorf("clamped small table: %v", err)
	}
	if _, err := Decompress(CompressBits(vals[:10], 99)); err != nil {
		t.Errorf("clamped large table: %v", err)
	}
}

func TestCompressesRepetitiveData(t *testing.T) {
	// Constant data: FCM predicts perfectly after warm-up, so the
	// stream should be far below 8 bytes/value.
	vals := make([]float64, 100000)
	for i := range vals {
		vals[i] = 42.5
	}
	comp := Compress(vals)
	if r := Ratio(len(comp), len(vals)); r < 80 {
		t.Errorf("constant data ratio = %v%%, want > 80%%", r)
	}
}

func TestLinearSequenceCompresses(t *testing.T) {
	// Arithmetic progressions are DFCM's specialty.
	vals := make([]float64, 50000)
	for i := range vals {
		vals[i] = float64(i)
	}
	comp := Compress(vals)
	if r := Ratio(len(comp), len(vals)); r < 50 {
		t.Errorf("linear data ratio = %v%%, want > 50%%", r)
	}
}

func TestRandomMantissaDoesNotCompress(t *testing.T) {
	// Full-entropy data must not round-trip incorrectly; ratio will be
	// near zero or negative (the 4-bit headers).
	rng := rand.New(rand.NewSource(3))
	vals := make([]float64, 5000)
	for i := range vals {
		vals[i] = math.Float64frombits(rng.Uint64())
		if math.IsNaN(vals[i]) {
			vals[i] = 1.5
		}
	}
	roundTrip(t, vals)
	comp := Compress(vals)
	if r := Ratio(len(comp), len(vals)); r > 20 {
		t.Errorf("random data ratio = %v%%, suspiciously high", r)
	}
}

func TestDecompressCorrupt(t *testing.T) {
	vals := []float64{1, 2, 3, 4, 5}
	comp := Compress(vals)

	cases := map[string][]byte{
		"empty":            {},
		"short":            comp[:5],
		"bad magic":        append([]byte{'X'}, comp[1:]...),
		"truncated":        comp[:len(comp)-1],
		"trailing garbage": append(append([]byte{}, comp...), 0xFF),
	}
	for name, data := range cases {
		if _, err := Decompress(data); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: err = %v, want ErrCorrupt", name, err)
		}
	}
	// Implausible count.
	bad := append([]byte{}, comp...)
	for i := 5; i < 13; i++ {
		bad[i] = 0xFF
	}
	if _, err := Decompress(bad); !errors.Is(err, ErrCorrupt) {
		t.Errorf("huge count: err = %v", err)
	}
	// Bad table bits byte.
	bad2 := append([]byte{}, comp...)
	bad2[4] = 99
	if _, err := Decompress(bad2); !errors.Is(err, ErrCorrupt) {
		t.Errorf("bad table bits: err = %v", err)
	}
}

func TestLeadingZeroBytes(t *testing.T) {
	cases := []struct {
		x    uint64
		want int
	}{
		{0, 8},
		{1, 7},
		{0xFF, 7},
		{0x100, 6},
		{0xFFFFFFFFFFFFFFFF, 0},
		{0x00FFFFFFFFFFFFFF, 1},
		{0x0000000000FF0000, 5},
	}
	for _, c := range cases {
		if got := leadingZeroBytes(c.x); got != c.want {
			t.Errorf("leadingZeroBytes(%x) = %d, want %d", c.x, got, c.want)
		}
	}
}

func TestLZBCodeRoundTrip(t *testing.T) {
	for n := 0; n <= 8; n++ {
		code, stored := encodeLZB(n)
		if code < 0 || code > 7 {
			t.Errorf("encodeLZB(%d) code = %d out of 3 bits", n, code)
		}
		if stored > n {
			t.Errorf("encodeLZB(%d) stores %d > actual", n, stored)
		}
		if decodeLZB(code) != stored {
			t.Errorf("decodeLZB(encodeLZB(%d)) = %d, want %d", n, decodeLZB(code), stored)
		}
	}
}

func TestQuickRoundTrip(t *testing.T) {
	f := func(vals []float64) bool {
		comp := CompressBits(vals, 10)
		got, err := Decompress(comp)
		if err != nil || len(got) != len(vals) {
			return false
		}
		for i := range vals {
			if math.Float64bits(got[i]) != math.Float64bits(vals[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestRatio(t *testing.T) {
	if Ratio(0, 0) != 0 {
		t.Error("Ratio(0,0) != 0")
	}
	if r := Ratio(400, 100); r != 50 {
		t.Errorf("Ratio(400,100) = %v, want 50", r)
	}
	if r := Ratio(1000, 100); r >= 0 {
		t.Errorf("expanding ratio = %v, want negative", r)
	}
}

// fieldInput is a seeded state of n points shaped like the benchmark's
// small fields: a smooth wave, noise of varying magnitude, and runs of
// repeated values, so that both predictors win and residues take every
// length from 0 to 8 bytes. It opens with a ramp, which only the DFCM
// predictor follows: a predictor reused with any state left over from
// an earlier stream mispredicts its first values.
func fieldInput(n int) []float64 {
	rng := rand.New(rand.NewSource(35))
	vals := make([]float64, n)
	for i := range vals {
		switch {
		case i < 64:
			vals[i] = 1 + 0.25*float64(i)
		case i%97 < 9:
			vals[i] = vals[i-1]
		case i%5 == 0:
			vals[i] = float64(i)
		default:
			vals[i] = 50 + 40*math.Sin(float64(i)*0.01) + rng.NormFloat64()*math.Exp(-float64(i%13))
		}
	}
	return vals
}

// goldenSHA256 is the SHA-256 of Compress(fieldInput(12960)), recorded
// from the code before predictors were pooled. Every full checkpoint
// ever written is a Compress stream, so this digest changes only with a
// new full-checkpoint format.
const goldenSHA256 = "5992362895ef9c61ddcead8c92aa4059bd9e3bc0bb5e88dbbd39ba2dedec5953"

// TestCompressGolden pins Compress's bytes, and checks that decoding
// the same stream twice in a row — the second time through a reused
// predictor — returns the input bit for bit both times, and that a
// compress after them, through a predictor reused again, writes the
// same bytes.
func TestCompressGolden(t *testing.T) {
	vals := fieldInput(12960)
	for pass := 0; pass < 2; pass++ {
		comp := Compress(vals)
		if got := fmt.Sprintf("%x", sha256.Sum256(comp)); got != goldenSHA256 {
			t.Fatalf("pass %d: SHA-256 of Compress = %s, want %s", pass, got, goldenSHA256)
		}
		for decode := 0; decode < 2; decode++ {
			got, err := Decompress(comp)
			if err != nil {
				t.Fatalf("pass %d, decode %d: %v", pass, decode, err)
			}
			if len(got) != len(vals) {
				t.Fatalf("pass %d, decode %d: %d values, want %d", pass, decode, len(got), len(vals))
			}
			for i := range vals {
				if math.Float64bits(got[i]) != math.Float64bits(vals[i]) {
					t.Fatalf("pass %d, decode %d: value %d = %x, want %x", pass, decode, i, math.Float64bits(got[i]), math.Float64bits(vals[i]))
				}
			}
		}
	}
}

// TestTableBitsBoundedByCount pins the table-size rule from both sides:
// a stream may not declare tables larger than maxBitsFor its count —
// the 13-byte stream FPC1 | 24 | n=0 once made the decoder allocate
// 256 MiB — and CompressBits clamps to the same rule, so the writer
// never emits a stream the reader refuses.
func TestTableBitsBoundedByCount(t *testing.T) {
	crafted := append([]byte("FPC1"), 24, 0, 0, 0, 0, 0, 0, 0, 0)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := Decompress(crafted)
	runtime.ReadMemStats(&after)
	if !errors.Is(err, ErrCorrupt) {
		t.Errorf("Decompress(FPC1 | 24 | n=0) = %v, want ErrCorrupt", err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > 1<<20 {
		t.Errorf("Decompress(FPC1 | 24 | n=0) allocated %d bytes, want < 1 MiB", got)
	}

	for _, n := range []int{0, 1, 3000, 1 << 16, 1<<17 + 1} {
		vals := fieldInput(n)
		for tb := 1; tb <= 30; tb++ {
			comp := CompressBits(vals, tb)
			if got, limit := int(comp[4]), maxBitsFor(n); got > limit || got < 4 {
				t.Fatalf("n=%d: CompressBits(%d) wrote table bits %d, want in [4, %d]", n, tb, got, limit)
			}
			if _, err := Decompress(comp); err != nil {
				t.Fatalf("n=%d: CompressBits(%d) wrote a stream Decompress refuses: %v", n, tb, err)
			}
		}
	}
}

// TestPooledAllocs pins the steady state of both directions at one
// allocation, the result: the predictor tables come from the pool.
func TestPooledAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop items at random")
	}
	vals := fieldInput(12960)
	comp := Compress(vals)
	if got := testing.AllocsPerRun(20, func() { Compress(vals) }); got != 1 {
		t.Errorf("Compress allocates %.0f times, want 1 (its result)", got)
	}
	if got := testing.AllocsPerRun(20, func() {
		if _, err := Decompress(comp); err != nil {
			t.Fatal(err)
		}
	}); got != 1 {
		t.Errorf("Decompress allocates %.0f times, want 1 (its output)", got)
	}
}

var benchSizes = []int{12960, 1 << 16}

func BenchmarkCompress(b *testing.B) {
	for _, n := range benchSizes {
		vals := fieldInput(n)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.SetBytes(int64(n * 8))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				Compress(vals)
			}
		})
	}
}

func BenchmarkDecompress(b *testing.B) {
	for _, n := range benchSizes {
		comp := Compress(fieldInput(n))
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.SetBytes(int64(n * 8))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Decompress(comp); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
