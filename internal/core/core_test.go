package core

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// genData builds a synthetic prev/cur pair where most points change by a
// small ratio and some by larger amounts, resembling checkpoint data.
func genData(n int, seed int64) (prev, cur []float64) {
	rng := rand.New(rand.NewSource(seed))
	prev = make([]float64, n)
	cur = make([]float64, n)
	for i := range prev {
		prev[i] = 10 + rng.Float64()*90
		var ratio float64
		switch r := rng.Float64(); {
		case r < 0.7: // small change
			ratio = rng.NormFloat64() * 0.0005
		case r < 0.95: // moderate
			ratio = rng.NormFloat64() * 0.01
		default: // large
			ratio = rng.NormFloat64() * 0.2
		}
		cur[i] = prev[i] * (1 + ratio)
	}
	return prev, cur
}

func defaultOpts(s Strategy) Options {
	return Options{ErrorBound: 0.001, IndexBits: 8, Strategy: s}
}

func TestEncodeDecodeErrorBoundAllStrategies(t *testing.T) {
	prev, cur := genData(20000, 1)
	for _, s := range Strategies {
		s := s
		t.Run(s.String(), func(t *testing.T) {
			enc, err := Encode(prev, cur, defaultOpts(s))
			if err != nil {
				t.Fatal(err)
			}
			rec, err := enc.Decode(prev)
			if err != nil {
				t.Fatal(err)
			}
			// The paper's guarantee: the approximated change ratio
			// deviates from the true ratio by at most E at every point
			// when decoding against the true previous values.
			E := enc.Opt.ErrorBound
			for j := range cur {
				if prev[j] == 0 {
					continue
				}
				trueRatio := (cur[j] - prev[j]) / prev[j]
				recRatio := (rec[j] - prev[j]) / prev[j]
				if d := math.Abs(recRatio - trueRatio); d > E+1e-12 {
					t.Fatalf("point %d: ratio error %v exceeds bound %v", j, d, E)
				}
			}
			if m := enc.MaxErrorRate(); m > E+1e-12 {
				t.Errorf("MaxErrorRate %v exceeds bound %v", m, E)
			}
			if m := enc.MeanErrorRate(); m > enc.MaxErrorRate()+1e-15 {
				t.Errorf("mean %v > max %v", m, enc.MaxErrorRate())
			}
		})
	}
}

func TestIncompressiblePointsAreExact(t *testing.T) {
	prev, cur := genData(5000, 2)
	for _, s := range Strategies {
		enc, err := Encode(prev, cur, defaultOpts(s))
		if err != nil {
			t.Fatal(err)
		}
		rec, err := enc.Decode(prev)
		if err != nil {
			t.Fatal(err)
		}
		for j := range cur {
			if enc.Incompressible.Get(j) && rec[j] != cur[j] {
				t.Fatalf("%v: incompressible point %d reconstructed %v, want exact %v", s, j, rec[j], cur[j])
			}
		}
	}
}

func TestZeroPrevStoredExactly(t *testing.T) {
	prev := []float64{0, 1, 0, 2}
	cur := []float64{5, 1.0005, -3, 2.001}
	enc, err := Encode(prev, cur, defaultOpts(EqualWidth))
	if err != nil {
		t.Fatal(err)
	}
	if !enc.Incompressible.Get(0) || !enc.Incompressible.Get(2) {
		t.Error("zero-prev points not marked incompressible")
	}
	rec, err := enc.Decode(prev)
	if err != nil {
		t.Fatal(err)
	}
	if rec[0] != 5 || rec[2] != -3 {
		t.Errorf("zero-prev reconstruction = %v", rec)
	}
}

func TestUnchangedDataCompressesToZeroIndices(t *testing.T) {
	prev := make([]float64, 1000)
	for i := range prev {
		prev[i] = float64(i + 1)
	}
	cur := append([]float64(nil), prev...)
	for _, s := range Strategies {
		enc, err := Encode(prev, cur, defaultOpts(s))
		if err != nil {
			t.Fatalf("%v: %v", s, err)
		}
		if g := enc.Gamma(); g != 0 {
			t.Errorf("%v: gamma = %v on unchanged data", s, g)
		}
		for j, idx := range enc.Indices {
			if idx != 0 {
				t.Fatalf("%v: point %d got index %d on unchanged data", s, j, idx)
			}
		}
		if enc.MeanErrorRate() != 0 {
			t.Errorf("%v: mean error %v on unchanged data", s, enc.MeanErrorRate())
		}
		rec, err := enc.Decode(prev)
		if err != nil {
			t.Fatal(err)
		}
		for j := range rec {
			if rec[j] != prev[j] {
				t.Fatalf("%v: unchanged point %d decoded to %v", s, j, rec[j])
			}
		}
	}
}

func TestNonFiniteInputRejected(t *testing.T) {
	cases := [][2][]float64{
		{{1, math.NaN()}, {1, 2}},
		{{1, 2}, {1, math.Inf(1)}},
		{{math.Inf(-1), 2}, {1, 2}},
	}
	for i, c := range cases {
		if _, err := Encode(c[0], c[1], defaultOpts(EqualWidth)); !errors.Is(err, ErrNonFinite) {
			t.Errorf("case %d: err = %v, want ErrNonFinite", i, err)
		}
	}
}

func TestLengthMismatchRejected(t *testing.T) {
	if _, err := Encode([]float64{1, 2}, []float64{1}, defaultOpts(EqualWidth)); !errors.Is(err, ErrLength) {
		t.Errorf("err = %v, want ErrLength", err)
	}
	enc, err := Encode([]float64{1, 2}, []float64{1, 2}, defaultOpts(EqualWidth))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := enc.Decode([]float64{1}); !errors.Is(err, ErrLength) {
		t.Errorf("Decode err = %v, want ErrLength", err)
	}
}

func TestOptionsValidation(t *testing.T) {
	bad := []Options{
		{ErrorBound: 0, IndexBits: 8},
		{ErrorBound: -0.1, IndexBits: 8},
		{ErrorBound: 1.5, IndexBits: 8},
		{ErrorBound: math.NaN(), IndexBits: 8},
		{ErrorBound: 0.001, IndexBits: 0},
		{ErrorBound: 0.001, IndexBits: 25},
		{ErrorBound: 0.001, IndexBits: 8, Strategy: Strategy(99)},
	}
	for i, o := range bad {
		if _, err := o.Validate(); !errors.Is(err, ErrBadOptions) {
			t.Errorf("case %d (%+v): err = %v, want ErrBadOptions", i, o, err)
		}
	}
	good, err := Options{ErrorBound: 0.001, IndexBits: 8}.Validate()
	if err != nil {
		t.Fatal(err)
	}
	if good.KMeansMaxIter != 12 {
		t.Errorf("default KMeansMaxIter = %d", good.KMeansMaxIter)
	}
}

func TestNumBins(t *testing.T) {
	for _, c := range []struct{ b, want int }{{1, 1}, {8, 255}, {9, 511}, {10, 1023}} {
		o := Options{IndexBits: c.b}
		if got := o.NumBins(); got != c.want {
			t.Errorf("NumBins(B=%d) = %d, want %d", c.b, got, c.want)
		}
	}
}

func TestParseStrategy(t *testing.T) {
	for _, c := range []struct {
		in   string
		want Strategy
	}{
		{"equal-width", EqualWidth}, {"ew", EqualWidth}, {"equal", EqualWidth},
		{"log-scale", LogScale}, {"log", LogScale}, {"ls", LogScale},
		{"clustering", Clustering}, {"kmeans", Clustering}, {"cl", Clustering},
	} {
		got, err := ParseStrategy(c.in)
		if err != nil || got != c.want {
			t.Errorf("ParseStrategy(%q) = %v, %v", c.in, got, err)
		}
	}
	if _, err := ParseStrategy("bogus"); err == nil {
		t.Error("bogus strategy accepted")
	}
}

func TestStrategyString(t *testing.T) {
	if EqualWidth.String() != "equal-width" || LogScale.String() != "log-scale" || Clustering.String() != "clustering" {
		t.Error("Strategy.String mismatch")
	}
	if Strategy(42).String() == "" {
		t.Error("unknown strategy String empty")
	}
}

func TestGammaCountsMatchExactValues(t *testing.T) {
	prev, cur := genData(3000, 3)
	for _, s := range Strategies {
		enc, err := Encode(prev, cur, defaultOpts(s))
		if err != nil {
			t.Fatal(err)
		}
		if enc.Incompressible.Count() != len(enc.Exact) {
			t.Errorf("%v: bitmap count %d != exact values %d", s, enc.Incompressible.Count(), len(enc.Exact))
		}
		wantGamma := float64(len(enc.Exact)) / float64(enc.N)
		if math.Abs(enc.Gamma()-wantGamma) > 1e-15 {
			t.Errorf("%v: Gamma = %v, want %v", s, enc.Gamma(), wantGamma)
		}
	}
}

func TestPackedIndicesRoundTrip(t *testing.T) {
	prev, cur := genData(1000, 4)
	enc, err := Encode(prev, cur, defaultOpts(Clustering))
	if err != nil {
		t.Fatal(err)
	}
	packed, err := enc.PackedIndices()
	if err != nil {
		t.Fatal(err)
	}
	if len(packed) != (1000*8+7)/8 {
		t.Errorf("packed len = %d", len(packed))
	}
}

func TestEncodedSizeBytesSmallerThanRaw(t *testing.T) {
	prev, cur := genData(20000, 5)
	enc, err := Encode(prev, cur, defaultOpts(Clustering))
	if err != nil {
		t.Fatal(err)
	}
	raw := 8 * len(cur)
	if got := enc.EncodedSizeBytes(); got >= raw {
		t.Errorf("encoded %d bytes >= raw %d (gamma=%v)", got, raw, enc.Gamma())
	}
}

func TestCompressionRatioConsistency(t *testing.T) {
	prev, cur := genData(20000, 6)
	enc, err := Encode(prev, cur, defaultOpts(Clustering))
	if err != nil {
		t.Fatal(err)
	}
	r, err := enc.CompressionRatio()
	if err != nil {
		t.Fatal(err)
	}
	rb, err := enc.CompressionRatioWithBitmap()
	if err != nil {
		t.Fatal(err)
	}
	if rb >= r {
		t.Errorf("bitmap-inclusive ratio %v not below Eq.3 ratio %v", rb, r)
	}
	if r < 50 {
		t.Errorf("compression ratio %v suspiciously low for compressible data (gamma %v)", r, enc.Gamma())
	}
}

func TestIndexZeroReservedMeansSmallRatio(t *testing.T) {
	prev, cur := genData(5000, 7)
	enc, err := Encode(prev, cur, defaultOpts(LogScale))
	if err != nil {
		t.Fatal(err)
	}
	for j := range cur {
		if enc.Indices[j] == 0 && !enc.Incompressible.Get(j) {
			if d := math.Abs(enc.TrueRatios[j]); d >= enc.Opt.ErrorBound {
				t.Fatalf("point %d has index 0 but |ratio| %v >= E", j, d)
			}
		}
	}
}

func TestDisableZeroIndexAblation(t *testing.T) {
	prev, cur := genData(5000, 8)
	opt := defaultOpts(Clustering)
	opt.DisableZeroIndex = true
	enc, err := Encode(prev, cur, opt)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := enc.Decode(prev)
	if err != nil {
		t.Fatal(err)
	}
	E := opt.ErrorBound
	for j := range cur {
		trueRatio := (cur[j] - prev[j]) / prev[j]
		recRatio := (rec[j] - prev[j]) / prev[j]
		if d := math.Abs(recRatio - trueRatio); d > E+1e-12 {
			t.Fatalf("ablation: point %d ratio error %v exceeds bound", j, d)
		}
	}
}

func TestClusteringUniformSeedingStillBounded(t *testing.T) {
	prev, cur := genData(5000, 9)
	opt := defaultOpts(Clustering)
	opt.UniformSeeding = true
	enc, err := Encode(prev, cur, opt)
	if err != nil {
		t.Fatal(err)
	}
	if m := enc.MaxErrorRate(); m > opt.ErrorBound+1e-12 {
		t.Errorf("uniform seeding max error %v exceeds bound", m)
	}
}

func TestEmptyInput(t *testing.T) {
	enc, err := Encode(nil, nil, defaultOpts(EqualWidth))
	if err != nil {
		t.Fatal(err)
	}
	if enc.N != 0 || enc.Gamma() != 0 || enc.MeanErrorRate() != 0 {
		t.Errorf("empty encode: %+v", enc)
	}
	rec, err := enc.Decode(nil)
	if err != nil || len(rec) != 0 {
		t.Errorf("empty decode: %v, %v", rec, err)
	}
}

func TestSinglePoint(t *testing.T) {
	enc, err := Encode([]float64{10}, []float64{11}, defaultOpts(Clustering))
	if err != nil {
		t.Fatal(err)
	}
	rec, err := enc.Decode([]float64{10})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs((rec[0]-10)/10-0.1) > enc.Opt.ErrorBound {
		t.Errorf("single point decoded to %v", rec[0])
	}
}

func TestNegativeValuesAndRatios(t *testing.T) {
	prev := []float64{-10, -20, 5, -1}
	cur := []float64{-11, -20.004, 4.5, 1} // ratios: 0.1, 0.0002, -0.1, -2
	for _, s := range Strategies {
		enc, err := Encode(prev, cur, defaultOpts(s))
		if err != nil {
			t.Fatalf("%v: %v", s, err)
		}
		rec, err := enc.Decode(prev)
		if err != nil {
			t.Fatal(err)
		}
		for j := range cur {
			trueRatio := (cur[j] - prev[j]) / prev[j]
			recRatio := (rec[j] - prev[j]) / prev[j]
			if math.Abs(recRatio-trueRatio) > enc.Opt.ErrorBound+1e-12 {
				t.Fatalf("%v: point %d error too large (rec=%v cur=%v)", s, j, rec[j], cur[j])
			}
		}
	}
}

func TestRatioOverflowStoredExactly(t *testing.T) {
	// prev so small that (cur-prev)/prev overflows float64.
	tiny := math.SmallestNonzeroFloat64
	prev := []float64{tiny, 1}
	cur := []float64{1e308, 1.0001}
	enc, err := Encode(prev, cur, defaultOpts(EqualWidth))
	if err != nil {
		t.Fatal(err)
	}
	if !enc.Incompressible.Get(0) {
		t.Error("overflowing ratio not stored exactly")
	}
	rec, err := enc.Decode(prev)
	if err != nil {
		t.Fatal(err)
	}
	if rec[0] != 1e308 {
		t.Errorf("overflow point decoded to %v", rec[0])
	}
}

func TestComputeRatios(t *testing.T) {
	prev := []float64{10, 0, 4}
	cur := []float64{11, 5, 2}
	var r Ratios
	if _, err := computeRatios(prev, cur, 0, 2, Options{ErrorBound: 0.2}, &r, nil); err != nil {
		t.Fatal(err)
	}
	if math.Abs(r.Delta[0]-0.1) > 1e-15 || r.Kind[0] != RatioOK {
		t.Errorf("ratio 0 = %v kind %v", r.Delta[0], r.Kind[0])
	}
	if r.Kind[1] != RatioNoBase {
		t.Errorf("zero-prev kind = %v", r.Kind[1])
	}
	if math.Abs(r.Delta[2]+0.5) > 1e-15 {
		t.Errorf("ratio 2 = %v", r.Delta[2])
	}
	// The table input: with the zero index, the ratios with |Δ| >= E;
	// without it, every finite ratio.
	large, err := TableInput(prev, cur, Options{ErrorBound: 0.2})
	if err != nil || len(large) != 1 || large[0] != -0.5 {
		t.Errorf("TableInput with the zero index = %v, %v", large, err)
	}
	all, err := TableInput(prev, cur, Options{ErrorBound: 0.2, DisableZeroIndex: true})
	if err != nil || len(all) != 2 || all[0] != r.Delta[0] || all[1] != -0.5 {
		t.Errorf("TableInput without the zero index = %v, %v", all, err)
	}
}

// TestComputeRatiosWorkerIndependence pins that an encode's output does
// not depend on Workers: at n above two forEachRange ranges the driver
// splits the one chunk's ratio and assign stages over ranges, and the
// indices, flag bytes, exact values and table must not move. Workers
// that own adjacent splitPoints ranges write neighbouring flag bytes,
// so the data must flag points next to a range boundary.
func TestComputeRatiosWorkerIndependence(t *testing.T) {
	prev, cur := genData(3*statRangePoints+17, 10)
	for _, s := range append(Strategies, EqualFrequency) {
		var ref *Encoded
		for _, w := range []int{1, 2, 5, 16} {
			opt := defaultOpts(s)
			opt.Workers = w
			e, err := Encode(prev, cur, opt)
			if err != nil {
				t.Fatal(err)
			}
			if ref == nil {
				ref = e
				continue
			}
			if !slices.Equal(e.Indices, ref.Indices) || !bytes.Equal(e.Incompressible.Bytes(), ref.Incompressible.Bytes()) ||
				!bitsEqual(e.Exact, ref.Exact) || !bitsEqual(e.BinRatios, ref.BinRatios) {
				t.Fatalf("%v: workers=%d encodes differently from workers=1", s, w)
			}
		}
		nearBoundary := false
		for j := splitPoints - 8; j < ref.N; j++ {
			if off := j % splitPoints; (off < 8 || off >= splitPoints-8) && ref.Incompressible.Get(j) {
				nearBoundary = true
				break
			}
		}
		if !nearBoundary {
			t.Errorf("%v: no flagged point within 8 points of a %d-point range boundary", s, splitPoints)
		}
	}
}

// bitsEqual reports whether a and b hold the same float64 bit patterns.
func bitsEqual(a, b []float64) bool {
	return slices.EqualFunc(a, b, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
}

func TestDeterministicEncoding(t *testing.T) {
	prev, cur := genData(5000, 11)
	for _, s := range Strategies {
		a, err := Encode(prev, cur, defaultOpts(s))
		if err != nil {
			t.Fatal(err)
		}
		b, err := Encode(prev, cur, defaultOpts(s))
		if err != nil {
			t.Fatal(err)
		}
		if a.Gamma() != b.Gamma() {
			t.Errorf("%v: non-deterministic gamma %v vs %v", s, a.Gamma(), b.Gamma())
		}
		for j := range a.Indices {
			if a.Indices[j] != b.Indices[j] {
				t.Fatalf("%v: non-deterministic index at %d", s, j)
			}
		}
	}
}

func TestBinTableFitsIndexSpace(t *testing.T) {
	prev, cur := genData(10000, 12)
	for _, bits := range []int{1, 2, 4, 8, 9, 10} {
		for _, s := range Strategies {
			opt := Options{ErrorBound: 0.001, IndexBits: bits, Strategy: s}
			enc, err := Encode(prev, cur, opt)
			if err != nil {
				t.Fatalf("B=%d %v: %v", bits, s, err)
			}
			if len(enc.BinRatios) > opt.NumBins() {
				t.Errorf("B=%d %v: %d bins exceed capacity %d", bits, s, len(enc.BinRatios), opt.NumBins())
			}
			maxIdx := uint32(0)
			for _, idx := range enc.Indices {
				if idx > maxIdx {
					maxIdx = idx
				}
			}
			if int(maxIdx) > opt.NumBins() {
				t.Errorf("B=%d %v: max index %d exceeds 2^B-1", bits, s, maxIdx)
			}
		}
	}
}
