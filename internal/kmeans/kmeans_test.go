package kmeans

import (
	"errors"
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestRunThreeSeparatedClusters(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var data []float64
	means := []float64{-5, 0, 5}
	for _, m := range means {
		for i := 0; i < 300; i++ {
			data = append(data, m+rng.NormFloat64()*0.1)
		}
	}
	res, err := Run(data, Config{K: 3})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Error("did not converge on well-separated clusters")
	}
	if !sort.Float64sAreSorted(res.Centroids) {
		t.Errorf("centroids not sorted: %v", res.Centroids)
	}
	sizes := make([]int, 3)
	for _, c := range res.Assign {
		sizes[c]++
	}
	for i, m := range means {
		if math.Abs(res.Centroids[i]-m) > 0.05 {
			t.Errorf("centroid %d = %v, want ~%v", i, res.Centroids[i], m)
		}
		if sizes[i] != 300 {
			t.Errorf("cluster %d size = %d, want 300", i, sizes[i])
		}
	}
}

func TestRunAssignmentsAreNearest(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	data := make([]float64, 2000)
	for i := range data {
		data[i] = rng.Float64()*10 - 5
	}
	res, err := Run(data, Config{K: 16})
	if err != nil {
		t.Fatal(err)
	}
	for i, x := range data {
		got := res.Assign[i]
		want := Nearest(res.Centroids, x)
		if math.Abs(res.Centroids[got]-x) > math.Abs(res.Centroids[want]-x)+1e-12 {
			t.Fatalf("point %d assigned to %d (dist %v), nearest is %d (dist %v)",
				i, got, math.Abs(res.Centroids[got]-x), want, math.Abs(res.Centroids[want]-x))
		}
	}
}

func TestRunObjectiveNonIncreasing(t *testing.T) {
	// Lloyd's algorithm must not increase the within-cluster SS:
	// running with more iterations can only improve or match.
	rng := rand.New(rand.NewSource(3))
	data := make([]float64, 1000)
	for i := range data {
		data[i] = rng.ExpFloat64()
	}
	seeds := SeedFromHistogram(data, 8)
	prev := math.Inf(1)
	for _, iters := range []int{1, 2, 5, 20} {
		res, err := Run(data, Config{K: 8, MaxIter: iters, Seeds: seeds, Tol: 1e-300})
		if err != nil {
			t.Fatal(err)
		}
		ss := WithinClusterSS(data, res)
		if ss > prev+1e-9 {
			t.Fatalf("objective increased: %v -> %v at %d iters", prev, ss, iters)
		}
		prev = ss
	}
}

func TestRunErrors(t *testing.T) {
	if _, err := Run(nil, Config{K: 2}); !errors.Is(err, ErrNoData) {
		t.Errorf("nil data err = %v", err)
	}
	if _, err := Run([]float64{1}, Config{K: 0}); err == nil {
		t.Error("K=0 accepted")
	}
	if _, err := Run([]float64{1, math.NaN()}, Config{K: 1}); err == nil {
		t.Error("NaN accepted")
	}
	if _, err := Run([]float64{1, math.Inf(1)}, Config{K: 1}); err == nil {
		t.Error("Inf accepted")
	}
	if _, err := Run([]float64{1, 2}, Config{K: 2, Seeds: []float64{0}}); err == nil {
		t.Error("wrong-length seeds accepted")
	}
}

func TestRunSinglePointManyClusters(t *testing.T) {
	res, err := Run([]float64{3.5}, Config{K: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.Assign[0] < 0 || res.Assign[0] >= 4 {
		t.Errorf("assign = %d", res.Assign[0])
	}
	if c := res.Centroids[res.Assign[0]]; c != 3.5 {
		t.Errorf("assigned centroid = %v, want 3.5", c)
	}
}

func TestRunConstantData(t *testing.T) {
	data := make([]float64, 100)
	for i := range data {
		data[i] = 42
	}
	res, err := Run(data, Config{K: 5})
	if err != nil {
		t.Fatal(err)
	}
	for i := range data {
		if res.Centroids[res.Assign[i]] != 42 {
			t.Fatalf("point %d assigned to centroid %v", i, res.Centroids[res.Assign[i]])
		}
	}
}

func TestRunWorkerCountsAgree(t *testing.T) {
	// The parallel decomposition must not change a bit of the result.
	rng := rand.New(rand.NewSource(4))
	data := make([]float64, 5000)
	for i := range data {
		data[i] = rng.NormFloat64()
	}
	seeds := SeedFromHistogram(data, 10)
	var ref *Result
	for _, w := range []int{1, 2, 3, 8, 64} {
		res, err := Run(data, Config{K: 10, Workers: w, Seeds: seeds, MaxIter: 30})
		if err != nil {
			t.Fatal(err)
		}
		if ref == nil {
			ref = res
			continue
		}
		if res.Iterations != ref.Iterations {
			t.Errorf("workers=%d: iterations %d vs %d", w, res.Iterations, ref.Iterations)
		}
		for c := range res.Centroids {
			if math.Float64bits(res.Centroids[c]) != math.Float64bits(ref.Centroids[c]) {
				t.Errorf("workers=%d: centroid %d = %v vs %v", w, c, res.Centroids[c], ref.Centroids[c])
			}
		}
	}
}

func TestNearest(t *testing.T) {
	cents := []float64{-1, 0, 2, 10}
	cases := []struct {
		x    float64
		want int
	}{
		{-100, 0},
		{-1, 0},
		{-0.5, 0}, // tie between -1 and 0 goes to lower
		{-0.4, 1},
		{0.9, 1},
		{1.1, 2},
		{5.9, 2},
		{6.1, 3},
		{100, 3},
	}
	for _, c := range cases {
		if got := Nearest(cents, c.x); got != c.want {
			t.Errorf("Nearest(%v) = %d, want %d", c.x, got, c.want)
		}
	}
}

func TestNearestIsActuallyNearest(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	cents := make([]float64, 37)
	for i := range cents {
		cents[i] = rng.Float64() * 100
	}
	sort.Float64s(cents)
	f := func(x float64) bool {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return true
		}
		got := Nearest(cents, x)
		best := math.Abs(cents[got] - x)
		for _, c := range cents {
			if math.Abs(c-x) < best-1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestSeedFromHistogram(t *testing.T) {
	// Two tight clumps: the top-2 seeds must land near the clumps.
	var data []float64
	for i := 0; i < 100; i++ {
		data = append(data, 1+float64(i)*1e-4)
	}
	for i := 0; i < 100; i++ {
		data = append(data, 9+float64(i)*1e-4)
	}
	seeds := SeedFromHistogram(data, 2)
	if len(seeds) != 2 {
		t.Fatalf("len(seeds) = %d", len(seeds))
	}
	if !sort.Float64sAreSorted(seeds) {
		t.Errorf("seeds not sorted: %v", seeds)
	}
	if math.Abs(seeds[0]-1) > 0.2 || math.Abs(seeds[1]-9) > 0.2 {
		t.Errorf("seeds = %v, want near [1, 9]", seeds)
	}
}

func TestSeedFromHistogramDegenerate(t *testing.T) {
	if s := SeedFromHistogram(nil, 3); s != nil {
		t.Errorf("nil data seeds = %v", s)
	}
	if s := SeedFromHistogram([]float64{1}, 0); s != nil {
		t.Errorf("k=0 seeds = %v", s)
	}
	s := SeedFromHistogram([]float64{5, 5, 5}, 3)
	if len(s) != 3 {
		t.Fatalf("constant data: %d seeds", len(s))
	}
	for _, v := range s {
		if v != 5 {
			t.Errorf("constant data seed = %v", v)
		}
	}
	// Fewer occupied bins than k: must still return k sorted seeds.
	s = SeedFromHistogram([]float64{0, 100}, 10)
	if len(s) != 10 || !sort.Float64sAreSorted(s) {
		t.Errorf("padded seeds = %v", s)
	}
}

func TestSeedUniform(t *testing.T) {
	s := SeedUniform([]float64{0, 10}, 3)
	want := []float64{0, 5, 10}
	for i := range want {
		if math.Abs(s[i]-want[i]) > 1e-12 {
			t.Errorf("SeedUniform = %v, want %v", s, want)
		}
	}
	s = SeedUniform([]float64{2, 8}, 1)
	if len(s) != 1 || s[0] != 5 {
		t.Errorf("k=1 uniform seed = %v", s)
	}
	if s := SeedUniform(nil, 2); s != nil {
		t.Errorf("nil data: %v", s)
	}
}

func TestHistogramSeedingBeatsUniformOnClumpedData(t *testing.T) {
	// The paper's rationale for histogram seeding: on irregular,
	// multi-modal data it should produce an objective at least as good
	// as naive seeding in the common case. We assert it on a strongly
	// clumped distribution.
	rng := rand.New(rand.NewSource(6))
	var data []float64
	for _, m := range []float64{-3, -2.9, 4, 4.05} {
		for i := 0; i < 500; i++ {
			data = append(data, m+rng.NormFloat64()*0.01)
		}
	}
	hist, err := Run(data, Config{K: 4, MaxIter: 100})
	if err != nil {
		t.Fatal(err)
	}
	uni, err := Run(data, Config{K: 4, MaxIter: 100, Seeds: SeedUniform(data, 4)})
	if err != nil {
		t.Fatal(err)
	}
	hs, us := WithinClusterSS(data, hist), WithinClusterSS(data, uni)
	if hs > us*1.5+1e-9 {
		t.Errorf("histogram seeding SS %v much worse than uniform %v", hs, us)
	}
}

func BenchmarkRunK255(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	data := make([]float64, 20480)
	for i := range data {
		data[i] = rng.NormFloat64() * 0.01
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(data, Config{K: 255, MaxIter: 20}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkNearest(b *testing.B) {
	cents := make([]float64, 511)
	for i := range cents {
		cents[i] = float64(i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Nearest(cents, float64(i%600)-50)
	}
}

func TestIndexMatchesNearest(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 50; trial++ {
		k := 1 + rng.Intn(300)
		cents := make([]float64, k)
		switch trial % 3 {
		case 0: // uniform
			for i := range cents {
				cents[i] = rng.Float64() * 10
			}
		case 1: // heavily clumped with far outliers
			for i := range cents {
				cents[i] = rng.NormFloat64() * 0.001
			}
			cents[0] = -50
			cents[k-1] = 50
		case 2: // all identical
			v := rng.Float64()
			for i := range cents {
				cents[i] = v
			}
		}
		sort.Float64s(cents)
		ix := NewIndex(cents)
		for q := 0; q < 500; q++ {
			x := rng.NormFloat64() * 20
			got := ix.Nearest(x)
			want := Nearest(cents, x)
			// Equal distance may pick different but equally near
			// centroids only if values tie; require identical distance.
			if math.Abs(cents[got]-x) != math.Abs(cents[want]-x) {
				t.Fatalf("trial %d k=%d x=%v: index -> %d (%v), reference -> %d (%v)",
					trial, k, x, got, cents[got], want, cents[want])
			}
		}
		// Probe exactly at centroids and range edges.
		for _, x := range []float64{cents[0], cents[k-1], cents[k/2]} {
			got := ix.Nearest(x)
			if cents[got] != x {
				t.Fatalf("trial %d: probe at centroid %v -> %v", trial, x, cents[got])
			}
		}
	}
}

// smoothRatios returns n change ratios outside a 0.001 zero bin, drawn
// like a smooth simulation step: 99.5 % from N(0, 0.4 %) and 0.5 % from
// N(0, 30 %), clipped to ±0.9 — the table input of the codec_large
// benchmark workload.
func smoothRatios(n int) []float64 {
	rng := rand.New(rand.NewSource(1))
	out := make([]float64, 0, n)
	for len(out) < n {
		d := 0.004 * rng.NormFloat64()
		if rng.Intn(1000) < 5 {
			d = 0.30 * rng.NormFloat64()
		}
		d = math.Max(-0.9, math.Min(0.9, d))
		if math.Abs(d) >= 0.001 {
			out = append(out, d)
		}
	}
	return out
}

// learnedTable fits 255 centroids to data the way the clustering
// strategy's sketch path does: an 8160-cell sketch, histogram seeds, 12
// weighted Lloyd iterations. The table is dense near 0 with wide tails.
func learnedTable(data []float64) []float64 {
	lo, hi := data[0], data[0]
	for _, x := range data {
		lo, hi = min(lo, x), max(hi, x)
	}
	const k = 255
	sk := NewSketch(lo, hi, 32*k)
	sk.Add(data)
	counts := make([]int, SeedHistogramBins(k))
	w := (hi - lo) / float64(len(counts))
	for _, x := range data {
		counts[min(int((x-lo)/w), len(counts)-1)]++
	}
	points, weights := sk.Points()
	res, err := RunWeighted(points, weights, Config{K: k, MaxIter: 12, Seeds: SeedFromCounts(lo, hi, counts, k)})
	if err != nil {
		panic(err)
	}
	return res.Centroids
}

// BenchmarkIndexNearest looks up the codec_large table input in the
// table learned from it: through the candidate grid alone ("grid"),
// through the index the clustering binner builds for that many lookups
// ("resolved"), and the cost of building the latter ("build").
func BenchmarkIndexNearest(b *testing.B) {
	data := smoothRatios(420000)
	cents := learnedTable(data)
	lookup := func(ix *Index) func(b *testing.B) {
		return func(b *testing.B) {
			s := 0
			for i := 0; i < b.N; {
				for _, x := range data[:min(len(data), b.N-i)] {
					s += ix.Nearest(x)
				}
				i += len(data)
			}
			sink = s
		}
	}
	b.Run("grid", lookup(NewIndex(cents)))
	b.Run("resolved", lookup(NewIndexFor(cents, len(data))))
	b.Run("build", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			NewIndexFor(cents, len(data))
		}
	})
}

var sink int
