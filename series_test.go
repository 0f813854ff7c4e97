package numarck_test

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"numarck"
)

func makeIterations(n, iters int, seed int64) [][]float64 {
	rng := rand.New(rand.NewSource(seed))
	out := make([][]float64, iters)
	out[0] = make([]float64, n)
	for j := range out[0] {
		out[0][j] = 100 + rng.Float64()*50
	}
	for i := 1; i < iters; i++ {
		out[i] = make([]float64, n)
		for j := range out[i] {
			out[i][j] = out[i-1][j] * (1 + rng.NormFloat64()*0.002)
		}
	}
	return out
}

func seriesOpts() numarck.Options {
	return numarck.Options{ErrorBound: 0.001, IndexBits: 8, Strategy: numarck.Clustering}
}

func TestCompressSeriesRoundTrip(t *testing.T) {
	iters := makeIterations(3000, 24, 1)
	s, err := numarck.CompressSeries(iters, seriesOpts())
	if err != nil {
		t.Fatal(err)
	}
	if s.Len() != 24 {
		t.Fatalf("Len = %d", s.Len())
	}
	all, err := s.ReconstructAll()
	if err != nil {
		t.Fatal(err)
	}
	// The series is encoded closed-loop: one step's bound at any depth.
	for i := 1; i < len(iters); i++ {
		for j := range iters[i] {
			err, bound := math.Abs(all[i][j]-iters[i][j]), 0.001*math.Abs(all[i-1][j])*(1+1e-9)
			if err > bound {
				t.Fatalf("iteration %d point %d: error %v exceeds E·|x̂_{i-1}| = %v", i, j, err, bound)
			}
		}
	}
	// First iteration is exact.
	for j := range iters[0] {
		if all[0][j] != iters[0][j] {
			t.Fatal("first iteration not exact")
		}
	}
	// Single-iteration reconstruction matches the batch one.
	r5, err := s.Reconstruct(5)
	if err != nil {
		t.Fatal(err)
	}
	for j := range r5 {
		if r5[j] != all[5][j] {
			t.Fatalf("Reconstruct(5) differs at %d", j)
		}
	}
}

func TestCompressSeriesSavesStorage(t *testing.T) {
	iters := makeIterations(5000, 10, 2)
	s, err := numarck.CompressSeries(iters, seriesOpts())
	if err != nil {
		t.Fatal(err)
	}
	if r := s.CompressionRatio(); r < 50 {
		t.Errorf("series compression %v%%", r)
	}
	if s.StorageBytes() >= 8*5000*10 {
		t.Errorf("storage %d not below raw", s.StorageBytes())
	}
}

func TestCompressSeriesErrors(t *testing.T) {
	if _, err := numarck.CompressSeries(nil, seriesOpts()); !errors.Is(err, numarck.ErrSeries) {
		t.Errorf("empty: %v", err)
	}
	iters := makeIterations(10, 2, 3)
	iters[1] = iters[1][:5] // length mismatch mid-series
	if _, err := numarck.CompressSeries(iters, seriesOpts()); err == nil {
		t.Error("length mismatch accepted")
	}
	s, err := numarck.CompressSeries(makeIterations(10, 3, 4), seriesOpts())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Reconstruct(-1); !errors.Is(err, numarck.ErrSeries) {
		t.Errorf("negative index: %v", err)
	}
	if _, err := s.Reconstruct(3); !errors.Is(err, numarck.ErrSeries) {
		t.Errorf("past-end index: %v", err)
	}
}

func TestCompressSeriesSingleIteration(t *testing.T) {
	s, err := numarck.CompressSeries(makeIterations(100, 1, 5), seriesOpts())
	if err != nil {
		t.Fatal(err)
	}
	if s.Len() != 1 {
		t.Errorf("Len = %d", s.Len())
	}
	r, err := s.Reconstruct(0)
	if err != nil || len(r) != 100 {
		t.Errorf("reconstruct: %v, %d values", err, len(r))
	}
}
