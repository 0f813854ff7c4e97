package kmeans

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// Unit weights make RunWeighted the same arithmetic as a single-worker
// Run (x*1.0 == x and a sum of ones is exact), so the two must agree
// bit-for-bit given the same seeds.
func TestRunWeightedUnitWeightsMatchesRun(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	data := make([]float64, 2000)
	for i := range data {
		data[i] = rng.NormFloat64()
	}
	seeds := SeedFromHistogram(data, 15)
	cfg := Config{K: 15, MaxIter: 40, Workers: 1, Seeds: seeds}

	plain, err := Run(data, cfg)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	w := make([]float64, len(data))
	for i := range w {
		w[i] = 1
	}
	weighted, err := RunWeighted(data, w, cfg)
	if err != nil {
		t.Fatalf("RunWeighted: %v", err)
	}
	if !reflect.DeepEqual(plain.Centroids, weighted.Centroids) {
		t.Errorf("centroids diverge:\n run: %v\nwrun: %v", plain.Centroids, weighted.Centroids)
	}
	if !reflect.DeepEqual(plain.Assign, weighted.Assign) {
		t.Error("assignments diverge")
	}
	if plain.Iterations != weighted.Iterations || plain.Converged != weighted.Converged {
		t.Errorf("iteration mismatch: run=(%d,%v) weighted=(%d,%v)",
			plain.Iterations, plain.Converged, weighted.Iterations, weighted.Converged)
	}
}

// A point with weight w must pull its centroid exactly like w copies of
// the same point.
func TestRunWeightedWeightEqualsReplication(t *testing.T) {
	pts := []float64{-2, -1.9, 0.1, 3}
	wts := []float64{3, 1, 2, 1}
	var replicated []float64
	for i, p := range pts {
		for c := 0; c < int(wts[i]); c++ {
			replicated = append(replicated, p)
		}
	}
	seeds := []float64{-2, 3}
	weighted, err := RunWeighted(pts, wts, Config{K: 2, Seeds: seeds})
	if err != nil {
		t.Fatalf("RunWeighted: %v", err)
	}
	plain, err := Run(replicated, Config{K: 2, Workers: 1, Seeds: seeds})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	for c := range plain.Centroids {
		if math.Abs(plain.Centroids[c]-weighted.Centroids[c]) > 1e-12 {
			t.Errorf("centroid %d: replicated %v, weighted %v", c, plain.Centroids[c], weighted.Centroids[c])
		}
	}
}

func TestRunWeightedDeterminism(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	pts := make([]float64, 500)
	wts := make([]float64, 500)
	for i := range pts {
		pts[i] = rng.Float64() * 10
		wts[i] = 1 + rng.Float64()*100
	}
	a, err := RunWeighted(pts, wts, Config{K: 9})
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunWeighted(pts, wts, Config{K: 9})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.Centroids, b.Centroids) {
		t.Error("RunWeighted is not deterministic across runs")
	}
}

func TestRunWeightedErrors(t *testing.T) {
	if _, err := RunWeighted(nil, nil, Config{K: 2}); err == nil {
		t.Error("want error on empty input")
	}
	if _, err := RunWeighted([]float64{1, 2}, []float64{1}, Config{K: 1}); err == nil {
		t.Error("want error on length mismatch")
	}
	if _, err := RunWeighted([]float64{1, 2}, []float64{1, 0}, Config{K: 1}); err == nil {
		t.Error("want error on zero weight")
	}
	if _, err := RunWeighted([]float64{1, 2}, []float64{1, -3}, Config{K: 1}); err == nil {
		t.Error("want error on negative weight")
	}
	if _, err := RunWeighted([]float64{1, math.NaN()}, []float64{1, 1}, Config{K: 1}); err == nil {
		t.Error("want error on NaN point")
	}
	if _, err := RunWeighted([]float64{1, 2}, []float64{1, math.Inf(1)}, Config{K: 1}); err == nil {
		t.Error("want error on infinite weight")
	}
	if _, err := RunWeighted([]float64{1, 2}, []float64{1, 1}, Config{K: 0}); err == nil {
		t.Error("want error on K=0")
	}
}

// Duplicate points collapse to fewer clusters than K without error.
func TestRunWeightedDegenerate(t *testing.T) {
	res, err := RunWeighted([]float64{5, 5, 5}, []float64{1, 2, 3}, Config{K: 2})
	if err != nil {
		t.Fatalf("RunWeighted: %v", err)
	}
	for _, c := range res.Centroids {
		if c != 5 {
			t.Errorf("centroid %v, want 5", c)
		}
	}
}

// Splitting data arbitrarily across sketches and merging must give the
// same cells as one sketch over everything, regardless of merge order.
func TestSketchMergeAssociative(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	data := make([]float64, 3000)
	for i := range data {
		data[i] = rng.NormFloat64() * 4
	}
	lo, hi := -20.0, 20.0

	whole := NewSketch(lo, hi, 256)
	whole.Add(data)

	parts := []*Sketch{NewSketch(lo, hi, 256), NewSketch(lo, hi, 256), NewSketch(lo, hi, 256)}
	parts[0].Add(data[:1000])
	parts[1].Add(data[1000:1100])
	parts[2].Add(data[1100:])

	// Merge in a scrambled order: ((p2 <- p0) <- p1).
	if err := parts[2].Merge(parts[0]); err != nil {
		t.Fatal(err)
	}
	if err := parts[2].Merge(parts[1]); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(whole.Count, parts[2].Count) {
		t.Error("merged counts differ from whole-data sketch")
	}
	for i := range whole.Sum {
		if math.Abs(whole.Sum[i]-parts[2].Sum[i]) > 1e-9 {
			t.Errorf("cell %d sum: whole %v merged %v", i, whole.Sum[i], parts[2].Sum[i])
		}
	}
}

// A sketch refilled after Reset or Regrid must hold exactly what a
// fresh one holds, and merging refilled sketches, which walks only the cells each
// touched, must give the bits of a merge over every cell — −0 values
// included, whose cells sum to +0.
func TestSketchResetMatchesFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	parts := make([][]float64, 5)
	for p := range parts {
		parts[p] = make([]float64, 50+rng.Intn(500))
		for i := range parts[p] {
			parts[p][i] = rng.NormFloat64()
			if rng.Intn(9) == 0 {
				parts[p][i] = math.Copysign(0, -1)
			}
		}
	}
	lo, hi := -5.0, 5.0
	slot := NewSketch(lo, hi, 512)
	merged := NewSketch(lo, hi, 512)
	var fullCount []int64
	var fullSum []float64
	for p, xs := range parts {
		slot.Reset()
		slot.Add(xs)
		fresh := NewSketch(lo, hi, 512)
		fresh.Add(xs)
		if !reflect.DeepEqual(slot.Count, fresh.Count) || !sameBits(slot.Sum, fresh.Sum) {
			t.Fatalf("part %d: refilled sketch differs from a fresh one", p)
		}
		if err := merged.Merge(slot); err != nil {
			t.Fatal(err)
		}
		if p == 0 {
			fullCount, fullSum = append([]int64(nil), fresh.Count...), append([]float64(nil), fresh.Sum...)
			continue
		}
		for i := range fullCount {
			fullCount[i] += fresh.Count[i]
			fullSum[i] += fresh.Sum[i]
		}
	}
	if !reflect.DeepEqual(merged.Count, fullCount) || !sameBits(merged.Sum, fullSum) {
		t.Error("merging touched cells differs from merging every cell")
	}
	// Regrid moves a used sketch onto another grid, shorter or longer
	// than its last, as NewSketch would make it.
	for p, xs := range parts {
		bins, lo, hi := []int{64, 512, 300, 1024, 16}[p], -1-float64(p), 1+float64(p)
		slot.Regrid(lo, hi, bins)
		slot.Add(xs)
		fresh := NewSketch(lo, hi, bins)
		fresh.Add(xs)
		if !reflect.DeepEqual(slot.Count, fresh.Count) || !sameBits(slot.Sum, fresh.Sum) || math.Float64bits(slot.inv) != math.Float64bits(fresh.inv) {
			t.Fatalf("part %d: sketch regridded to %d cells over [%v, %v] differs from a fresh one", p, bins, lo, hi)
		}
	}
}

// sameBits reports whether a and b hold the same float64 bit patterns.
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

func TestSketchPoints(t *testing.T) {
	s := NewSketch(0, 10, 10)
	s.Add([]float64{0.2, 0.4, 5.5, 9.9, 11, -3}) // 11 and -3 clamp into edge cells
	centers, weights := s.Points()
	if len(centers) != len(weights) {
		t.Fatalf("lengths differ: %d vs %d", len(centers), len(weights))
	}
	var total float64
	for i, w := range weights {
		if w <= 0 {
			t.Errorf("weight %d is %v", i, w)
		}
		total += w
	}
	if total != 6 {
		t.Errorf("total weight %v, want 6", total)
	}
	for i := 1; i < len(centers); i++ {
		if centers[i] < centers[i-1] {
			t.Errorf("centers not sorted: %v", centers)
		}
	}
	// Cell [0,1) holds 0.2, 0.4 and the clamped -3: mean (0.2+0.4-3)/3.
	want := (0.2 + 0.4 - 3) / 3
	if math.Abs(centers[0]-want) > 1e-12 {
		t.Errorf("first micro-centroid %v, want %v", centers[0], want)
	}
}

func TestSketchMergeGridMismatch(t *testing.T) {
	a := NewSketch(0, 1, 8)
	if err := a.Merge(NewSketch(0, 1, 16)); err == nil {
		t.Error("want error merging different cell counts")
	}
	if err := a.Merge(NewSketch(0, 2, 8)); err == nil {
		t.Error("want error merging different ranges")
	}
}

// A degenerate range (lo == hi) must still accept values into cell 0.
func TestSketchDegenerateRange(t *testing.T) {
	s := NewSketch(5, 5, 4)
	s.Add([]float64{5, 5, 5})
	centers, weights := s.Points()
	if len(centers) != 1 || centers[0] != 5 || weights[0] != 3 {
		t.Errorf("got centers=%v weights=%v", centers, weights)
	}
}
