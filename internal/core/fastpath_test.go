package core

// Property tests pinning the branch-light assignment fast paths to
// their reference implementations: the log-scale bits-grid LUT against
// the defining log formula, and the grid-indexed cluster/table lookup
// against a brute-force nearest-representative scan. The contract: on
// every finite input the fast and slow paths return identical bin
// indices. Non-finite ratios (NaN, ±Inf) never reach Lookup in the
// pipeline — assignRange routes everything that is not RatioOK to
// exact storage — so for those the test only requires both paths to
// return some valid in-range index (int(±Inf) is implementation-
// defined in Go, so exact agreement there would overconstrain).

import (
	"math"
	"math/rand"
	"testing"
)

// logFitCase builds one adversarial log-scale table input.
func logFitCases(rng *rand.Rand) [][]float64 {
	cases := [][]float64{
		{0.001, 0.5},              // two points
		{0.25},                    // single point, single bin
		{1e-300, 1e300},           // extreme dynamic range (huge bits span)
		{5e-324, 1e-320, 2e-320},  // denormals
		{-0.3, -0.3, -0.3},        // duplicate magnitude, negative side
		{-1, -0.5, 0.5, 1},        // symmetric two-sided
		{0.1, 0.1000000000000001}, // adjacent floats: near-degenerate span
		{-1e-9, 2e9},              // wildly unbalanced sides
		{0, 0.7, -0.2},            // zero ratio present (ablation shape)
	}
	// Random log-uniform two-sided sets.
	for c := 0; c < 6; c++ {
		n := 50 + rng.Intn(2000)
		data := make([]float64, n)
		for i := range data {
			m := math.Exp(rng.Float64()*40 - 20) // magnitudes 2e-9 .. 5e8
			if rng.Intn(2) == 0 {
				m = -m
			}
			data[i] = m
		}
		cases = append(cases, data)
	}
	return cases
}

// probesFor returns adversarial lookup probes for a fitted data set:
// the data itself, the representatives, values straddling every bin
// edge, and non-finite ratios.
func probesFor(data, reps []float64, rng *rand.Rand) []float64 {
	probes := append([]float64{}, data...)
	probes = append(probes, reps...)
	for _, r := range reps {
		probes = append(probes,
			math.Nextafter(r, math.Inf(-1)), math.Nextafter(r, math.Inf(1)),
			r*(1+1e-15), r*(1-1e-15))
	}
	for i := 0; i < 2000; i++ {
		probes = append(probes, math.Exp(rng.Float64()*44-22)*float64(1-2*rng.Intn(2)))
	}
	probes = append(probes, 0, math.Copysign(0, -1), 5e-324, -5e-324, 1e308, -1e308)
	return probes
}

func TestLogLookupFastMatchesSlow(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for ci, data := range logFitCases(rng) {
		for _, k := range []int{1, 2, 3, 7, 255, 1023} {
			b := fitLogScale(data, k, 1)
			reps := b.Representatives()
			for _, p := range probesFor(data, reps, rng) {
				fast := b.Lookup(p)
				slow := b.LookupSlow(p)
				if fast != slow {
					t.Fatalf("case %d k=%d: Lookup(%v) = %d, LookupSlow = %d (reps %d)",
						ci, k, p, fast, slow, len(reps))
				}
			}
			// Non-finite ratios: valid index from both paths is all the
			// pipeline-unreachable inputs get to demand.
			for _, p := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
				for _, g := range []int{b.Lookup(p), b.LookupSlow(p)} {
					if g < 0 || g >= len(reps) {
						t.Fatalf("case %d k=%d: non-finite probe %v gave out-of-range index %d", ci, k, p, g)
					}
				}
			}
		}
	}
}

// The grid-indexed lookup of cluster and fixed-table binners must agree
// with a brute-force nearest-representative scan (ties to the lower
// index), including on duplicate representatives and single-entry
// tables.
func TestTableLookupMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	tables := [][]float64{
		{0.5},                     // single bin
		{0.1, 0.1, 0.1},           // all duplicates
		{-1, -1, 0, 2, 2},         // duplicate runs
		{-0.001, 0.001},           // tight symmetric
		{1, 1 + 1e-15, 1 + 2e-15}, // adjacent floats
	}
	for c := 0; c < 5; c++ {
		n := 1 + rng.Intn(512)
		tb := make([]float64, n)
		for i := range tb {
			tb[i] = rng.NormFloat64() * math.Exp(float64(rng.Intn(10)))
			if rng.Intn(4) == 0 && i > 0 {
				tb[i] = tb[i-1] // inject duplicates
			}
		}
		tables = append(tables, tb)
	}
	for ti, table := range tables {
		b := newTableBinner(table, 1<<20)
		reps := b.Representatives()
		brute := func(d float64) int {
			best, bestDist := 0, math.Abs(reps[0]-d)
			for j := 1; j < len(reps); j++ {
				if dist := math.Abs(reps[j] - d); dist < bestDist {
					best, bestDist = j, dist
				}
			}
			return best
		}
		probes := append([]float64{}, reps...)
		for j := 1; j < len(reps); j++ {
			mid := reps[j-1] + (reps[j]-reps[j-1])/2
			probes = append(probes, mid,
				math.Nextafter(mid, math.Inf(-1)), math.Nextafter(mid, math.Inf(1)))
		}
		for i := 0; i < 1000; i++ {
			probes = append(probes, rng.NormFloat64()*math.Exp(float64(rng.Intn(12)-3)))
		}
		probes = append(probes, -1e307, 1e307, 0)
		for _, p := range probes {
			fast := b.Lookup(p)
			want := brute(p)
			if fast == want {
				continue
			}
			// Duplicate representatives make several indices equally
			// correct; any rep at the same distance is acceptable.
			if math.Abs(reps[fast]-p) != math.Abs(reps[want]-p) {
				t.Fatalf("table %d: Lookup(%v) = %d (rep %v), brute force %d (rep %v)",
					ti, p, fast, reps[fast], want, reps[want])
			}
		}
	}
}
