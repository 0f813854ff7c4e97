package core

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// refReconstruct is the decode kernel as it was first written: one point
// at a time, a branch per case, the ratio added to one next to the
// multiply. It is the definition Reconstruct is tested against.
func refReconstruct(dst, prev, bins []float64, indices []uint32, flags []byte, exact []float64) {
	used := 0
	for j, idx := range indices {
		switch {
		case flags[j>>3]&(1<<uint(j&7)) != 0:
			dst[j] = exact[used]
			used++
		case idx == 0:
			dst[j] = prev[j]
		default:
			dst[j] = prev[j] * (1 + bins[idx-1])
		}
	}
}

// awkward values every reconstruction must carry through unharmed: a
// multiply by one would quiet the signaling NaN, and flush-to-zero would
// lose the denormals.
var awkward = []float64{
	math.NaN(), math.Float64frombits(0x7FF0000000000001), math.Float64frombits(0xFFF8000000000123),
	math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 0,
	math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, math.Float64frombits(0x000FFFFFFFFFFFFF),
	math.MaxFloat64, -math.MaxFloat64,
}

func sameBits(a, b []float64) int {
	for j := range a {
		if math.Float64bits(a[j]) != math.Float64bits(b[j]) {
			return j
		}
	}
	return -1
}

// TestReconstructMatchesReference is the differential property test of
// the 8-points-per-flag-byte kernel against the per-point loop: every
// index width's table size, every boundary length, every flag pattern,
// awkward previous values, out of place and in place — compared by bit
// pattern.
func TestReconstructMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for bits := 1; bits <= 24; bits += 1 {
		nbins := min(1<<uint(bits)-1, 300)
		bins := make([]float64, nbins)
		for g := range bins {
			bins[g] = rng.NormFloat64() * 0.01
		}
		bins[0] = -1 // 1 + bin rounds to exactly zero
		table := RatioTable(bins)
		for _, n := range []int{0, 1, 7, 8, 9, 63, 65, 4097} {
			for _, pattern := range []string{"random", "zero", "ones", "alternating"} {
				prev := make([]float64, n)
				indices := make([]uint32, n)
				flags := make([]byte, (n+7)/8)
				var exact []float64
				for j := range prev {
					prev[j] = rng.NormFloat64() * 100
					if rng.Intn(4) == 0 {
						prev[j] = awkward[rng.Intn(len(awkward))]
					}
					indices[j] = uint32(rng.Intn(nbins + 1))
					var flagged bool
					switch pattern {
					case "random":
						flagged = rng.Intn(8) == 0
					case "ones":
						flagged = true
					case "alternating":
						flagged = j%2 == 0
					}
					if flagged {
						flags[j>>3] |= 1 << uint(j&7)
						exact = append(exact, awkward[rng.Intn(len(awkward))])
					}
				}
				want := make([]float64, n)
				refReconstruct(want, prev, bins, indices, flags, exact)

				got := make([]float64, n)
				if err := Reconstruct(got, prev, table, indices, flags, exact); err != nil {
					t.Fatalf("B=%d n=%d %s: %v", bits, n, pattern, err)
				}
				if j := sameBits(got, want); j >= 0 {
					t.Fatalf("B=%d n=%d %s: point %d = %x, reference %x (prev %x index %d)", bits, n, pattern, j,
						math.Float64bits(got[j]), math.Float64bits(want[j]), math.Float64bits(prev[j]), indices[j])
				}
				inPlace := append([]float64(nil), prev...)
				if err := Reconstruct(inPlace, inPlace, table, indices, flags, exact); err != nil {
					t.Fatal(err)
				}
				if j := sameBits(inPlace, want); j >= 0 {
					t.Fatalf("B=%d n=%d %s: in place, point %d differs", bits, n, pattern, j)
				}
				// Set pad bits are not this kernel's to judge: it ignores them.
				if n%8 != 0 {
					padded := append([]byte(nil), flags...)
					padded[len(padded)-1] |= 0x80
					if err := Reconstruct(got, prev, table, indices, padded, exact); err != nil || sameBits(got, want) >= 0 {
						t.Fatalf("B=%d n=%d %s: a set pad bit changed the reconstruction (%v)", bits, n, pattern, err)
					}
				}
			}
		}
	}
}

// TestReconstructRejects pins the kernel's own safety net — it returns
// an error, never panics and never reads out of range, on the inputs the
// checkpoint reader's validation pass exists to catch first.
func TestReconstructRejects(t *testing.T) {
	table := RatioTable([]float64{0.5, -0.5})
	prev := make([]float64, 16)
	dst := make([]float64, 16)
	indices := make([]uint32, 16)
	flags := make([]byte, 2)

	if err := Reconstruct(dst[:15], prev, table, indices, flags, nil); !errors.Is(err, ErrLength) {
		t.Errorf("short dst: %v, want ErrLength", err)
	}
	if err := Reconstruct(dst, prev, table, indices, flags[:1], nil); !errors.Is(err, ErrLength) {
		t.Errorf("short flags: %v, want ErrLength", err)
	}
	for _, at := range []int{3, 12} { // in an unflagged byte, then in a flagged one
		bad := append([]uint32(nil), indices...)
		bad[at] = 3
		f := []byte{0, 1 << 7}
		if err := Reconstruct(dst, prev, table, bad, f, []float64{1}); err == nil {
			t.Errorf("index 3 of a 2-bin table at point %d accepted", at)
		}
	}
	if err := Reconstruct(dst, prev, table, indices, []byte{1, 1}, []float64{1}); err == nil {
		t.Error("two flags, one exact value: accepted")
	}
	if err := Reconstruct(dst, prev, table, indices, []byte{1, 0}, []float64{1, 2}); err == nil {
		t.Error("one flag, two exact values: accepted")
	}
}

// BenchmarkReconstruct times the decode kernel alone on 64 Ki points,
// in place, at three table sizes: ns/pt is what one delta costs a
// restart per point once its indices are unpacked. One point in 256 is
// exact and one in three unchanged, so flagged bytes and index 0 both
// occur.
func BenchmarkReconstruct(b *testing.B) {
	const n = 1 << 16
	for _, bits := range []int{3, 8, 12} {
		b.Run(fmt.Sprintf("B=%d", bits), func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			bins := make([]float64, 1<<uint(bits)-1)
			for g := range bins {
				bins[g] = rng.NormFloat64() * 1e-6 // state stays finite over b.N passes
			}
			table := RatioTable(bins)
			state := make([]float64, n)
			indices := make([]uint32, n)
			flags := make([]byte, n/8)
			var exact []float64
			for j := range state {
				state[j] = 1 + rng.Float64()
				if rng.Intn(3) != 0 {
					indices[j] = uint32(1 + rng.Intn(len(bins)))
				}
				if rng.Intn(256) == 0 {
					flags[j>>3] |= 1 << uint(j&7)
					exact = append(exact, 1.5)
				}
			}
			b.SetBytes(8 * n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := Reconstruct(state, state, table, indices, flags, exact); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/n, "ns/pt")
		})
	}
}
