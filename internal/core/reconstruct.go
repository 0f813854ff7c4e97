package core

import (
	"fmt"
	"math"
)

// RatioTable returns the multiplier table Reconstruct looks indices up
// in: table[0] = 1 for the reserved "unchanged" index and
// table[g+1] = 1 + bins[g]. The sum is rounded here exactly as it would
// be rounded next to the multiplication, so a table built once per file
// gives the products the per-point expression prev*(1+bins[g]) gives,
// bit for bit.
func RatioTable(bins []float64) []float64 {
	table := make([]float64, len(bins)+1)
	table[0] = 1
	for g, b := range bins {
		table[g+1] = 1 + b
	}
	return table
}

// Reconstruct is the decode kernel, the one place a stored change ratio
// is applied: dst[j] becomes the next exact value where flags (one bit
// per point, least significant first) marks point j, prev[j] for index 0
// (unchanged within tolerance), and prev[j]*table[index] otherwise,
// table being RatioTable of the file's bins. It is pointwise, so dst may
// be prev itself — chain replay updates the state in place — and a
// caller may hand it any run of points whose flags start on a byte: a
// whole checkpoint or one cache-sized block of it. exact holds exactly
// the flagged points' values, in point order.
//
// The points go eight to a flag byte. A byte with no flag set — nearly
// all of them — is eight straight multiplies with no branch per point
// and no exact-value bookkeeping; only a flagged byte looks at its bits. An index outside
// the table or a flag count that disagrees with exact is an error, and
// dst may then be partly written: a caller that must not tear dst (the
// checkpoint reader) validates the indices and the flag count first.
func Reconstruct(dst, prev, table []float64, indices []uint32, flags []byte, exact []float64) error {
	n := len(dst)
	if len(prev) != n || len(indices) != n || len(flags) < (n+7)/8 {
		return fmt.Errorf("%w: %d points to reconstruct from %d previous values, %d indices and %d flag bytes", ErrLength, n, len(prev), len(indices), len(flags))
	}
	used, full := 0, n&^7
	var err error
	for j := 0; j < full; j += 8 {
		ix, p, d := (*[8]uint32)(indices[j:]), (*[8]float64)(prev[j:]), (*[8]float64)(dst[j:])
		if f := flags[j>>3]; f != 0 {
			if used, err = flagged(d[:], p[:], table, ix[:], f, exact, used); err != nil {
				return fmt.Errorf("%w in the 8 points from %d", err, j)
			}
			continue
		}
		if top := max(ix[0], ix[1], ix[2], ix[3], ix[4], ix[5], ix[6], ix[7]); int(top) >= len(table) {
			return fmt.Errorf("%w in the 8 points from %d", indexErr(top, table), j)
		}
		// Unrolled by hand (the compiler keeps a loop, whose counter and
		// bounds checks cost a third of the kernel), with table[0] = 1
		// standing in for "unchanged". p*1 is p, bit for bit, for every p
		// but a NaN, whose payload the multiply may quiet — so the eight
		// products are stored only if none of them is a NaN, which one sum
		// tells: a NaN among the terms makes the sum a NaN. Anything that
		// does (also an Inf-Inf in the sum itself) takes the careful path.
		r0, r1, r2, r3 := p[0]*table[ix[0]], p[1]*table[ix[1]], p[2]*table[ix[2]], p[3]*table[ix[3]]
		r4, r5, r6, r7 := p[4]*table[ix[4]], p[5]*table[ix[5]], p[6]*table[ix[6]], p[7]*table[ix[7]]
		if sum := (r0 + r1) + (r2 + r3) + ((r4 + r5) + (r6 + r7)); math.IsNaN(sum) {
			for k := range d {
				d[k] = apply(p[k], ix[k], table[ix[k]])
			}
			continue
		}
		d[0], d[1], d[2], d[3], d[4], d[5], d[6], d[7] = r0, r1, r2, r3, r4, r5, r6, r7
	}
	if full < n {
		// The last byte's pad bits, beyond point n, are the caller's business.
		f := flags[full>>3] & (1<<uint(n-full) - 1)
		if used, err = flagged(dst[full:], prev[full:], table, indices[full:], f, exact, used); err != nil {
			return fmt.Errorf("%w in the %d points from %d", err, n-full, full)
		}
	}
	if used != len(exact) {
		return fmt.Errorf("core: corrupt encoding: %d exact values stored, %d consumed", len(exact), used)
	}
	return nil
}

// flagged reconstructs the up to eight points of one flag byte f the
// slow way, a point at a time, taking exact values from exact[used:]; it
// returns the new count of exact values used.
func flagged(dst, prev, table []float64, indices []uint32, f byte, exact []float64, used int) (int, error) {
	for k, idx := range indices {
		switch {
		case f>>uint(k)&1 != 0:
			if used == len(exact) {
				return used, fmt.Errorf("core: corrupt encoding: bitmap flags more exact values than stored (%d)", len(exact))
			}
			dst[k] = exact[used]
			used++
		case int(idx) >= len(table):
			return used, indexErr(idx, table)
		default:
			dst[k] = apply(prev[k], idx, table[idx])
		}
	}
	return used, nil
}

// apply returns p*mul, or p itself — its exact bits, which a multiply by
// one would not keep for a signaling NaN — when idx is the reserved
// index 0: the one-point form of the kernel, for the points the unrolled
// path hands back.
func apply(p float64, idx uint32, mul float64) float64 {
	keep := (uint64(idx) - 1) >> 63 // 1 when idx == 0
	pb, rb := math.Float64bits(p), math.Float64bits(p*mul)
	return math.Float64frombits(rb ^ (pb^rb)&-keep)
}

func indexErr(idx uint32, table []float64) error {
	return fmt.Errorf("core: corrupt encoding: index %d exceeds bin table size %d", idx, len(table)-1)
}
