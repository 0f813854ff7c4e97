package bitpack

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

// The reference implementation: the per-field, per-byte loops the
// package shipped before its kernels went word-at-a-time. They define
// the layout — bit b of the stream is bit b%8 of byte b/8 — in the most
// literal way possible, and every fast path is tested against them.

// refPutBits writes the low `width` bits of v starting at bit offset off.
func refPutBits(buf []byte, off, v uint64, width int) {
	for width > 0 {
		byteIdx := off >> 3
		bitIdx := uint(off & 7)
		take := min(width, 8-int(bitIdx))
		mask := byte((uint64(1)<<uint(take) - 1) << bitIdx)
		buf[byteIdx] = (buf[byteIdx] &^ mask) | (byte(v<<bitIdx) & mask)
		v >>= uint(take)
		off += uint64(take)
		width -= take
	}
}

// refGetBits reads `width` bits starting at bit offset off.
func refGetBits(buf []byte, off uint64, width int) uint64 {
	var v uint64
	shift := 0
	for width > 0 {
		byteIdx := off >> 3
		bitIdx := uint(off & 7)
		take := min(width, 8-int(bitIdx))
		v |= (uint64(buf[byteIdx]) >> bitIdx) & (uint64(1)<<uint(take) - 1) << uint(shift)
		shift += take
		off += uint64(take)
		width -= take
	}
	return v
}

func refPack(vals []uint32, width int) []byte {
	out := make([]byte, PackedLen(len(vals), width))
	for i, v := range vals {
		refPutBits(out, uint64(i)*uint64(width), uint64(v), width)
	}
	return out
}

func refUnpack(data []byte, first, n, width int) []uint32 {
	out := make([]uint32, n)
	for i := range out {
		out[i] = uint32(refGetBits(data, uint64(first+i)*uint64(width), width))
	}
	return out
}

func refFirstAbove(data []byte, n, width int, limit uint32) int {
	for i, v := range refUnpack(data, 0, n, width) {
		if v > limit {
			return i
		}
	}
	return -1
}

// kernelSizes are the field counts the differential tests run at: empty,
// shorter than one window, around the 8-field and 64-bit boundaries, and
// one long enough for the windowed loop to dominate.
var kernelSizes = []int{0, 1, 7, 8, 9, 63, 65, 4097}

// checkAgainstReference runs every kernel of the package on one stream
// and compares it with the reference loops.
func checkAgainstReference(t *testing.T, vals []uint32, width int, limit uint32) {
	t.Helper()
	n := len(vals)
	want := refPack(vals, width)
	dirty := bytes.Repeat([]byte{0xFF}, len(want)+3)
	got, err := PackInto(vals, width, dirty)
	if err != nil || !bytes.Equal(got, want) {
		t.Fatalf("width %d n %d: PackInto differs from the reference (%v)", width, n, err)
	}
	if n > 0 && &got[0] != &dirty[0] {
		t.Fatalf("width %d n %d: PackInto did not reuse its buffer", width, n)
	}
	all, err := Unpack(want, n, width)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range refUnpack(want, 0, n, width) {
		if all[i] != v || v != vals[i] {
			t.Fatalf("width %d n %d: field %d = %d, reference %d, packed %d", width, n, i, all[i], v, vals[i])
		}
	}
	// Blocks at every start offset class: aligned, odd, and ending on the
	// stream's last field, where the padded window load takes over.
	for _, first := range []int{0, 1, 5, 8, n / 2, n - 3, n} {
		if first < 0 || first > n {
			continue
		}
		for _, m := range []int{0, 1, n - first} {
			if first+m > n {
				continue
			}
			block, err := UnpackRange(want, first, m, width, make([]uint32, 0, 4))
			if err != nil {
				t.Fatalf("width %d n %d: UnpackRange(%d,+%d): %v", width, n, first, m, err)
			}
			for i, v := range refUnpack(want, first, m, width) {
				if block[i] != v {
					t.Fatalf("width %d n %d: UnpackRange(%d,+%d) field %d = %d, reference %d", width, n, first, m, i, block[i], v)
				}
			}
		}
	}
	for i := range vals {
		if one, err := Get(want, i, width); err != nil || one != vals[i] {
			t.Fatalf("width %d n %d: Get(%d) = %d, %v; want %d", width, n, i, one, err, vals[i])
		}
	}
	pos, err := FirstAbove(want, n, width, limit)
	if ref := refFirstAbove(want, n, width, limit); err != nil || pos != ref {
		t.Fatalf("width %d n %d limit %d: FirstAbove = %d, %v; reference %d", width, n, limit, pos, err, ref)
	}
}

// TestKernelsMatchReference is the differential property test of the
// word-at-a-time kernels: for every width the codec can use and every
// boundary size, pack, unpack, block unpack, random access and the range
// check agree with the per-field reference on random streams, on the
// all-zero and all-ones streams, and with a single offender planted in
// each position class (first, last, middle).
func TestKernelsMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for width := 1; width <= 24; width++ {
		top := uint32(limitFor(width))
		for _, n := range kernelSizes {
			vals := make([]uint32, n)
			for _, fill := range []string{"random", "zero", "ones"} {
				for i := range vals {
					switch fill {
					case "random":
						vals[i] = rng.Uint32() & top
					case "zero":
						vals[i] = 0
					case "ones":
						vals[i] = top
					}
				}
				for _, limit := range []uint32{0, top / 2, top - 1, top, top + 1} {
					checkAgainstReference(t, vals, width, limit)
				}
			}
			if n == 0 || top < 2 {
				continue
			}
			// One index = limit+1, everything else at or below limit.
			limit := top - 1
			for _, at := range []int{0, n / 2, n - 1} {
				for i := range vals {
					vals[i] = rng.Uint32() % (limit + 1)
				}
				vals[at] = limit + 1
				packed := refPack(vals, width)
				if pos, err := FirstAbove(packed, n, width, limit); err != nil || pos != at {
					t.Fatalf("width %d n %d: offender at %d reported at %d (%v)", width, n, at, pos, err)
				}
			}
		}
	}
}

// TestBytePackMatchesBitLoop checks PackInto's byte-wide paths (B = 8
// and B = 16) against packBits, the accumulator loop every other width
// takes: the same bytes for in-range streams at every boundary size,
// and, for a stream with an offender planted first, in the middle or
// last and a second one after it, an ErrRange naming the first.
func TestBytePackMatchesBitLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for _, width := range []int{8, 16} {
		top := uint32(limitFor(width))
		for _, n := range kernelSizes {
			vals := make([]uint32, n)
			for i := range vals {
				vals[i] = rng.Uint32() & top
			}
			want := make([]byte, PackedLen(n, width))
			if seen := packBits(vals, width, want); seen > top {
				t.Fatalf("width %d n %d: in-range stream ORs to %d", width, n, seen)
			}
			got, err := PackInto(vals, width, bytes.Repeat([]byte{0xFF}, len(want)))
			if err != nil || !bytes.Equal(got, want) {
				t.Fatalf("width %d n %d: byte-wide pack differs from the bit loop (%v)", width, n, err)
			}
			if n == 0 {
				continue
			}
			for _, at := range []int{0, n / 2, n - 1} {
				bad := append([]uint32(nil), vals...)
				bad[at] = top + 1 + rng.Uint32()%5
				if at+1 < n {
					bad[n-1] = top + 1
				}
				_, err := PackInto(bad, width, nil)
				msg := fmt.Sprintf("value %d at position %d exceeds %d bits", bad[at], at, width)
				if !errors.Is(err, ErrRange) || !strings.HasSuffix(err.Error(), msg) {
					t.Fatalf("width %d n %d: offender at %d: error %v, want ErrRange ending %q", width, n, at, err, msg)
				}
			}
		}
	}
}

// TestCountFirstMatchesReference compares the word popcount with the
// per-bit loop at every bit length around the 8-byte step.
func TestCountFirstMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	flags := make([]byte, 40)
	rng.Read(flags)
	for n := 0; n <= 8*len(flags); n++ {
		want := 0
		for j := 0; j < n; j++ {
			want += int(flags[j>>3] >> uint(j&7) & 1)
		}
		if got := CountFirst(flags, n); got != want {
			t.Fatalf("first %d bits: CountFirst = %d, reference %d", n, got, want)
		}
	}
}

// FuzzUnpackMatchesReference feeds arbitrary bytes, as a packed stream
// at an arbitrary width, block start and limit, to the unpack and range
// check kernels and to the reference loops: whatever the stream holds,
// they must read the same fields out of it, and repacking those fields
// must reproduce the stream's bytes (up to the unused bits of its last
// byte).
func FuzzUnpackMatchesReference(f *testing.F) {
	f.Add([]byte{0x01, 0x02, 0x03, 0x04, 0xff, 0xee, 0xdd, 0xcc, 0x10}, uint8(7), uint16(3), uint32(90))
	f.Add(bytes.Repeat([]byte{0xff}, 17), uint8(8), uint16(0), uint32(254))
	f.Add(bytes.Repeat([]byte{0xa5, 0x5a}, 33), uint8(12), uint16(9), uint32(4094))
	f.Add([]byte{0x80}, uint8(1), uint16(7), uint32(0))
	f.Fuzz(func(t *testing.T, data []byte, w uint8, start uint16, limit uint32) {
		width := int(w%MaxWidth) + 1
		n := 8 * len(data) / width
		first := 0
		if n > 0 {
			first = int(start) % (n + 1)
		}
		want := refUnpack(data, 0, n, width)
		got, err := UnpackRange(data, first, n-first, width, nil)
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range got {
			if v != want[first+i] {
				t.Fatalf("width %d: field %d = %d, reference %d", width, first+i, v, want[first+i])
			}
		}
		pos, err := FirstAbove(data, n, width, limit)
		if ref := refFirstAbove(data, n, width, limit); err != nil || pos != ref {
			t.Fatalf("width %d limit %d: FirstAbove = %d, %v; reference %d", width, limit, pos, err, ref)
		}
		packed, err := Pack(want, width)
		if err != nil {
			t.Fatal(err)
		}
		full := n * width / 8 // bytes with no unused bits
		if !bytes.Equal(packed[:full], data[:full]) {
			t.Fatalf("width %d: repacked stream differs from its source", width)
		}
		ones := 0
		for _, x := range data {
			for ; x != 0; x &= x - 1 {
				ones++
			}
		}
		if got := CountFirst(data, 8*len(data)); got != ones {
			t.Fatalf("CountFirst = %d, reference %d", got, ones)
		}
	})
}

// refCopyBits is CopyBits one bit at a time.
func refCopyBits(dst []byte, dstOff int, src []byte, srcOff, n int) {
	for k := 0; k < n; k++ {
		refPutBits(dst, uint64(dstOff+k), refGetBits(src, uint64(srcOff+k), 1), 1)
	}
}

// checkCopyBits runs CopyBits and the reference on copies of dst and
// compares every byte: the n bits must land, and every other bit of dst
// must keep its value.
func checkCopyBits(t *testing.T, dst []byte, dstOff int, src []byte, srcOff, n int) {
	t.Helper()
	got, want := bytes.Clone(dst), bytes.Clone(dst)
	CopyBits(got, dstOff, src, srcOff, n)
	refCopyBits(want, dstOff, src, srcOff, n)
	if !bytes.Equal(got, want) {
		t.Fatalf("CopyBits(dst@%d, src@%d, %d bits) = %x, reference %x", dstOff, srcOff, n, got, want)
	}
}

// TestCopyBitsMatchesReference sweeps every source and destination bit
// offset within two bytes and every length from 0 to 80 bits.
func TestCopyBitsMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	src, dst := make([]byte, 16), make([]byte, 16)
	rng.Read(src)
	rng.Read(dst)
	for srcOff := 0; srcOff < 16; srcOff++ {
		for dstOff := 0; dstOff < 16; dstOff++ {
			for n := 0; n <= 80; n++ {
				checkCopyBits(t, dst, dstOff, src, srcOff, n)
			}
		}
	}
}

// FuzzCopyBitsMatchesReference copies an arbitrary bit range of
// arbitrary bytes to an arbitrary bit offset of arbitrary bytes, and
// checks the result against the per-bit reference.
func FuzzCopyBitsMatchesReference(f *testing.F) {
	f.Add([]byte{0xff, 0x00, 0xa5, 0x5a, 0x0f, 0xf0, 0x33, 0xcc, 0x81}, []byte{0x00, 0xff, 0x12, 0x34, 0x56, 0x78, 0x9a, 0xbc, 0xde, 0xf0}, uint16(3), uint16(5), uint16(67))
	f.Add([]byte{0xff}, []byte{0x00}, uint16(0), uint16(0), uint16(8))
	f.Add(bytes.Repeat([]byte{0xc3}, 80), bytes.Repeat([]byte{0x3c}, 90), uint16(700), uint16(5), uint16(600))
	f.Fuzz(func(t *testing.T, src, dst []byte, so, do, nn uint16) {
		srcOff, dstOff := int(so)%(8*len(src)+1), int(do)%(8*len(dst)+1)
		n := int(nn) % (min(8*len(src)-srcOff, 8*len(dst)-dstOff) + 1)
		checkCopyBits(t, dst, dstOff, src, srcOff, n)
	})
}
