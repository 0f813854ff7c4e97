package bitpack

import (
	"encoding/binary"
	"testing"
)

// FuzzRoundTrip packs arbitrary bytes reinterpreted as uint32 fields at
// an arbitrary width and checks Pack/Unpack/Get agree. The harness
// masks values to the field width, so every input is packable and the
// invariant under test is pure layout: unpack(pack(x)) == x.
func FuzzRoundTrip(f *testing.F) {
	f.Add([]byte{0x01, 0x02, 0x03, 0x04, 0xff, 0xee, 0xdd, 0xcc}, uint8(7))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff}, uint8(32))
	f.Add([]byte{0x00}, uint8(1))
	f.Fuzz(func(t *testing.T, raw []byte, w uint8) {
		width := int(w%MaxWidth) + 1
		limit := uint32(limitFor(width))
		vals := make([]uint32, len(raw)/4)
		for i := range vals {
			vals[i] = binary.LittleEndian.Uint32(raw[4*i:]) & limit
		}
		packed, err := Pack(vals, width)
		if err != nil {
			t.Fatalf("pack width %d: %v", width, err)
		}
		if len(packed) != PackedLen(len(vals), width) {
			t.Fatalf("packed %d bytes, want %d", len(packed), PackedLen(len(vals), width))
		}
		got, err := Unpack(packed, len(vals), width)
		if err != nil {
			t.Fatalf("unpack: %v", err)
		}
		for i := range vals {
			if got[i] != vals[i] {
				t.Fatalf("width %d field %d: %d != %d", width, i, got[i], vals[i])
			}
			one, err := Get(packed, i, width)
			if err != nil || one != vals[i] {
				t.Fatalf("width %d Get(%d): %d, %v; want %d", width, i, one, err, vals[i])
			}
		}
	})
}
