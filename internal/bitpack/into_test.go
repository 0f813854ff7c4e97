package bitpack

import (
	"bytes"
	"testing"
)

// PackInto must zero reused storage: packing a sparse stream over a
// buffer full of 0xFF must equal a fresh Pack.
func TestPackIntoReusesAndZeroes(t *testing.T) {
	vals := []uint32{1, 0, 3, 0, 7, 0, 0, 2}
	fresh, err := Pack(vals, 3)
	if err != nil {
		t.Fatal(err)
	}
	dirty := make([]byte, 64)
	for i := range dirty {
		dirty[i] = 0xFF
	}
	got, err := PackInto(vals, 3, dirty)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, fresh) {
		t.Errorf("PackInto over dirty buffer = %x, want %x", got, fresh)
	}
	if &got[0] != &dirty[0] {
		t.Error("PackInto did not reuse the provided buffer")
	}
	// Undersized buffer: allocates, same bytes.
	got, err = PackInto(vals, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, fresh) {
		t.Errorf("PackInto with nil buffer = %x, want %x", got, fresh)
	}
	// Out-of-range value still rejected.
	if _, err := PackInto([]uint32{8}, 3, dirty); err == nil {
		t.Error("PackInto accepted an out-of-range value")
	}
}

func TestUnpackIntoRoundTrip(t *testing.T) {
	vals := []uint32{5, 0, 31, 16, 1, 2, 3}
	packed, err := Pack(vals, 5)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]uint32, 2, 32)
	buf[0], buf[1] = 99, 99
	got, err := UnpackInto(packed, len(vals), 5, buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(vals) {
		t.Fatalf("len = %d, want %d", len(got), len(vals))
	}
	for i := range vals {
		if got[i] != vals[i] {
			t.Errorf("field %d = %d, want %d", i, got[i], vals[i])
		}
	}
	if &got[0] != &buf[:1][0] {
		t.Error("UnpackInto did not reuse the provided buffer")
	}
	if _, err := UnpackInto(packed[:1], len(vals), 5, nil); err == nil {
		t.Error("UnpackInto accepted a truncated stream")
	}
}
