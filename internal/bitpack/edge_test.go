package bitpack

import (
	"errors"
	"testing"
)

// TestPackB1 exercises the narrowest field: one bit per value, the
// incompressible-point bitmap width.
func TestPackB1(t *testing.T) {
	vals := []uint32{1, 0, 1, 1, 0, 0, 0, 1, 1} // 9 values -> 2 bytes
	packed, err := Pack(vals, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(packed) != 2 {
		t.Fatalf("packed len = %d, want 2", len(packed))
	}
	got, err := Unpack(packed, len(vals), 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := range vals {
		if got[i] != vals[i] {
			t.Fatalf("bit %d = %d, want %d", i, got[i], vals[i])
		}
	}
	if _, err := Pack([]uint32{2}, 1); !errors.Is(err, ErrRange) {
		t.Fatalf("Pack(2, width 1) err = %v, want ErrRange", err)
	}
}

// TestIndexOverflowRoundTrip covers the truncation hazard the bindex
// analyzer guards: a value one past the width limit must be rejected,
// and the limit itself must round-trip intact — for every width.
func TestIndexOverflowRoundTrip(t *testing.T) {
	for width := 1; width <= MaxWidth; width++ {
		limit := uint32(limitFor(width))
		packed, err := Pack([]uint32{limit}, width)
		if err != nil {
			t.Fatalf("width %d: pack limit: %v", width, err)
		}
		got, err := Get(packed, 0, width)
		if err != nil || got != limit {
			t.Fatalf("width %d: got %d, %v; want %d", width, got, err, limit)
		}
		if width < MaxWidth {
			if _, err := Pack([]uint32{limit + 1}, width); !errors.Is(err, ErrRange) {
				t.Fatalf("width %d: limit+1 err = %v, want ErrRange", width, err)
			}
		}
	}
}
