//go:build !(386 || arm || mips || mipsle)

package ncdf

import (
	"errors"
	"math"
	"testing"
)

// TestU32IRangeWide is TestU32IRange's row for a value past 32 bits,
// which only a 64-bit int can hold: a second overflow keeps the first
// error, and neither write appends a byte.
func TestU32IRangeWide(t *testing.T) {
	var w writer
	w.u32i(7)
	w.u32i(-1)
	if !errors.Is(w.err, ErrLayout) {
		t.Fatalf("u32i(-1) err = %v, want ErrLayout", w.err)
	}
	first := w.err
	w.u32i(math.MaxInt64)
	if w.err != first {
		t.Fatal("second overflow replaced the first error")
	}
	if w.buf.Len() != 4 {
		t.Fatalf("overflowing writes still appended bytes: len=%d", w.buf.Len())
	}
}
