package ncdf

import (
	"errors"
	"testing"
)

// TestU32IRange pins the guarded header-field write: out-of-range
// values must poison the writer rather than truncate silently, and
// in-range values must encode big-endian. TestU32IRangeWide adds the
// overflow only a 64-bit int can hold, and that the first error wins.
func TestU32IRange(t *testing.T) {
	var w writer
	w.u32i(7)
	if w.err != nil {
		t.Fatalf("u32i(7): %v", w.err)
	}
	if got := w.buf.Bytes(); len(got) != 4 || got[3] != 7 {
		t.Fatalf("u32i(7) wrote % x", got)
	}

	w.u32i(-1)
	if !errors.Is(w.err, ErrLayout) {
		t.Fatalf("u32i(-1) err = %v, want ErrLayout", w.err)
	}
	if w.buf.Len() != 4 {
		t.Fatalf("overflowing writes still appended bytes: len=%d", w.buf.Len())
	}
}
