package bitpack

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestPackedLen(t *testing.T) {
	cases := []struct {
		n, width, want int
	}{
		{0, 8, 0},
		{1, 1, 1},
		{8, 1, 1},
		{9, 1, 2},
		{1, 8, 1},
		{3, 8, 3},
		{1, 9, 2},
		{7, 9, 8},  // 63 bits
		{8, 9, 9},  // 72 bits
		{5, 12, 8}, // 60 bits
		{100, 10, 125},
		{3, 32, 12},
	}
	for _, c := range cases {
		if got := PackedLen(c.n, c.width); got != c.want {
			t.Errorf("PackedLen(%d,%d) = %d, want %d", c.n, c.width, got, c.want)
		}
	}
}

func TestPackedLenPanics(t *testing.T) {
	for _, width := range []int{0, -1, 33} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("PackedLen(1,%d) did not panic", width)
				}
			}()
			PackedLen(1, width)
		}()
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("PackedLen(-1,8) did not panic")
			}
		}()
		PackedLen(-1, 8)
	}()
}

func TestPackUnpackRoundTripAllWidths(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for width := 1; width <= MaxWidth; width++ {
		n := 257
		vals := make([]uint32, n)
		limit := uint64(1)<<uint(width) - 1
		for i := range vals {
			vals[i] = uint32(rng.Uint64() & limit)
		}
		packed, err := Pack(vals, width)
		if err != nil {
			t.Fatalf("width %d: Pack: %v", width, err)
		}
		if len(packed) != PackedLen(n, width) {
			t.Fatalf("width %d: packed len %d, want %d", width, len(packed), PackedLen(n, width))
		}
		got, err := Unpack(packed, n, width)
		if err != nil {
			t.Fatalf("width %d: Unpack: %v", width, err)
		}
		for i := range vals {
			if got[i] != vals[i] {
				t.Fatalf("width %d: value %d: got %d, want %d", width, i, got[i], vals[i])
			}
		}
	}
}

func TestPackRejectsOutOfRange(t *testing.T) {
	_, err := Pack([]uint32{0, 256}, 8)
	if !errors.Is(err, ErrRange) {
		t.Errorf("Pack out-of-range: got %v, want ErrRange", err)
	}
	if _, err := Pack([]uint32{255}, 8); err != nil {
		t.Errorf("Pack(255, 8): %v", err)
	}
}

func TestPackRejectsBadWidth(t *testing.T) {
	for _, w := range []int{0, -3, 33} {
		if _, err := Pack([]uint32{1}, w); !errors.Is(err, ErrWidth) {
			t.Errorf("Pack width %d: got %v, want ErrWidth", w, err)
		}
		if _, err := Unpack([]byte{0}, 1, w); !errors.Is(err, ErrWidth) {
			t.Errorf("Unpack width %d: got %v, want ErrWidth", w, err)
		}
		if _, err := Get([]byte{0}, 0, w); !errors.Is(err, ErrWidth) {
			t.Errorf("Get width %d: got %v, want ErrWidth", w, err)
		}
	}
}

func TestUnpackShortStream(t *testing.T) {
	packed, err := Pack([]uint32{1, 2, 3}, 9)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Unpack(packed[:len(packed)-1], 3, 9); !errors.Is(err, ErrShort) {
		t.Errorf("truncated Unpack: got %v, want ErrShort", err)
	}
	if _, err := Unpack(packed, -1, 9); err == nil {
		t.Error("Unpack with negative n did not fail")
	}
}

func TestUnpackEmpty(t *testing.T) {
	got, err := Unpack(nil, 0, 8)
	if err != nil || len(got) != 0 {
		t.Errorf("Unpack(nil,0,8) = %v, %v", got, err)
	}
}

func TestGetRandomAccess(t *testing.T) {
	vals := []uint32{7, 0, 511, 300, 1, 255}
	packed, err := Pack(vals, 9)
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range vals {
		got, err := Get(packed, i, 9)
		if err != nil {
			t.Fatalf("Get(%d): %v", i, err)
		}
		if got != want {
			t.Errorf("Get(%d) = %d, want %d", i, got, want)
		}
	}
	if _, err := Get(packed, len(vals)+2, 9); !errors.Is(err, ErrShort) {
		t.Errorf("Get past end: got %v, want ErrShort", err)
	}
	if _, err := Get(packed, -1, 9); err == nil {
		t.Error("Get(-1) did not fail")
	}
}

func TestPackDeterministic(t *testing.T) {
	vals := []uint32{1, 2, 3, 4, 5}
	a, _ := Pack(vals, 5)
	b, _ := Pack(vals, 5)
	if !bytes.Equal(a, b) {
		t.Error("Pack is not deterministic")
	}
}

// quick.Check property: packing then unpacking restores values for any
// byte-sourced payload at a few representative widths.
func TestQuickRoundTrip(t *testing.T) {
	for _, width := range []int{1, 3, 8, 9, 13, 24, 32} {
		width := width
		f := func(raw []uint32) bool {
			limit := uint32(uint64(1)<<uint(width) - 1)
			vals := make([]uint32, len(raw))
			for i, v := range raw {
				vals[i] = v & limit
			}
			packed, err := Pack(vals, width)
			if err != nil {
				return false
			}
			got, err := Unpack(packed, len(vals), width)
			if err != nil {
				return false
			}
			for i := range vals {
				if got[i] != vals[i] {
					return false
				}
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
			t.Errorf("width %d: %v", width, err)
		}
	}
}

func TestBitmapBasics(t *testing.T) {
	b := NewBitmap(20)
	if b.Len() != 20 {
		t.Fatalf("Len = %d", b.Len())
	}
	if b.Count() != 0 {
		t.Fatalf("fresh bitmap Count = %d", b.Count())
	}
	for _, i := range []int{0, 7, 8, 19} {
		b.Set(i, true)
	}
	if b.Count() != 4 {
		t.Errorf("Count = %d, want 4", b.Count())
	}
	for i := 0; i < 20; i++ {
		want := i == 0 || i == 7 || i == 8 || i == 19
		if b.Get(i) != want {
			t.Errorf("Get(%d) = %v, want %v", i, b.Get(i), want)
		}
	}
	b.Set(7, false)
	if b.Get(7) || b.Count() != 3 {
		t.Errorf("after clear: Get(7)=%v Count=%d", b.Get(7), b.Count())
	}
}

func TestBitmapRoundTrip(t *testing.T) {
	b := NewBitmap(13)
	b.Set(3, true)
	b.Set(12, true)
	b2, err := BitmapFromBytes(b.Bytes(), 13)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 13; i++ {
		if b.Get(i) != b2.Get(i) {
			t.Errorf("bit %d differs after round trip", i)
		}
	}
	if _, err := BitmapFromBytes([]byte{0}, 13); !errors.Is(err, ErrShort) {
		t.Errorf("short bitmap: got %v, want ErrShort", err)
	}
}

func TestBitmapBoundsPanic(t *testing.T) {
	b := NewBitmap(4)
	for _, i := range []int{-1, 4} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Set(%d) did not panic", i)
				}
			}()
			b.Set(i, true)
		}()
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Get(%d) did not panic", i)
				}
			}()
			b.Get(i)
		}()
	}
}

func TestBitmapZeroLen(t *testing.T) {
	b := NewBitmap(0)
	if b.Count() != 0 || b.Len() != 0 || len(b.Bytes()) != 0 {
		t.Error("zero-length bitmap misbehaves")
	}
}

// benchWidths are the index widths the kernels are timed at: the
// paper's B = 8 (byte-aligned), a width with no alignment at all, and
// the widest table the experiments use.
var benchWidths = []int{3, 8, 9, 12}

// benchStream returns 64 Ki random fields of the given width, packed.
func benchStream(b *testing.B, width int) ([]uint32, []byte) {
	vals := make([]uint32, 1<<16)
	limit := uint32(limitFor(width))
	rng := rand.New(rand.NewSource(1))
	for i := range vals {
		vals[i] = rng.Uint32() & limit
	}
	packed, err := Pack(vals, width)
	if err != nil {
		b.Fatal(err)
	}
	return vals, packed
}

// reportPerPoint adds ns/pt to a benchmark whose op handles n fields.
func reportPerPoint(b *testing.B, n int) {
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(n), "ns/pt")
}

// BenchmarkPack times the pack kernel alone, into a reused buffer;
// bytes/s counts the packed stream.
func BenchmarkPack(b *testing.B) {
	for _, width := range benchWidths {
		b.Run(fmt.Sprintf("B=%d", width), func(b *testing.B) {
			vals, buf := benchStream(b, width)
			b.SetBytes(int64(len(buf)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := PackInto(vals, width, buf); err != nil {
					b.Fatal(err)
				}
			}
			reportPerPoint(b, len(vals))
		})
	}
}

// BenchmarkUnpack times the unpack kernel alone, into a reused buffer.
func BenchmarkUnpack(b *testing.B) {
	for _, width := range benchWidths {
		b.Run(fmt.Sprintf("B=%d", width), func(b *testing.B) {
			vals, packed := benchStream(b, width)
			b.SetBytes(int64(len(packed)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := UnpackInto(packed, len(vals), width, vals); err != nil {
					b.Fatal(err)
				}
			}
			reportPerPoint(b, len(vals))
		})
	}
}

// BenchmarkFirstAbove times the decoder's range check of a whole stream
// that passes it.
func BenchmarkFirstAbove(b *testing.B) {
	for _, width := range benchWidths {
		b.Run(fmt.Sprintf("B=%d", width), func(b *testing.B) {
			vals, packed := benchStream(b, width)
			for i := range vals {
				vals[i] /= 2 // limit is half the range: no early exit
			}
			packed, err := PackInto(vals, width, packed)
			if err != nil {
				b.Fatal(err)
			}
			limit := uint32(limitFor(width)) / 2
			b.SetBytes(int64(len(packed)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if pos, err := FirstAbove(packed, len(vals), width, limit); err != nil || pos >= 0 {
					b.Fatal(pos, err)
				}
			}
			reportPerPoint(b, len(vals))
		})
	}
}
