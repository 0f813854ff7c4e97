// Package bitpack provides fixed-width packing of small unsigned integers
// into byte slices. NUMARCK stores one B-bit bin index per data point
// (1 <= B <= 32); this package implements that index stream.
//
// The packing is little-endian at the bit level: index i occupies bits
// [i*width, (i+1)*width) of the stream, and bit b of the stream lives in
// byte b/8 at position b%8. This layout allows random access without
// any padding between values.
package bitpack

import (
	"errors"
	"fmt"
)

// MaxWidth is the widest supported field, in bits.
const MaxWidth = 32

var (
	// ErrWidth reports an out-of-range field width.
	ErrWidth = errors.New("bitpack: width must be in [1,32]")
	// ErrRange reports a value that does not fit in the field width.
	ErrRange = errors.New("bitpack: value out of range for width")
	// ErrShort reports a truncated packed stream.
	ErrShort = errors.New("bitpack: packed stream too short")
)

// PackedLen returns the number of bytes needed to store n fields of the
// given width. It panics if width is invalid.
func PackedLen(n, width int) int {
	if width < 1 || width > MaxWidth {
		panic(ErrWidth)
	}
	if n < 0 {
		panic(fmt.Sprintf("bitpack: negative count %d", n))
	}
	bits := uint64(n) * uint64(width)
	return int((bits + 7) / 8)
}

// Pack encodes vals, each of which must fit in width bits, into a fresh
// byte slice of exactly PackedLen(len(vals), width) bytes.
func Pack(vals []uint32, width int) ([]byte, error) {
	if width < 1 || width > MaxWidth {
		return nil, ErrWidth
	}
	limit := limitFor(width)
	out := make([]byte, PackedLen(len(vals), width))
	for i, v := range vals {
		if uint64(v) > limit {
			return nil, fmt.Errorf("%w: value %d at position %d exceeds %d bits", ErrRange, v, i, width)
		}
		putBits(out, uint64(i)*uint64(width), uint64(v), width)
	}
	return out, nil
}

// PackInto is Pack writing into buf's backing array when it has
// capacity (allocating only when it does not), for pooled steady-state
// encoding. The used prefix is zeroed first, so stale buffer contents
// cannot leak into the stream; the returned slice is exactly
// PackedLen(len(vals), width) long.
func PackInto(vals []uint32, width int, buf []byte) ([]byte, error) {
	if width < 1 || width > MaxWidth {
		return nil, ErrWidth
	}
	need := PackedLen(len(vals), width)
	var out []byte
	if cap(buf) >= need {
		out = buf[:need]
		for i := range out {
			out[i] = 0
		}
	} else {
		out = make([]byte, need)
	}
	limit := limitFor(width)
	for i, v := range vals {
		if uint64(v) > limit {
			return nil, fmt.Errorf("%w: value %d at position %d exceeds %d bits", ErrRange, v, i, width)
		}
		putBits(out, uint64(i)*uint64(width), uint64(v), width)
	}
	return out, nil
}

// UnpackInto is Unpack writing into out's backing array when it has
// capacity, for pooled steady-state decoding. The returned slice is
// exactly n long.
func UnpackInto(data []byte, n, width int, out []uint32) ([]uint32, error) {
	if width < 1 || width > MaxWidth {
		return nil, ErrWidth
	}
	if n < 0 {
		return nil, fmt.Errorf("bitpack: negative count %d", n)
	}
	need := PackedLen(n, width)
	if len(data) < need {
		return nil, fmt.Errorf("%w: have %d bytes, need %d", ErrShort, len(data), need)
	}
	if cap(out) >= n {
		out = out[:n]
	} else {
		out = make([]uint32, n)
	}
	for i := range out {
		//lint:ignore bindex getBits yields at most width <= MaxWidth = 32 low bits
		out[i] = uint32(getBits(data, uint64(i)*uint64(width), width))
	}
	return out, nil
}

// Unpack decodes n fields of the given width from data. It returns
// ErrShort when data holds fewer than n fields.
func Unpack(data []byte, n, width int) ([]uint32, error) {
	if width < 1 || width > MaxWidth {
		return nil, ErrWidth
	}
	if n < 0 {
		return nil, fmt.Errorf("bitpack: negative count %d", n)
	}
	need := PackedLen(n, width)
	if len(data) < need {
		return nil, fmt.Errorf("%w: have %d bytes, need %d", ErrShort, len(data), need)
	}
	out := make([]uint32, n)
	for i := range out {
		//lint:ignore bindex getBits yields at most width <= MaxWidth = 32 low bits
		out[i] = uint32(getBits(data, uint64(i)*uint64(width), width))
	}
	return out, nil
}

// Get returns field i of a packed stream without decoding the rest.
// It returns ErrShort if the stream does not contain field i.
func Get(data []byte, i, width int) (uint32, error) {
	if width < 1 || width > MaxWidth {
		return 0, ErrWidth
	}
	if i < 0 {
		return 0, fmt.Errorf("bitpack: negative index %d", i)
	}
	if len(data) < PackedLen(i+1, width) {
		return 0, ErrShort
	}
	//lint:ignore bindex getBits yields at most width <= MaxWidth = 32 low bits
	return uint32(getBits(data, uint64(i)*uint64(width), width)), nil
}

// limitFor returns the maximum value representable in width bits.
func limitFor(width int) uint64 {
	return (uint64(1) << uint(width)) - 1
}

// putBits writes the low `width` bits of v starting at bit offset off.
func putBits(buf []byte, off, v uint64, width int) {
	for width > 0 {
		byteIdx := off >> 3
		bitIdx := uint(off & 7)
		room := 8 - int(bitIdx)
		take := width
		if take > room {
			take = room
		}
		//lint:ignore bindex take+bitIdx <= 8, so the shifted mask fits a byte
		mask := byte((uint64(1)<<uint(take) - 1) << bitIdx)
		//lint:ignore bindex the & mask keeps only the byte's bit window
		buf[byteIdx] = (buf[byteIdx] &^ mask) | (byte(v<<bitIdx) & mask)
		v >>= uint(take)
		off += uint64(take)
		width -= take
	}
}

// getBits reads `width` bits starting at bit offset off.
func getBits(buf []byte, off uint64, width int) uint64 {
	var v uint64
	shift := 0
	for width > 0 {
		byteIdx := off >> 3
		bitIdx := uint(off & 7)
		room := 8 - int(bitIdx)
		take := width
		if take > room {
			take = room
		}
		bits := (uint64(buf[byteIdx]) >> bitIdx) & (uint64(1)<<uint(take) - 1)
		v |= bits << uint(shift)
		shift += take
		off += uint64(take)
		width -= take
	}
	return v
}

// Bitmap is a fixed-size set of booleans used to flag incompressible
// points in a checkpoint.
type Bitmap struct {
	n    int
	bits []byte
}

// NewBitmap returns a bitmap holding n flags, all false.
func NewBitmap(n int) *Bitmap {
	if n < 0 {
		panic(fmt.Sprintf("bitpack: negative bitmap size %d", n))
	}
	return &Bitmap{n: n, bits: make([]byte, (n+7)/8)}
}

// BitmapFromBytes wraps an existing packed representation of n flags.
func BitmapFromBytes(data []byte, n int) (*Bitmap, error) {
	need := (n + 7) / 8
	if len(data) < need {
		return nil, fmt.Errorf("%w: bitmap needs %d bytes, have %d", ErrShort, need, len(data))
	}
	b := &Bitmap{n: n, bits: make([]byte, need)}
	copy(b.bits, data)
	return b, nil
}

// Reset resizes the bitmap to n flags, all false, reusing its storage
// when capacity allows. The pooled form of NewBitmap for steady-state
// encode/decode loops.
func (b *Bitmap) Reset(n int) {
	if n < 0 {
		panic(fmt.Sprintf("bitpack: negative bitmap size %d", n))
	}
	need := (n + 7) / 8
	if cap(b.bits) >= need {
		b.bits = b.bits[:need]
		for i := range b.bits {
			b.bits[i] = 0
		}
	} else {
		b.bits = make([]byte, need)
	}
	b.n = n
}

// LoadBytes replaces the bitmap's contents with a packed representation
// of n flags, reusing its storage when capacity allows — the pooled
// form of BitmapFromBytes.
func (b *Bitmap) LoadBytes(data []byte, n int) error {
	need := (n + 7) / 8
	if len(data) < need {
		return fmt.Errorf("%w: bitmap needs %d bytes, have %d", ErrShort, need, len(data))
	}
	if cap(b.bits) >= need {
		b.bits = b.bits[:need]
	} else {
		b.bits = make([]byte, need)
	}
	copy(b.bits, data[:need])
	b.n = n
	return nil
}

// Len returns the number of flags in the bitmap.
func (b *Bitmap) Len() int { return b.n }

// Set sets flag i to v.
func (b *Bitmap) Set(i int, v bool) {
	if i < 0 || i >= b.n {
		panic(fmt.Sprintf("bitpack: bitmap index %d out of range [0,%d)", i, b.n))
	}
	if v {
		b.bits[i>>3] |= 1 << uint(i&7)
	} else {
		b.bits[i>>3] &^= 1 << uint(i&7)
	}
}

// Get reports flag i.
func (b *Bitmap) Get(i int) bool {
	if i < 0 || i >= b.n {
		panic(fmt.Sprintf("bitpack: bitmap index %d out of range [0,%d)", i, b.n))
	}
	return b.bits[i>>3]&(1<<uint(i&7)) != 0
}

// Count returns the number of set flags.
func (b *Bitmap) Count() int {
	c := 0
	for _, x := range b.bits {
		c += popcount(x)
	}
	return c
}

// Bytes returns the packed representation. The slice aliases the bitmap's
// storage; callers must not modify it.
func (b *Bitmap) Bytes() []byte { return b.bits }

func popcount(x byte) int {
	c := 0
	for x != 0 {
		x &= x - 1
		c++
	}
	return c
}
