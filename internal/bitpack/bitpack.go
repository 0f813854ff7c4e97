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
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
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
	return PackInto(vals, width, nil)
}

// PackInto is Pack writing into buf's backing array when it has
// capacity (allocating only when it does not), for pooled steady-state
// encoding. Every byte of the used prefix is written, so stale buffer
// contents cannot leak into the stream; the returned slice is exactly
// PackedLen(len(vals), width) long.
//
// Fields are shifted into a 64-bit accumulator and leave it four bytes
// at a time: one store per 32 bits of stream instead of one
// read-modify-write per byte a field touches.
func PackInto(vals []uint32, width int, buf []byte) ([]byte, error) {
	if width < 1 || width > MaxWidth {
		return nil, ErrWidth
	}
	need := PackedLen(len(vals), width)
	var out []byte
	if cap(buf) >= need {
		out = buf[:need]
	} else {
		out = make([]byte, need)
	}
	var acc, seen uint64
	nb, p, w := uint(0), 0, uint(width)
	for _, v := range vals {
		seen |= uint64(v)
		acc |= uint64(v) << nb // nb < 32 and width <= 32: no bit is shifted out
		nb += w
		if nb >= 32 {
			//lint:ignore bindex the low 32 accumulated bits are exactly the next four stream bytes
			binary.LittleEndian.PutUint32(out[p:], uint32(acc))
			acc >>= 32
			nb -= 32
			p += 4
		}
	}
	// One OR of every value is a cheaper loop than a compare per value;
	// the position of the first offender is found only on failure.
	if limit := limitFor(width); seen > limit {
		for i, v := range vals {
			if uint64(v) > limit {
				return nil, fmt.Errorf("%w: value %d at position %d exceeds %d bits", ErrRange, v, i, width)
			}
		}
	}
	for ; p < need; p++ {
		//lint:ignore bindex the stream's last bytes, least significant first
		out[p] = byte(acc)
		acc >>= 8
	}
	return out, nil
}

// Unpack decodes n fields of the given width from data. It returns
// ErrShort when data holds fewer than n fields.
func Unpack(data []byte, n, width int) ([]uint32, error) {
	return UnpackRange(data, 0, n, width, nil)
}

// UnpackInto is Unpack writing into out's backing array when it has
// capacity, for pooled steady-state decoding. The returned slice is
// exactly n long.
func UnpackInto(data []byte, n, width int, out []uint32) ([]uint32, error) {
	return UnpackRange(data, 0, n, width, out)
}

// UnpackRange decodes fields [first, first+n) of a packed stream into
// out's backing array when it has capacity: the block-at-a-time form of
// UnpackInto, for decoders that keep a small window of indices hot
// instead of materializing the whole stream. It returns ErrShort when
// data does not hold field first+n-1.
func UnpackRange(data []byte, first, n, width int, out []uint32) ([]uint32, error) {
	if first < 0 || n < 0 {
		return nil, fmt.Errorf("bitpack: negative field range [%d,+%d)", first, n)
	}
	if err := checkStream(data, first+n, width); err != nil {
		return nil, err
	}
	if cap(out) >= n {
		out = out[:n]
	} else {
		out = make([]uint32, n)
	}
	switch width {
	case 8:
		for i, b := range data[first : first+n] {
			out[i] = uint32(b)
		}
	case 16:
		src := data[2*first : 2*(first+n)]
		for i := range out {
			out[i] = uint32(binary.LittleEndian.Uint16(src[2*i:]))
		}
	default:
		mask, bit, w := limitFor(width), uint64(first)*uint64(width), uint64(width)
		fast := inWindow(len(data), first, n, width)
		for i := range out[:fast] {
			//lint:ignore bindex the mask keeps width <= MaxWidth = 32 low bits
			out[i] = uint32(binary.LittleEndian.Uint64(data[bit>>3:]) >> (bit & 7) & mask)
			bit += w
		}
		for i := fast; i < n; i++ {
			out[i] = field(data, bit, mask)
			bit += w
		}
	}
	return out, nil
}

// FirstAbove returns the position of the first of the stream's n fields
// whose value exceeds limit, or -1 when none does: a decoder's range
// check of a whole index stream against its table size, without
// unpacking it. The common answer is "none", so the stream is first
// swept for its maximum with no per-field branch, and scanned for a
// position only when that fails. It returns ErrShort when data holds
// fewer than n fields.
func FirstAbove(data []byte, n, width int, limit uint32) (int, error) {
	if err := checkStream(data, n, width); err != nil {
		return 0, err
	}
	if uint64(limit) >= limitFor(width) {
		return -1, nil // every width-bit value is in range
	}
	mask, w := limitFor(width), uint64(width)
	if width == 8 {
		if !anyByteAbove(data[:n], limit) {
			return -1, nil
		}
	} else {
		var top, bit uint64
		fast := inWindow(len(data), 0, n, width)
		for i := 0; i < fast; i++ {
			top = max(top, binary.LittleEndian.Uint64(data[bit>>3:])>>(bit&7)&mask)
			bit += w
		}
		for i := fast; i < n; i++ {
			top = max(top, uint64(field(data, bit, mask)))
			bit += w
		}
		if top <= uint64(limit) {
			return -1, nil
		}
	}
	for i := 0; i < n; i++ {
		if field(data, uint64(i)*w, mask) > limit {
			return i, nil
		}
	}
	return -1, nil
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
	return field(data, uint64(i)*uint64(width), limitFor(width)), nil
}

// checkStream reports whether data can be read as n fields of the given
// width: ErrWidth, a negative count, or ErrShort.
func checkStream(data []byte, n, width int) error {
	if width < 1 || width > MaxWidth {
		return ErrWidth
	}
	if n < 0 {
		return fmt.Errorf("bitpack: negative count %d", n)
	}
	if need := PackedLen(n, width); len(data) < need {
		return fmt.Errorf("%w: have %d bytes, need %d", ErrShort, len(data), need)
	}
	return nil
}

// limitFor returns the maximum value representable in width bits.
func limitFor(width int) uint64 {
	return (uint64(1) << uint(width)) - 1
}

// A field of up to 32 bits starting at any of a byte's 8 bit positions
// lies inside the 8 bytes that start at that byte, so one 64-bit load,
// one shift and one mask extract it. inWindow returns how many of the
// fields [first, first+n) can take that load directly — their 8-byte
// window ends inside a stream of dataLen bytes; the last few fields of a
// stream go through field's zero-padded load instead.
func inWindow(dataLen, first, n, width int) int {
	if dataLen < 8 {
		return 0
	}
	// Field i starts in byte (i*width)>>3, which must be <= dataLen-8.
	last := (8*(dataLen-8) + 7) / width
	return max(0, min(n, last+1-first))
}

// field extracts the field at bit offset bit, mask being the field
// width's limitFor, from anywhere in the stream.
func field(data []byte, bit, mask uint64) uint32 {
	p := int(bit >> 3)
	var win uint64
	if p+8 <= len(data) {
		win = binary.LittleEndian.Uint64(data[p:])
	} else {
		for k, b := range data[p:] {
			win |= uint64(b) << (8 * uint(k))
		}
	}
	//lint:ignore bindex the mask keeps width <= MaxWidth = 32 low bits
	return uint32(win >> (bit & 7) & mask)
}

// anyByteAbove reports whether any byte of data exceeds limit (< 255),
// eight bytes per step. With t = limit+1, a byte b >= t exactly when its
// top bit is set or its low seven bits reach t (t <= 128), or when its
// top bit is set and its low seven bits reach t-128 (t > 128); adding
// 128-t (mod 128) to the low seven bits carries into the top bit exactly
// when they reach it, and never into the next byte.
func anyByteAbove(data []byte, limit uint32) bool {
	const ones, tops = 0x0101010101010101, 0x8080808080808080
	t := uint64(limit) + 1
	add := (128 - t%128) % 128 * ones
	var hit uint64
	i := 0
	if t <= 128 {
		for ; i+8 <= len(data); i += 8 {
			x := binary.LittleEndian.Uint64(data[i:])
			hit |= (x&^tops + add) | x
		}
	} else {
		for ; i+8 <= len(data); i += 8 {
			x := binary.LittleEndian.Uint64(data[i:])
			hit |= (x&^tops + add) & x
		}
	}
	if hit&tops != 0 {
		return true
	}
	for _, b := range data[i:] {
		if uint32(b) > limit {
			return true
		}
	}
	return false
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
func (b *Bitmap) Count() int { return CountFirst(b.bits, 8*len(b.bits)) }

// CountFirst returns how many of the first n bits of a packed flag
// array are set — the form a bitmap has inside a file, so decoders can
// check a flag count, or find how many flags precede a point, without
// building a Bitmap. flags must hold at least n bits.
func CountFirst(flags []byte, n int) int {
	c, i := 0, 0
	for ; i+8 <= n>>3; i += 8 {
		c += bits.OnesCount64(binary.LittleEndian.Uint64(flags[i:]))
	}
	for ; i < n>>3; i++ {
		c += bits.OnesCount8(flags[i])
	}
	if n&7 != 0 {
		c += bits.OnesCount8(flags[i] & (1<<uint(n&7) - 1))
	}
	return c
}

// Bytes returns the packed representation. The slice aliases the bitmap's
// storage; callers must not modify it.
func (b *Bitmap) Bytes() []byte { return b.bits }
