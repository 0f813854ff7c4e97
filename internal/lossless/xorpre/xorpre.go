// Package xorpre implements XOR-preconditioned lossless compression of
// float64 streams, the related-work approach of Bicer et al.'s CC
// compressor (NUMARCK paper ref [3]) and, in masked form, of
// Bautista-Gomez & Cappello's binary-mask preconditioner (ref [2]):
// XORing each value with its predecessor cancels the bits that did not
// change between adjacent values, turning temporally or spatially
// smooth data into streams with long runs of zero bytes that a simple
// byte-level run-length coder then squeezes.
//
// NUMARCK's related-work section uses these as the lossless points of
// comparison: they preserve values exactly but cap out well below the
// order-of-magnitude reductions error-bounded methods reach. The
// experiments harness reproduces that comparison on the synthetic
// checkpoint data.
package xorpre

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// magic identifies a stream produced by this package.
var magic = [4]byte{'X', 'O', 'R', '1'}

// ErrCorrupt reports a malformed stream.
var ErrCorrupt = errors.New("xorpre: corrupt stream")

// Compress encodes vals: XOR-delta against the previous value, then
// zero-byte run-length coding. The first value is stored raw.
func Compress(vals []float64) []byte {
	// Precondition: XOR with predecessor.
	xored := make([]byte, 8*len(vals))
	var prev uint64
	for i, v := range vals {
		bits := math.Float64bits(v)
		binary.LittleEndian.PutUint64(xored[8*i:], bits^prev)
		prev = bits
	}
	// Zero-byte RLE: literal runs are emitted as (0x01..0x7F, bytes)
	// and may contain zeros; zero runs of length >= 3 are emitted as
	// (0x80|lenHigh, lenLow) covering up to 2^14-1 zeros. Treating
	// short zero stretches as literals bounds the worst-case expansion
	// at one tag byte per 127 — scattered lone zeros (ubiquitous in
	// XOR streams) would otherwise shred the literal runs.
	out := make([]byte, 0, len(xored)/2+16)
	out = append(out, magic[:]...)
	var cnt [8]byte
	binary.LittleEndian.PutUint64(cnt[:], uint64(len(vals)))
	out = append(out, cnt[:]...)

	const minRun = 3
	i := 0
	for i < len(xored) {
		// Find the next zero run of at least minRun bytes.
		runStart, runLen := len(xored), 0
		for j := i; j < len(xored); j++ {
			if xored[j] != 0 {
				continue
			}
			run := 1
			for j+run < len(xored) && xored[j+run] == 0 {
				run++
			}
			if run >= minRun {
				runStart, runLen = j, run
				break
			}
			j += run
		}
		// Emit everything before it as literals (zeros included).
		for i < runStart {
			lit := runStart - i
			if lit > 0x7F {
				lit = 0x7F
			}
			// lit is clamped to 0x7F above
			out = append(out, byte(lit))
			out = append(out, xored[i:i+lit]...)
			i += lit
		}
		// Emit the zero run in chunks.
		for runLen > 0 {
			chunk := runLen
			if chunk > 1<<14-1 {
				chunk = 1<<14 - 1
			}
			// chunk is clamped to 1<<14-1, so chunk>>8 fits 6 bits
			out = append(out, byte(0x80|chunk>>8), byte(chunk&0xFF))
			runLen -= chunk
			i += chunk
		}
	}
	return out
}

// Decompress decodes a stream produced by Compress.
func Decompress(data []byte) ([]float64, error) {
	if len(data) < 12 {
		return nil, fmt.Errorf("%w: shorter than header", ErrCorrupt)
	}
	for i := range magic {
		if data[i] != magic[i] {
			return nil, fmt.Errorf("%w: bad magic", ErrCorrupt)
		}
	}
	n64 := binary.LittleEndian.Uint64(data[4:12])
	if n64 > 1<<40 {
		return nil, fmt.Errorf("%w: implausible count %d", ErrCorrupt, n64)
	}
	n := int(n64)
	xored := make([]byte, 0, 8*n)
	body := data[12:]
	i := 0
	for i < len(body) && len(xored) < 8*n {
		tag := body[i]
		i++
		if tag&0x80 != 0 {
			if i >= len(body) {
				return nil, fmt.Errorf("%w: truncated zero run", ErrCorrupt)
			}
			run := int(tag&0x7F)<<8 | int(body[i])
			i++
			for j := 0; j < run; j++ {
				xored = append(xored, 0)
			}
			continue
		}
		lit := int(tag)
		if lit == 0 {
			return nil, fmt.Errorf("%w: zero-length literal", ErrCorrupt)
		}
		if i+lit > len(body) {
			return nil, fmt.Errorf("%w: truncated literal", ErrCorrupt)
		}
		xored = append(xored, body[i:i+lit]...)
		i += lit
	}
	if len(xored) != 8*n {
		return nil, fmt.Errorf("%w: decoded %d bytes, want %d", ErrCorrupt, len(xored), 8*n)
	}
	if i != len(body) {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrCorrupt, len(body)-i)
	}
	// Undo the XOR preconditioning.
	out := make([]float64, n)
	var prev uint64
	for j := 0; j < n; j++ {
		bits := binary.LittleEndian.Uint64(xored[8*j:]) ^ prev
		out[j] = math.Float64frombits(bits)
		prev = bits
	}
	return out, nil
}

// Ratio returns the storage saving of compressed relative to n raw
// float64 values, in percent.
func Ratio(compressedLen, n int) float64 {
	if n == 0 {
		return 0
	}
	raw := 8 * n
	return float64(raw-compressedLen) / float64(raw) * 100
}
