// Package fpc implements the FPC lossless double-precision
// floating-point compressor of Burtscher and Ratanaworabhan (IEEE
// Trans. Computers 2009), which the NUMARCK paper cites as the lossless
// stage for full checkpoints and as a candidate post-pass over the
// encoded payload.
//
// FPC predicts each 64-bit value twice — with an FCM (finite context
// method) predictor and a DFCM (differential FCM) predictor — XORs the
// value with the better prediction, and stores the XOR residue minus
// its leading zero bytes. Each value costs 4 bits of header (1 bit
// predictor selector + 3 bits leading-zero-byte code) plus the nonzero
// residue bytes; two headers share one byte. Like the original, the
// code for 4 leading zero bytes is folded into 3 (the count is rare and
// 3 bits cannot represent all of 0..8).
package fpc

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"sync"
)

// DefaultTableBits sizes the predictor hash tables at 2^16 entries,
// matching the reference implementation's default memory budget.
const DefaultTableBits = 16

const maxTableBits = 24

// magic identifies an FPC stream produced by this package.
var magic = [4]byte{'F', 'P', 'C', '1'}

// ErrCorrupt reports a malformed FPC stream.
var ErrCorrupt = errors.New("fpc: corrupt stream")

// predictor state shared by compressor and decompressor. Both sides
// update it with the same sequence of decoded values, so predictions
// agree without transmitting state.
type predictor struct {
	fcm      []uint64
	dfcm     []uint64
	fcmHash  uint64
	dfcmHash uint64
	lastVal  uint64
	mask     uint64
}

// pools holds the predictors of each table size between streams. A
// predictor's two tables are 1 MiB at the default size whatever the
// stream's length, so a restart that allocated, page-faulted and zeroed
// them afresh paid more for the tables than for a small checkpoint's
// values; a pooled predictor costs one clear.
var pools [maxTableBits + 1]sync.Pool

// getPredictor returns a predictor of 2^tableBits-entry tables in its
// initial state, all zero. Put it back in pools[tableBits] when done.
func getPredictor(tableBits int) *predictor {
	if p, ok := pools[tableBits].Get().(*predictor); ok {
		clear(p.fcm)
		clear(p.dfcm)
		p.fcmHash, p.dfcmHash, p.lastVal = 0, 0, 0
		return p
	}
	size := 1 << uint(tableBits)
	tables := make([]uint64, 2*size)
	return &predictor{
		fcm:  tables[:size:size],
		dfcm: tables[size:],
		mask: uint64(size - 1),
	}
}

// maxBitsFor is the largest table size a stream of n values may declare:
// DefaultTableBits, or one bit more than n needs when that is larger,
// and never more than maxTableBits. Tables larger than the stream cannot
// improve its predictions, and the decoder refuses them before it
// allocates anything, so a 13-byte stream cannot make it allocate
// 256 MiB.
func maxBitsFor(n int) int {
	return min(maxTableBits, max(DefaultTableBits, bits.Len(uint(n))+1))
}

// predict returns the FCM and DFCM predictions for the next value.
func (p *predictor) predict() (fcmPred, dfcmPred uint64) {
	return p.fcm[p.fcmHash&p.mask], p.dfcm[p.dfcmHash&p.mask] + p.lastVal
}

// update feeds the true value into both predictors.
func (p *predictor) update(val uint64) {
	p.fcm[p.fcmHash&p.mask] = val
	p.fcmHash = (p.fcmHash << 6) ^ (val >> 48)
	p.dfcm[p.dfcmHash&p.mask] = val - p.lastVal
	p.dfcmHash = (p.dfcmHash << 2) ^ ((val - p.lastVal) >> 40)
	p.lastVal = val
}

// leadingZeroBytes counts how many of the most significant bytes of x
// are zero (0..8).
func leadingZeroBytes(x uint64) int {
	return bits.LeadingZeros64(x) / 8
}

// encodeLZB maps a leading-zero-byte count to its 3-bit code. Count 4
// is folded down to 3 (one extra residue byte), as in reference FPC.
func encodeLZB(n int) (code, stored int) {
	if n == 4 {
		return 3, 3
	}
	if n > 4 {
		return n - 1, n
	}
	return n, n
}

// decodeLZB maps a 3-bit code back to the stored leading-zero count.
func decodeLZB(code int) int {
	if code >= 4 {
		return code + 1
	}
	return code
}

// headerLen is the size of a stream's fixed header: magic | tableBits
// u8 | count u64 (little-endian). The 4-bit value headers follow, two
// to a byte, the first value in the high nibble, then the residues.
const headerLen = 13

// Compress encodes vals into a self-describing FPC stream.
func Compress(vals []float64) []byte {
	return CompressBits(vals, DefaultTableBits)
}

// CompressBits is Compress with an explicit predictor table size of
// 2^tableBits entries, clamped to [4, maxBitsFor(len(vals))], the sizes
// Decompress accepts.
func CompressBits(vals []float64, tableBits int) []byte {
	n := len(vals)
	tableBits = min(max(tableBits, 4), maxBitsFor(n))
	p := getPredictor(tableBits)
	defer pools[tableBits].Put(p)

	// The buffer has room for the worst case, 8 residue bytes per value,
	// so each residue goes in with one 8-byte store whose tail the next
	// one overwrites.
	resOff := headerLen + (n+1)/2
	out := make([]byte, resOff+8*n)
	copy(out, magic[:])
	// tableBits is clamped to [4, maxTableBits] above
	out[4] = byte(tableBits)
	binary.LittleEndian.PutUint64(out[5:headerLen], uint64(n))
	ri := resOff
	for i, v := range vals {
		word := math.Float64bits(v)
		fcmPred, dfcmPred := p.predict()
		sel, resid := 0, word^fcmPred
		lz := leadingZeroBytes(resid)
		if lzD := leadingZeroBytes(word ^ dfcmPred); lzD > lz {
			sel, resid, lz = 1, word^dfcmPred, lzD
		}
		code, stored := encodeLZB(lz)
		binary.BigEndian.PutUint64(out[ri:], resid<<(8*uint(stored)))
		ri += 8 - stored
		// sel <= 1 and code <= 7: a 4-bit header nibble
		out[headerLen+i/2] |= byte(sel<<3|code) << (4 * uint(1-i%2))
		p.update(word)
	}
	return out[:ri]
}

// Decompress decodes an FPC stream produced by Compress. Every count in
// the header is checked against the stream's length, and the table size
// against maxBitsFor, before anything is allocated.
func Decompress(data []byte) ([]float64, error) {
	if len(data) < headerLen {
		return nil, fmt.Errorf("%w: stream shorter than header", ErrCorrupt)
	}
	for i := range magic {
		if data[i] != magic[i] {
			return nil, fmt.Errorf("%w: bad magic", ErrCorrupt)
		}
	}
	n64 := binary.LittleEndian.Uint64(data[5:headerLen])
	if n64 > uint64(1)<<40 {
		return nil, fmt.Errorf("%w: implausible count %d", ErrCorrupt, n64)
	}
	n := int(n64)
	if len(data)-headerLen < (n+1)/2 {
		return nil, fmt.Errorf("%w: truncated headers", ErrCorrupt)
	}
	tableBits := int(data[4])
	if tableBits < 4 || tableBits > maxBitsFor(n) {
		return nil, fmt.Errorf("%w: table bits %d for %d values", ErrCorrupt, tableBits, n)
	}
	headers := data[headerLen : headerLen+(n+1)/2]
	residues := data[headerLen+len(headers):]

	p := getPredictor(tableBits)
	defer pools[tableBits].Put(p)
	out := make([]float64, n)
	ri := 0
	for i := range out {
		h := headers[i/2] >> (4 * uint(1-i%2))
		stored := decodeLZB(int(h & 0x07))
		var resid uint64
		switch nres := 8 - stored; {
		case ri+8 <= len(residues):
			// One load: the residue is the top nres bytes of the next 8.
			resid = binary.BigEndian.Uint64(residues[ri:]) >> (8 * uint(stored))
		case ri+nres <= len(residues):
			// The stream's last few values: fewer than 8 bytes are left.
			var scratch [8]byte
			copy(scratch[stored:], residues[ri:ri+nres])
			resid = binary.BigEndian.Uint64(scratch[:])
		default:
			return nil, fmt.Errorf("%w: truncated residues at value %d", ErrCorrupt, i)
		}
		ri += 8 - stored

		fcmPred, dfcmPred := p.predict()
		word := resid ^ fcmPred
		if h&0x08 != 0 {
			word = resid ^ dfcmPred
		}
		out[i] = math.Float64frombits(word)
		p.update(word)
	}
	if ri != len(residues) {
		return nil, fmt.Errorf("%w: %d trailing residue bytes", ErrCorrupt, len(residues)-ri)
	}
	return out, nil
}

// Ratio returns the storage saving of compressed relative to storing n
// raw float64 values, in percent (negative when FPC expands the data,
// which happens on incompressible inputs because of the 4-bit headers).
func Ratio(compressedLen, n int) float64 {
	if n == 0 {
		return 0
	}
	raw := 8 * n
	return float64(raw-compressedLen) / float64(raw) * 100
}
