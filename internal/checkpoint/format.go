// Package checkpoint implements NUMARCK's on-disk checkpoint store
// (§II-D): a directory of per-variable checkpoint files where the first
// (and periodically recurring) checkpoints are stored losslessly with
// FPC, intermediate checkpoints store only the NUMARCK-encoded change
// ratios, and restart replays the delta chain on top of the latest full
// checkpoint at or before the requested iteration.
//
// Only two functions look at a file's magic: OpenDelta (delta.go)
// decides which of the two delta formats a file is in — NMRKD2, the one
// every writer emits, or the read-only NMRKD1 — and presents either as
// chunks, and parseCheckpoint (below) tells full from delta.
package checkpoint

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"

	"numarck/internal/lossless/fpc"
)

// Each file starts with 6 magic bytes, a 4-byte little-endian header
// length, the JSON header, then the payload. The delta magics live with
// the delta formats in delta.go.
var magicFull = []byte("NMRKF1")

// ErrCorrupt reports an unreadable checkpoint file.
var ErrCorrupt = errors.New("checkpoint: corrupt file")

// ErrTruncated reports a file shorter than its own framing claims —
// the signature of a torn write rather than in-place corruption.
// Truncation errors wrap both ErrTruncated and ErrCorrupt, so
// errors.Is(err, ErrCorrupt) still matches; recovery scans use the
// distinction to classify a file as a quarantine candidate from a
// crashed writer instead of a genuine format violation.
var ErrTruncated = errors.New("checkpoint: truncated file")

// truncatedErr wraps a truncation finding with both sentinel errors.
func truncatedErr(format string, args ...any) error {
	return fmt.Errorf("%w: %w: "+format, append([]any{ErrCorrupt, ErrTruncated}, args...)...)
}

// readErr classifies an io error from a positioned read: a short read
// (io.EOF / io.ErrUnexpectedEOF) means the file ends before its framing
// says it should — truncation — while anything else is a plain corrupt
// read. The underlying error stays wrapped for errors.Is.
func readErr(what string, err error) error {
	if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
		return fmt.Errorf("%w: %w: %s: %w", ErrCorrupt, ErrTruncated, what, err)
	}
	return fmt.Errorf("%w: %s: %w", ErrCorrupt, what, err)
}

// pathErr wraps err with the failing operation and file path, the one
// error style every store-level failure uses.
func pathErr(op, path string, err error) error {
	return fmt.Errorf("checkpoint: %s %s: %w", op, path, err)
}

// fileHeader is the JSON header of both file kinds.
type fileHeader struct {
	Variable  string `json:"variable"`
	Iteration int    `json:"iteration"`
	N         int    `json:"n"`
	CRC       uint32 `json:"crc"` // of the payload bytes
	// Delta-only fields:
	IndexBits  int     `json:"index_bits,omitempty"`
	ErrorBound float64 `json:"error_bound,omitempty"`
	Strategy   string  `json:"strategy,omitempty"`
	BinCount   int     `json:"bin_count,omitempty"`
	ExactCount int     `json:"exact_count,omitempty"`
	// Delta-v2-only fields (see delta.go); the read-only v1 layout has
	// neither.
	ChunkPoints int `json:"chunk_points,omitempty"`
	ChunkCount  int `json:"chunk_count,omitempty"`
}

// writeFile assembles magic | len | header | payload.
func writeFile(w io.Writer, magic []byte, hdr fileHeader, payload []byte) error {
	hdr.CRC = crc32.ChecksumIEEE(payload)
	hj, err := json.Marshal(hdr)
	if err != nil {
		return fmt.Errorf("checkpoint: marshal header: %w", err)
	}
	if _, err := w.Write(magic); err != nil {
		return err
	}
	if uint64(len(hj)) > math.MaxUint32 {
		return fmt.Errorf("checkpoint: header too large: %d bytes", len(hj))
	}
	var lenBuf [4]byte
	// len(hj) <= math.MaxUint32 checked above
	binary.LittleEndian.PutUint32(lenBuf[:], uint32(len(hj)))
	if _, err := w.Write(lenBuf[:]); err != nil {
		return err
	}
	if _, err := w.Write(hj); err != nil {
		return err
	}
	_, err = w.Write(payload)
	return err
}

// readFile parses magic | len | header | payload and verifies the CRC.
func readFile(data, magic []byte) (fileHeader, []byte, error) {
	var hdr fileHeader
	if len(data) < len(magic)+4 {
		// A correct magic prefix on a too-short file is a torn write;
		// anything else is not one of our files at all.
		if n := min(len(data), len(magic)); bytes.Equal(data[:n], magic[:n]) {
			return hdr, nil, truncatedErr("%d bytes is shorter than the file frame", len(data))
		}
		return hdr, nil, fmt.Errorf("%w: shorter than header", ErrCorrupt)
	}
	if !bytes.Equal(data[:len(magic)], magic) {
		return hdr, nil, fmt.Errorf("%w: bad magic %q", ErrCorrupt, data[:len(magic)])
	}
	off := len(magic)
	hlen := int(binary.LittleEndian.Uint32(data[off : off+4]))
	off += 4
	if hlen < 2 {
		return hdr, nil, fmt.Errorf("%w: header length %d", ErrCorrupt, hlen)
	}
	if off+hlen > len(data) {
		return hdr, nil, truncatedErr("header of %d bytes overruns %d-byte file", hlen, len(data))
	}
	if err := json.Unmarshal(data[off:off+hlen], &hdr); err != nil {
		return hdr, nil, fmt.Errorf("%w: header: %w", ErrCorrupt, err)
	}
	payload := data[off+hlen:]
	if crc := crc32.ChecksumIEEE(payload); crc != hdr.CRC {
		return hdr, nil, fmt.Errorf("%w: payload CRC %08x, header says %08x", ErrCorrupt, crc, hdr.CRC)
	}
	return hdr, payload, nil
}

// MarshalFull serializes a full (lossless) checkpoint of one variable.
func MarshalFull(variable string, iteration int, data []float64) ([]byte, error) {
	payload := fpc.Compress(data)
	var buf bytes.Buffer
	err := writeFile(&buf, magicFull, fileHeader{
		Variable:  variable,
		Iteration: iteration,
		N:         len(data),
	}, payload)
	if err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// UnmarshalFull parses a full checkpoint file.
func UnmarshalFull(raw []byte) (variable string, iteration int, data []float64, err error) {
	hdr, payload, err := readFile(raw, magicFull)
	if err != nil {
		return "", 0, nil, err
	}
	if data, err = decompressFull(hdr, payload); err != nil {
		return "", 0, nil, err
	}
	return hdr.Variable, hdr.Iteration, data, nil
}

// decompressFull is the second half of UnmarshalFull, for a caller
// (restart) that reads the header first and decompresses elsewhere.
func decompressFull(hdr fileHeader, payload []byte) ([]float64, error) {
	data, err := fpc.Decompress(payload)
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrCorrupt, err)
	}
	if len(data) != hdr.N {
		return nil, fmt.Errorf("%w: %d values, header says %d", ErrCorrupt, len(data), hdr.N)
	}
	return data, nil
}

// parseCheckpoint identifies a checkpoint file of any kind and format
// and returns the identity its header claims. Shallow, it answers "is
// this a complete, internally consistent file": frame, header, and
// every CRC-covered region short of a v2 chunk section (a full or v1
// payload; a v2 bin table and directory — a torn v2 file always fails
// here because its directory and footer live at the end). Deep, it
// also decompresses a full checkpoint and parses every chunk of a
// delta, which is what Verify asks.
func parseCheckpoint(raw []byte, deep bool) (kind, variable string, iteration int, err error) {
	if bytes.HasPrefix(raw, magicFull) {
		if deep {
			variable, iteration, _, err = UnmarshalFull(raw)
			return "full", variable, iteration, err
		}
		hdr, _, err := readFile(raw, magicFull)
		return "full", hdr.Variable, hdr.Iteration, err
	}
	d, err := openDelta(nil, raw, int64(len(raw)))
	if err != nil {
		return "delta", "", 0, err
	}
	if deep {
		dec := d.NewChunkDecoder()
		for i := range d.dir {
			if _, err := dec.checkedSection(i); err != nil {
				return "delta", "", 0, err
			}
		}
	}
	return "delta", d.meta.Variable, d.meta.Iteration, nil
}

func appendFloats(dst []byte, vals []float64) []byte {
	var b [8]byte
	for _, v := range vals {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		dst = append(dst, b[:]...)
	}
	return dst
}

// readFloatsInto decodes n little-endian float64 values from src into
// buf's backing array when it has capacity (pooled chunk decoding),
// else into a fresh slice.
func readFloatsInto(src []byte, n int, buf []float64) []float64 {
	var out []float64
	if cap(buf) >= n {
		out = buf[:n]
	} else {
		out = make([]float64, n)
	}
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(src[8*i:]))
	}
	return out
}
