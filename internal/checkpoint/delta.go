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
	"runtime"
	"sync"

	"numarck/internal/bitpack"
	"numarck/internal/core"
	"numarck/internal/obs"
)

// This file is the only one that knows how a delta checkpoint is laid
// out on disk: both writers, and the one reader (OpenDelta) everything
// else goes through.
//
// Format v1 (written by MarshalDelta) is one section under one CRC:
//
//	magic "NMRKD1" | len uint32 | JSON header (CRC covers the rest)
//	| bin table | packed indices | bitmap | exact values
//
// Format v2 stores the same encoding as independently decodable
// chunks, so decode parallelizes, corruption localizes to one chunk,
// and a sub-range of points can be reconstructed without reading the
// whole file. Layout:
//
//	magic "NMRKD2" | len uint32 | JSON header (adds chunk_points,
//	chunk_count; CRC covers the bin table)
//	| bin table (BinCount float64 LE)
//	| chunk sections, contiguous; section i = packed indices | bitmap
//	  | exact values, all for that chunk's points only, byte-aligned
//	| directory: chunk_count entries of offset u64 | length u32
//	  | crc u32 | exact_count u32
//	| footer: directory offset u64 | directory crc u32 | "NMK2EOF\n"
//
// The directory lives at the end so the encoder can stream sections out
// as chunks finish, without backpatching; readers find it through the
// fixed-size footer. What follows a v1 bin table is exactly one v2
// section covering all N points, so the reader builds that one
// directory entry itself and the two formats share every line of
// section parsing and decoding.
var (
	magicDelta   = []byte("NMRKD1")
	magicDeltaV2 = []byte("NMRKD2")
)

// DefaultChunkPoints is the chunk granularity used when a caller does
// not pick one: 256 Ki points = 2 MiB of float64 per chunk buffer.
const DefaultChunkPoints = 1 << 18

const (
	frameSize    = 6 + 4 // magic | header length
	dirEntrySize = 20
	footerSize   = 20
)

var footerMagic = []byte("NMK2EOF\n")

// dirEntry locates one chunk's section in the file. The on-disk length
// and exact count are 32-bit; a v1 file's one section may be longer.
type dirEntry struct {
	off        int64  // absolute file offset of the section
	length     int64  // section length in bytes
	crc        uint32 // CRC-32 (IEEE) of the section bytes (v2 only)
	exactCount int    // incompressible points in the chunk
}

// MarshalDelta serializes a NUMARCK-encoded checkpoint in the v1
// layout.
func MarshalDelta(variable string, iteration int, enc *core.Encoded) ([]byte, error) {
	packed, err := enc.PackedIndices()
	if err != nil {
		return nil, fmt.Errorf("checkpoint: pack indices: %w", err)
	}
	payload := make([]byte, 0,
		8*len(enc.BinRatios)+len(packed)+len(enc.Incompressible.Bytes())+8*len(enc.Exact))
	payload = appendFloats(payload, enc.BinRatios)
	payload = append(payload, packed...)
	payload = append(payload, enc.Incompressible.Bytes()...)
	payload = appendFloats(payload, enc.Exact)

	var buf bytes.Buffer
	err = writeFile(&buf, magicDelta, fileHeader{
		Variable:   variable,
		Iteration:  iteration,
		N:          enc.N,
		IndexBits:  enc.Opt.IndexBits,
		ErrorBound: enc.Opt.ErrorBound,
		Strategy:   enc.Opt.Strategy.String(),
		BinCount:   len(enc.BinRatios),
		ExactCount: len(enc.Exact),
	}, payload)
	if err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// ChunkError reports a problem confined to one chunk of a v2 file:
// which chunk, and where its section starts in the file. It wraps
// ErrCorrupt.
type ChunkError struct {
	Chunk  int   // chunk index
	Offset int64 // byte offset of the chunk's section in the file
	Err    error
}

// Error implements the error interface, locating the failure by chunk
// index and section byte offset.
func (e *ChunkError) Error() string {
	return fmt.Sprintf("chunk %d at byte offset %d: %v", e.Chunk, e.Offset, e.Err)
}

// Unwrap exposes the underlying cause (always wrapping ErrCorrupt) to
// errors.Is and errors.As.
func (e *ChunkError) Unwrap() error { return e.Err }

func chunkErr(i int, off int64, format string, args ...any) error {
	return &ChunkError{Chunk: i, Offset: off, Err: fmt.Errorf("%w: "+format, append([]any{ErrCorrupt}, args...)...)}
}

// chunkCountFor returns ceil(n / chunkPoints), without the overflow of
// n+chunkPoints-1: chunkPoints comes straight from a file header.
func chunkCountFor(n, chunkPoints int) int {
	if n%chunkPoints != 0 {
		return n/chunkPoints + 1
	}
	return n / chunkPoints
}

// sectionSize returns the byte size of a chunk section holding np
// points with exactCount exact values at the given index width.
func sectionSize(np, exactCount, indexBits int) int {
	return bitpack.PackedLen(np, indexBits) + (np+7)/8 + 8*exactCount
}

// DeltaV2Writer streams a v2 delta checkpoint to an io.Writer, one
// chunk at a time. The header and bin table are written on creation,
// each AppendChunk emits one section, and Finish writes the directory
// and footer. Nothing is buffered beyond the directory (20 bytes per
// chunk, preallocated to the chunk count) and three reusable scratch
// buffers sized to one section, so encoding memory is independent of
// the data size and second-and-later chunks allocate nothing here.
// Not safe for concurrent use; the pipeline's ordered emitter is the
// single caller.
type DeltaV2Writer struct {
	w           io.Writer
	off         int64
	n           int
	chunkPoints int
	indexBits   int
	binCount    int
	dir         []dirEntry
	pointsSeen  int
	finished    bool
	rec         *obs.Recorder

	packBuf []byte         // reused by bitpack.PackInto
	bitmap  bitpack.Bitmap // reused incompressible-flag bitmap
	section []byte         // reused section assembly buffer
}

// NewDeltaV2Writer writes the v2 header and bin table and returns a
// writer ready to receive chunk sections. n is the total point count;
// chunkPoints the points per chunk (every chunk except the last must
// have exactly chunkPoints points); opt must be valid for encoding.
func NewDeltaV2Writer(w io.Writer, variable string, iteration, n int, opt core.Options, binRatios []float64, chunkPoints int) (*DeltaV2Writer, error) {
	vopt, err := opt.Validate()
	if err != nil {
		return nil, err
	}
	if n < 0 {
		return nil, fmt.Errorf("checkpoint: negative point count %d", n)
	}
	if chunkPoints < 1 {
		return nil, fmt.Errorf("checkpoint: chunk points must be >= 1, got %d", chunkPoints)
	}
	if len(binRatios) > vopt.NumBins() {
		return nil, fmt.Errorf("checkpoint: %d bin ratios exceed 2^%d-1", len(binRatios), vopt.IndexBits)
	}
	table := appendFloats(nil, binRatios)
	hdr := fileHeader{
		Variable:    variable,
		Iteration:   iteration,
		N:           n,
		IndexBits:   vopt.IndexBits,
		ErrorBound:  vopt.ErrorBound,
		Strategy:    vopt.Strategy.String(),
		BinCount:    len(binRatios),
		ChunkPoints: chunkPoints,
		ChunkCount:  chunkCountFor(n, chunkPoints),
	}
	rec := vopt.Obs
	cw := &countingWriter{w: w}
	// writeFile computes hdr.CRC over the "payload", which for v2 is
	// the bin table; the chunk sections carry their own CRCs.
	t := rec.Start()
	err = writeFile(cw, magicDeltaV2, hdr, table)
	t.Stop(obs.StageWrite)
	if err != nil {
		return nil, err
	}
	rec.Add(obs.CounterBytesWritten, cw.n)
	return &DeltaV2Writer{
		w:           w,
		off:         cw.n,
		n:           n,
		chunkPoints: chunkPoints,
		indexBits:   vopt.IndexBits,
		binCount:    len(binRatios),
		dir:         make([]dirEntry, 0, hdr.ChunkCount),
		rec:         rec,
	}, nil
}

// countingWriter tracks bytes written through it.
type countingWriter struct {
	w io.Writer
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

// AppendChunk writes the section for the next chunk: its per-point
// index values, incompressible flags, and the exact values of the
// flagged points in point order. len(indices) must be chunkPoints
// (or the final short remainder).
func (w *DeltaV2Writer) AppendChunk(indices []uint32, incompressible []bool, exact []float64) error {
	if w.finished {
		return fmt.Errorf("checkpoint: append after Finish")
	}
	np := len(indices)
	want := w.chunkPoints
	if rem := w.n - w.pointsSeen; rem < want {
		want = rem
	}
	if np != want {
		return fmt.Errorf("checkpoint: chunk %d has %d points, want %d", len(w.dir), np, want)
	}
	if len(incompressible) != np {
		return fmt.Errorf("checkpoint: chunk %d: %d incompressible flags for %d points", len(w.dir), len(incompressible), np)
	}
	t := w.rec.Start()
	packed, err := bitpack.PackInto(indices, w.indexBits, w.packBuf)
	t.Stop(obs.StageBitpack)
	if err != nil {
		return fmt.Errorf("checkpoint: pack chunk %d: %w", len(w.dir), err)
	}
	w.packBuf = packed
	w.bitmap.Reset(np)
	nExact := 0
	for j, inc := range incompressible {
		if inc {
			w.bitmap.Set(j, true)
			nExact++
		}
	}
	if nExact != len(exact) {
		return fmt.Errorf("checkpoint: chunk %d flags %d incompressible points, %d exact values supplied", len(w.dir), nExact, len(exact))
	}
	if need := sectionSize(np, nExact, w.indexBits); cap(w.section) < need {
		w.section = make([]byte, 0, need)
	}
	section := w.section[:0]
	section = append(section, packed...)
	section = append(section, w.bitmap.Bytes()...)
	section = appendFloats(section, exact)
	w.section = section[:0]
	if len(section) > math.MaxUint32 {
		return fmt.Errorf("checkpoint: chunk section of %d bytes exceeds format limit", len(section))
	}
	t = w.rec.Start()
	crc := crc32.ChecksumIEEE(section)
	t.Stop(obs.StageCRC)
	t = w.rec.Start()
	_, werr := w.w.Write(section)
	t.Stop(obs.StageWrite)
	if werr != nil {
		return werr
	}
	w.rec.Add(obs.CounterBytesWritten, int64(len(section)))
	w.rec.Add(obs.CounterSectionBytes, int64(len(section)))
	w.rec.Add(obs.CounterChunksEncoded, 1)
	w.dir = append(w.dir, dirEntry{off: w.off, length: int64(len(section)), crc: crc, exactCount: nExact})
	w.off += int64(len(section))
	w.pointsSeen += np
	return nil
}

// Finish writes the chunk directory and footer. Every point must have
// been appended.
func (w *DeltaV2Writer) Finish() error {
	if w.finished {
		return fmt.Errorf("checkpoint: Finish called twice")
	}
	if w.pointsSeen != w.n {
		return fmt.Errorf("checkpoint: %d of %d points appended at Finish", w.pointsSeen, w.n)
	}
	w.finished = true
	dir := make([]byte, 0, len(w.dir)*dirEntrySize+footerSize)
	for _, e := range w.dir {
		var buf [dirEntrySize]byte
		binary.LittleEndian.PutUint64(buf[0:], uint64(e.off))
		//lint:ignore bindex AppendChunk refused any section over math.MaxUint32 bytes
		binary.LittleEndian.PutUint32(buf[8:], uint32(e.length))
		binary.LittleEndian.PutUint32(buf[12:], e.crc)
		//lint:ignore bindex a section holds 8 bytes per exact value and is <= math.MaxUint32
		binary.LittleEndian.PutUint32(buf[16:], uint32(e.exactCount))
		dir = append(dir, buf[:]...)
	}
	t := w.rec.Start()
	dirCRC := crc32.ChecksumIEEE(dir)
	t.Stop(obs.StageCRC)
	var foot [footerSize]byte
	binary.LittleEndian.PutUint64(foot[0:], uint64(w.off))
	binary.LittleEndian.PutUint32(foot[8:], dirCRC)
	copy(foot[12:], footerMagic)
	dir = append(dir, foot[:]...)
	t = w.rec.Start()
	_, err := w.w.Write(dir)
	t.Stop(obs.StageWrite)
	w.rec.Add(obs.CounterBytesWritten, int64(len(dir)))
	return err
}

// DeltaMeta is the header metadata of a delta checkpoint of either
// format. A v1 file reads as one chunk covering every point.
type DeltaMeta struct {
	// Version is the on-disk format: 1 (NMRKD1) or 2 (NMRKD2).
	Version     int
	Variable    string
	Iteration   int
	N           int
	Opt         core.Options
	BinRatios   []float64
	ChunkPoints int
	ChunkCount  int
}

// DeltaReader reads a delta checkpoint of either on-disk format as
// independently decodable chunks. It validates the header, bin table,
// and chunk directory up front. A v2 file's sections are CRC-checked
// lazily as they are read through an io.ReaderAt, giving random access
// for parallel or partial decode; a v1 file — one section under one
// whole-payload CRC — is read and checked in full when it is opened.
type DeltaReader struct {
	// r is nil when the whole file is in memory (mem); sections are
	// then sliced out of mem instead of being copied.
	r    io.ReaderAt
	mem  []byte
	meta DeltaMeta
	// table is core.RatioTable(meta.BinRatios), built once per file.
	table []float64
	dir   []dirEntry
	rec   *obs.Recorder
}

// SetRecorder attaches an instrumentation recorder: subsequent chunk
// reads report section read/CRC/unpack timings, byte counts, and
// decode timings into it. A nil recorder (the default) keeps every
// site a no-op. Not safe to call concurrently with chunk reads.
func (d *DeltaReader) SetRecorder(rec *obs.Recorder) { d.rec = rec }

// read returns n bytes of the file at off, which the caller has checked
// lie inside it: a slice of the in-memory file, or a ReadAt into buf
// (a fresh buffer when buf is too small).
func (d *DeltaReader) read(off, n int64, buf []byte) ([]byte, error) {
	if d.r == nil {
		return d.mem[off : off+n], nil
	}
	if int64(cap(buf)) < n {
		buf = make([]byte, n)
	}
	_, err := d.r.ReadAt(buf[:n], off)
	return buf[:n], err
}

// OpenDelta opens a delta checkpoint of the given total size. It is the
// only place that looks at a delta magic: everything that reads a
// delta — restart replay, raw commits, the recovery scan, verify, the
// streaming decoder, the CLI — comes through here and sees either
// format as chunks.
func OpenDelta(r io.ReaderAt, size int64) (*DeltaReader, error) {
	return openDelta(r, nil, size)
}

// OpenDeltaV2 is OpenDelta under the name it had when only the chunked
// format could be opened.
func OpenDeltaV2(r io.ReaderAt, size int64) (*DeltaReader, error) {
	return OpenDelta(r, size)
}

// openDelta is OpenDelta over r, or over the whole file in mem when r
// is nil.
func openDelta(r io.ReaderAt, mem []byte, size int64) (*DeltaReader, error) {
	size = max(size, 0)
	d := &DeltaReader{r: r, mem: mem}
	head, err := d.read(0, min(size, frameSize), nil)
	if err != nil {
		return nil, readErr("header", err)
	}
	magic := head[:min(len(head), len(magicDelta))]
	// Frame and JSON header: the bin table starts at tableOff, the
	// sections after it must end at sectionsEnd.
	var hdr fileHeader
	var tableOff, sectionsEnd int64
	if bytes.Equal(magic, magicDeltaV2) {
		d.meta.Version = 2
		if size < frameSize+footerSize {
			return nil, truncatedErr("%d bytes is shorter than a v2 file", size)
		}
		hlen := int64(binary.LittleEndian.Uint32(head[len(magic):]))
		if hlen < 2 || hlen > size-frameSize-footerSize {
			return nil, fmt.Errorf("%w: header length %d", ErrCorrupt, hlen)
		}
		hj, err := d.read(frameSize, hlen, nil)
		if err != nil {
			return nil, readErr("header", err)
		}
		if err := json.Unmarshal(hj, &hdr); err != nil {
			return nil, fmt.Errorf("%w: header: %w", ErrCorrupt, err)
		}
		tableOff, sectionsEnd = frameSize+hlen, size-footerSize
	} else {
		// A v1 file, or not a delta at all — readFile says which. v1's
		// one CRC covers the whole payload, so every byte is needed
		// before anything can be trusted: a file not yet in memory is
		// read whole (anything else is rejected off its first bytes).
		d.meta.Version = 1
		if d.r != nil {
			d.mem = head
			if bytes.Equal(magic, magicDelta) {
				if d.mem, err = d.read(0, size, nil); err != nil {
					return nil, readErr("file", err)
				}
			}
			d.r = nil
		}
		var payload []byte
		if hdr, payload, err = readFile(d.mem, magicDelta); err != nil {
			return nil, err
		}
		tableOff, sectionsEnd = size-int64(len(payload)), size
	}
	if err := d.meta.fromHeader(hdr, size); err != nil {
		return nil, err
	}

	// Bin table: covered by the header CRC in v2, by the payload CRC
	// readFile just checked in v1.
	tableLen := int64(8 * hdr.BinCount)
	if tableOff+tableLen > sectionsEnd {
		return nil, truncatedErr("bin table of %d bytes overruns file", tableLen)
	}
	table, err := d.read(tableOff, tableLen, nil)
	if err != nil {
		return nil, readErr("bin table", err)
	}
	if crc := crc32.ChecksumIEEE(table); d.meta.Version == 2 && crc != hdr.CRC {
		return nil, fmt.Errorf("%w: bin table CRC %08x, header says %08x", ErrCorrupt, crc, hdr.CRC)
	}
	d.meta.BinRatios = readFloatsInto(table, hdr.BinCount, nil)
	for i, b := range d.meta.BinRatios {
		if math.IsNaN(b) || math.IsInf(b, 0) {
			return nil, fmt.Errorf("%w: non-finite bin ratio at %d", ErrCorrupt, i)
		}
	}
	d.table = core.RatioTable(d.meta.BinRatios)
	sectionsOff := tableOff + tableLen

	if d.meta.Version == 1 {
		// The rest of the payload is the file's one section.
		want := int64(sectionSize(hdr.N, hdr.ExactCount, hdr.IndexBits))
		if have := sectionsEnd - sectionsOff; have < want {
			return nil, truncatedErr("payload %d bytes, want %d", tableLen+have, tableLen+want)
		} else if have > want {
			return nil, fmt.Errorf("%w: payload %d bytes, want %d", ErrCorrupt, tableLen+have, tableLen+want)
		}
		if hdr.N > 0 {
			d.dir = []dirEntry{{off: sectionsOff, length: want, exactCount: hdr.ExactCount}}
		}
		return d, nil
	}

	// Footer → directory.
	foot, err := d.read(sectionsEnd, footerSize, nil)
	if err != nil {
		return nil, readErr("footer", err)
	}
	if !bytes.Equal(foot[12:], footerMagic) {
		return nil, fmt.Errorf("%w: bad footer magic %q", ErrCorrupt, foot[12:])
	}
	dirOff := binary.LittleEndian.Uint64(foot[0:])
	dirLen := int64(hdr.ChunkCount) * dirEntrySize
	if dirOff > math.MaxInt64 || int64(dirOff) != sectionsEnd-dirLen || int64(dirOff) < sectionsOff {
		return nil, fmt.Errorf("%w: directory offset %d in a %d-byte file with %d chunks", ErrCorrupt, dirOff, size, hdr.ChunkCount)
	}
	dirRaw, err := d.read(int64(dirOff), dirLen, nil)
	if err != nil {
		return nil, readErr("directory", err)
	}
	if crc := crc32.ChecksumIEEE(dirRaw); crc != binary.LittleEndian.Uint32(foot[8:]) {
		return nil, fmt.Errorf("%w: directory CRC %08x, footer says %08x", ErrCorrupt, crc, binary.LittleEndian.Uint32(foot[8:]))
	}

	// Sections must tile [table end, directory start) exactly in chunk
	// order; a directory whose offsets or lengths disagree with the
	// per-chunk point counts is lying about the layout.
	d.dir = make([]dirEntry, hdr.ChunkCount)
	expectOff := sectionsOff
	for i := range d.dir {
		e := dirRaw[i*dirEntrySize:]
		off := binary.LittleEndian.Uint64(e[0:])
		length := int64(binary.LittleEndian.Uint32(e[8:]))
		exact := int(binary.LittleEndian.Uint32(e[16:]))
		np := chunkPointsAt(hdr.N, hdr.ChunkPoints, i)
		if off > math.MaxInt64 || int64(off) != expectOff {
			return nil, fmt.Errorf("%w: chunk %d section at offset %d, expected %d", ErrCorrupt, i, off, expectOff)
		}
		if exact > np {
			return nil, fmt.Errorf("%w: chunk %d claims %d exact values for %d points", ErrCorrupt, i, exact, np)
		}
		if want := int64(sectionSize(np, exact, hdr.IndexBits)); length != want {
			return nil, fmt.Errorf("%w: chunk %d section length %d, want %d", ErrCorrupt, i, length, want)
		}
		d.dir[i] = dirEntry{off: expectOff, length: length, crc: binary.LittleEndian.Uint32(e[12:]), exactCount: exact}
		expectOff += length
	}
	if expectOff != int64(dirOff) {
		return nil, fmt.Errorf("%w: sections end at %d, directory starts at %d", ErrCorrupt, expectOff, dirOff)
	}
	return d, nil
}

// fromHeader is the one validator of a delta header, either format:
// it fills m from hdr, bounding every count by the file size before
// anything multiplies it or allocates by it — a header is a few hundred
// bytes an uploader controls, and a count that wraps a length check to
// zero would otherwise size an allocation.
func (m *DeltaMeta) fromHeader(hdr fileHeader, size int64) error {
	if hdr.Variable == "" {
		return fmt.Errorf("%w: header names no variable", ErrCorrupt)
	}
	if hdr.IndexBits < 1 || hdr.IndexBits > core.MaxIndexBits {
		return fmt.Errorf("%w: index bits %d", ErrCorrupt, hdr.IndexBits)
	}
	if hdr.BinCount < 0 || hdr.BinCount >= 1<<uint(hdr.IndexBits) {
		return fmt.Errorf("%w: %d bins do not fit 2^%d-1", ErrCorrupt, hdr.BinCount, hdr.IndexBits)
	}
	// Every point costs at least its bitmap bit.
	if hdr.N < 0 || int64(hdr.N)/8 > size || hdr.ExactCount < 0 || hdr.ExactCount > hdr.N {
		return fmt.Errorf("%w: implausible counts n=%d exact=%d in a %d-byte file", ErrCorrupt, hdr.N, hdr.ExactCount, size)
	}
	strategy, err := core.ParseStrategy(hdr.Strategy)
	if err != nil {
		return fmt.Errorf("%w: %w", ErrCorrupt, err)
	}
	opt, err := core.Options{ErrorBound: hdr.ErrorBound, IndexBits: hdr.IndexBits, Strategy: strategy}.Validate()
	if err != nil {
		return fmt.Errorf("%w: %w", ErrCorrupt, err)
	}
	if m.Version == 1 {
		hdr.ChunkPoints = max(hdr.N, 1)
		hdr.ChunkCount = chunkCountFor(hdr.N, hdr.ChunkPoints)
	} else if hdr.ChunkPoints < 1 || hdr.ChunkCount != chunkCountFor(hdr.N, hdr.ChunkPoints) || int64(hdr.ChunkCount) > size/dirEntrySize {
		return fmt.Errorf("%w: %d points in %d chunks of %d in a %d-byte file", ErrCorrupt, hdr.N, hdr.ChunkCount, hdr.ChunkPoints, size)
	}
	m.Variable, m.Iteration, m.N, m.Opt = hdr.Variable, hdr.Iteration, hdr.N, opt
	m.ChunkPoints, m.ChunkCount = hdr.ChunkPoints, hdr.ChunkCount
	return nil
}

// chunkPointsAt returns the point count of chunk i.
func chunkPointsAt(n, chunkPoints, i int) int {
	start := i * chunkPoints
	if rem := n - start; rem < chunkPoints {
		return rem
	}
	return chunkPoints
}

// Meta returns the checkpoint's header metadata.
func (d *DeltaReader) Meta() DeltaMeta { return d.meta }

// ChunkSpan returns the half-open point range [start, start+np) covered
// by chunk i.
func (d *DeltaReader) ChunkSpan(i int) (start, np int) {
	return i * d.meta.ChunkPoints, chunkPointsAt(d.meta.N, d.meta.ChunkPoints, i)
}

// ChunkPayload is the parsed section of one chunk.
type ChunkPayload struct {
	Indices        []uint32
	Incompressible *bitpack.Bitmap
	Exact          []float64
}

// applyBlockPoints is how many points of a chunk are unpacked and
// reconstructed at a time: 4 KiB of indices that never leave the L1
// cache between the unpack that writes them and the kernel that reads
// them, instead of a chunk-sized index array walked three times. A
// multiple of 8, so a block's flags start on a byte.
const applyBlockPoints = 1024

// ChunkDecoder reads and decodes chunks of a DeltaReader through
// reusable scratch buffers (section bytes, one block of unpacked indices
// and exact values), so a steady-state decode loop allocates nothing per
// chunk. Each worker of a parallel decode owns one, and chain replay
// carries one from file to file; a decoder is not safe for concurrent
// use. Payloads returned by ReadChunk alias the scratch and are valid
// only until the next call.
type ChunkDecoder struct {
	d       *DeltaReader
	section []byte    // a section read through an io.ReaderAt
	idx     []uint32  // one block's unpacked indices
	exact   []float64 // one block's exact values
	head    [1]byte   // the flags of a block that starts inside a byte
	// ReadChunk's materialized view of a whole chunk.
	bitmap  bitpack.Bitmap
	payload ChunkPayload
}

// NewChunkDecoder returns a decoder with empty scratch; buffers grow on
// first use and are reused after that.
func (d *DeltaReader) NewChunkDecoder() *ChunkDecoder {
	return &ChunkDecoder{d: d}
}

// sectionParts cuts chunk i's section, whose length the directory check
// at open tied to the chunk's point and exact counts, into its packed
// indices, flag bytes and exact values.
func (d *DeltaReader) sectionParts(i int, section []byte) (packed, flags, exact []byte) {
	_, np := d.ChunkSpan(i)
	idxBytes := bitpack.PackedLen(np, d.meta.Opt.IndexBits)
	mapBytes := (np + 7) / 8
	return section[:idxBytes], section[idxBytes : idxBytes+mapBytes], section[idxBytes+mapBytes:]
}

// checkSection is the validation pass over chunk i's bytes, both
// formats: the section CRC (a v1 section has none of its own — the
// payload CRC checked when the file was opened covers these same
// in-memory bytes), every index within the bin table, the flag count
// equal to the stored exact count, no flag set beyond the last point.
// It reads the packed bytes once and unpacks nothing, and everything
// that can be wrong with a section is found here: after it, applying the
// section cannot fail, so a bad chunk is reported — as a *ChunkError
// naming the chunk and its byte offset — before a single point of the
// state it would have updated is written.
func (d *DeltaReader) checkSection(i int, section []byte) error {
	ent := d.dir[i]
	_, np := d.ChunkSpan(i)
	if d.meta.Version == 2 {
		t := d.rec.Start()
		crc := crc32.ChecksumIEEE(section)
		t.Stop(obs.StageCRC)
		if crc != ent.crc {
			return chunkErr(i, ent.off, "section CRC %08x, directory says %08x", crc, ent.crc)
		}
	}
	t := d.rec.Start()
	defer t.Stop(obs.StageBitpack)
	packed, flags, _ := d.sectionParts(i, section)
	if got := bitpack.CountFirst(flags, np); got != ent.exactCount {
		return chunkErr(i, ent.off, "bitmap flags %d points, %d exact values stored", got, ent.exactCount)
	}
	if np%8 != 0 && flags[len(flags)-1]>>uint(np%8) != 0 {
		return chunkErr(i, ent.off, "bitmap flags a point beyond the chunk's %d", np)
	}
	bins := len(d.meta.BinRatios)
	//lint:ignore bindex fromHeader bounded the bin count below 2^IndexBits <= 2^32
	j, err := bitpack.FirstAbove(packed, np, d.meta.Opt.IndexBits, uint32(bins))
	if err != nil {
		return chunkErr(i, ent.off, "%v", err)
	}
	if j >= 0 {
		idx, _ := bitpack.Get(packed, j, d.meta.Opt.IndexBits) // FirstAbove just read field j
		return chunkErr(i, ent.off, "index %d at point %d exceeds bin count %d", idx, j, bins)
	}
	return nil
}

// checkedSection reads chunk i's section — a slice of a file held in
// memory, else through the decoder's scratch — and validates it.
func (c *ChunkDecoder) checkedSection(i int) ([]byte, error) {
	d := c.d
	if i < 0 || i >= len(d.dir) {
		return nil, fmt.Errorf("checkpoint: chunk %d out of range [0,%d)", i, len(d.dir))
	}
	ent := d.dir[i]
	t := d.rec.Start()
	section, rerr := d.read(ent.off, ent.length, c.section)
	t.Stop(obs.StageRead)
	if rerr != nil {
		return nil, chunkErr(i, ent.off, "read section: %v", rerr)
	}
	if d.r != nil {
		c.section = section // keep the grown scratch; never a slice of a file held in memory
	}
	d.rec.Add(obs.CounterBytesRead, ent.length)
	d.rec.Add(obs.CounterSectionBytes, ent.length)
	return section, d.checkSection(i, section)
}

// ReadChunk reads and validates chunk i's section (checkSection) and
// unpacks all of it, for callers that want a chunk's contents rather
// than its reconstruction: the Encoded view, inspection. The payload
// aliases the decoder's scratch: it is invalidated by the next ReadChunk
// or DecodeChunkInto call.
func (c *ChunkDecoder) ReadChunk(i int) (*ChunkPayload, error) {
	section, err := c.checkedSection(i)
	if err != nil {
		return nil, err
	}
	d := c.d
	_, np := d.ChunkSpan(i)
	packed, flags, exact := d.sectionParts(i, section)
	t := d.rec.Start()
	c.payload.Indices, err = bitpack.UnpackInto(packed, np, d.meta.Opt.IndexBits, c.payload.Indices)
	t.Stop(obs.StageBitpack)
	if err == nil {
		err = c.bitmap.LoadBytes(flags, np)
	}
	if err != nil {
		return nil, chunkErr(i, d.dir[i].off, "%v", err)
	}
	c.payload.Incompressible = &c.bitmap
	c.payload.Exact = readFloatsInto(exact, d.dir[i].exactCount, c.payload.Exact)
	return &c.payload, nil
}

// DecodeChunkInto reconstructs chunk i into dst given the previous
// iteration's values for the same point range; dst may be prev itself.
// len(prev) and len(dst) must both equal the chunk's point count. The
// chunk is fully validated before its first point is written: one that
// fails comes back as a *ChunkError and leaves dst untouched.
func (c *ChunkDecoder) DecodeChunkInto(i int, prev, dst []float64) error {
	section, err := c.checkedSection(i)
	if err != nil {
		return err
	}
	_, np := c.d.ChunkSpan(i)
	t := c.d.rec.Start()
	err = c.apply(c.d, i, section, 0, np, &exactCursor{}, prev, dst)
	t.Stop(obs.StageDecode)
	if err != nil {
		return err
	}
	c.d.rec.Add(obs.CounterChunksDecoded, 1)
	return nil
}

// exactCursor is a position in one chunk's flags together with the
// number of flags set before it, which is where that point's exact
// value, if it has one, sits among the chunk's. A caller that applies a
// chunk piece by piece in increasing order keeps one, so each piece
// counts only the flags between the last piece and itself.
type exactCursor struct{ chunk, pos, used int }

// seek moves the cursor to point lo of chunk i.
func (cur *exactCursor) seek(i int, flags []byte, lo int) {
	from, used := 0, 0
	if cur.chunk == i && cur.pos <= lo && cur.pos&7 == 0 {
		from, used = cur.pos, cur.used
	}
	*cur = exactCursor{chunk: i, pos: lo, used: used + bitpack.CountFirst(flags[from>>3:], lo-from)}
}

// apply is the apply pass: it reconstructs points [lo, hi) of d's chunk
// i, whose section has passed checkSection, from prev into dst — the
// previous and new values of exactly those points, possibly the same
// slice — and leaves cur at hi. Each block of applyBlockPoints is
// unpacked into the decoder's scratch and handed, with its flag bytes
// and exact values, to core.Reconstruct. The range may start anywhere
// (chain replay cuts a chunk where its own point blocks end, and a chunk
// size need not be a multiple of 8): a start inside a flag byte is first
// brought to the next byte boundary by one short block.
func (c *ChunkDecoder) apply(d *DeltaReader, i int, section []byte, lo, hi int, cur *exactCursor, prev, dst []float64) error {
	if len(prev) != hi-lo || len(dst) != hi-lo {
		return fmt.Errorf("%w: chunk %d: %d points to reconstruct from %d previous values into %d", core.ErrLength, i, hi-lo, len(prev), len(dst))
	}
	if c.idx == nil {
		// Sized for any block up front: scratch that grew to each new
		// largest block would make allocations depend on the data.
		c.idx, c.exact = make([]uint32, 0, applyBlockPoints), make([]float64, 0, applyBlockPoints)
	}
	packed, flags, exact := d.sectionParts(i, section)
	for cur.seek(i, flags, lo); cur.pos < hi; {
		at := cur.pos
		end, bf := min(hi, at+applyBlockPoints), flags[at>>3:]
		if at&7 != 0 {
			end = min(hi, at|7+1)
			c.head[0] = flags[at>>3] >> uint(at&7)
			bf = c.head[:]
		}
		var err error
		if c.idx, err = bitpack.UnpackRange(packed, at, end-at, d.meta.Opt.IndexBits, c.idx); err != nil {
			return fmt.Errorf("checkpoint: chunk %d: %w", i, err)
		}
		flagged := bitpack.CountFirst(bf, end-at)
		c.exact = readFloatsInto(exact[8*cur.used:], flagged, c.exact)
		if err := core.Reconstruct(dst[at-lo:end-lo], prev[at-lo:end-lo], d.table, c.idx, bf, c.exact); err != nil {
			return fmt.Errorf("checkpoint: chunk %d: %w", i, err)
		}
		cur.pos, cur.used = end, cur.used+flagged
	}
	return nil
}

// decodeInto reconstructs every chunk of the file from prev into dst —
// the same slice when chain replay updates a state in place — under
// ropt's degraded-mode contract, on up to `workers` goroutines (<= 0
// means GOMAXPROCS; never more than there are chunks). Worker w takes
// chunks w, w+workers, … through one ChunkDecoder of its own, so
// goroutines and scratch are bounded by the worker count however many
// chunks the file claims; a lone worker — always the case for a
// one-chunk file, so for every v1 file — runs on the caller's
// goroutine through dec. Chunks decode fully independently off the
// directory and write disjoint ranges of dst, so completion order does
// not matter and the WaitGroup is the only synchronization.
func (d *DeltaReader) decodeInto(dec *ChunkDecoder, prev, dst []float64, workers int, ropt RecoverOptions) (*PartialDataError, error) {
	if len(prev) != d.meta.N || len(dst) != d.meta.N {
		return nil, fmt.Errorf("%w: prev has %d points, encoded has %d", core.ErrLength, len(prev), d.meta.N)
	}
	m := len(d.dir)
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = max(min(workers, m), 1)
	errs := make([]error, m)
	run := func(dec *ChunkDecoder, w int) {
		for i := w; i < m; i += workers {
			start, np := d.ChunkSpan(i)
			errs[i] = dec.DecodeChunkInto(i, prev[start:start+np], dst[start:start+np])
		}
	}
	if workers == 1 {
		dec.d = d
		run(dec, 0)
	} else {
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				run(d.NewChunkDecoder(), w)
			}()
		}
		wg.Wait()
	}

	partial, err := d.settle(errs, ropt, workers)
	if err != nil {
		return nil, err
	}
	if partial != nil {
		// A quarantined chunk's range carries the previous iteration's
		// values, nothing from the bad section.
		for _, r := range partial.Lost {
			copy(dst[r.Lo:r.Hi], prev[r.Lo:r.Hi])
		}
	}
	return partial, nil
}

// settle turns the per-chunk outcomes of decoding or validating the
// file (errs, by chunk index; nil when every chunk passed) into the
// decode's answer under ropt. Only chunk-local damage is salvageable,
// and only when asked: anything else (an fs-level read failure, a caller
// bug) fails the whole decode, as does the first bad chunk when
// fail-closed. Otherwise the decode counts — into ropt.Obs, else the
// reader's recorder — and the bad chunks, if any, come back as the
// report of what was quarantined.
func (d *DeltaReader) settle(errs []error, ropt RecoverOptions, workers int) (*PartialDataError, error) {
	var lost []Range
	for i, err := range errs {
		if err == nil {
			continue
		}
		var ce *ChunkError
		if !ropt.Salvage || !errors.As(err, &ce) {
			return nil, err
		}
		start, np := d.ChunkSpan(i)
		lost = append(lost, Range{Lo: start, Hi: start + np})
	}
	rec := ropt.Obs
	if rec == nil {
		rec = d.rec
	}
	if lost == nil {
		rec.Add(obs.CounterDecodes, 1)
		rec.Add(obs.CounterPointsDecoded, int64(d.meta.N))
		rec.SetMax(obs.GaugeWorkers, int64(workers))
		return nil, nil
	}
	rec.Add(obs.CounterChunksQuarantined, int64(len(lost)))
	statuses := make([]ChunkStatus, len(errs))
	for i, err := range errs {
		start, np := d.ChunkSpan(i)
		statuses[i] = ChunkStatus{Chunk: i, Start: start, Points: np, Err: err}
	}
	return &PartialDataError{Variable: d.meta.Variable, Iteration: d.meta.Iteration, Chunks: statuses, Lost: mergeRanges(lost)}, nil
}

// Decode reconstructs all points from prev, fanning chunks out over up
// to `workers` goroutines (<= 0 means GOMAXPROCS). The first bad chunk,
// in chunk order, fails the whole decode.
func (d *DeltaReader) Decode(prev []float64, workers int) ([]float64, error) {
	return d.DecodeRecover(prev, workers, RecoverOptions{})
}

// DecodeRecover is Decode under ropt's degraded-mode contract: with
// Salvage set, a chunk whose section fails its CRC or structure check
// is quarantined — its point range keeps prev's values, nothing from
// the bad section is used — while every healthy chunk decodes normally,
// and the damage comes back as a *PartialDataError alongside the
// salvaged data. Non-chunk-local failures (wrong prev length) fail
// closed either way.
func (d *DeltaReader) DecodeRecover(prev []float64, workers int, ropt RecoverOptions) ([]float64, error) {
	out := make([]float64, len(prev))
	partial, err := d.decodeInto(d.NewChunkDecoder(), prev, out, workers, ropt)
	if err != nil {
		return nil, err
	}
	if partial != nil {
		return out, partial
	}
	return out, nil
}

// Encoded assembles the whole file back into an in-memory core.Encoded
// (the compatibility view behind UnmarshalDelta and inspect; restart
// replays chunks in place and never builds one).
func (d *DeltaReader) Encoded() (*core.Encoded, error) {
	enc := &core.Encoded{Opt: d.meta.Opt, N: d.meta.N, BinRatios: d.meta.BinRatios}
	dec := d.NewChunkDecoder()
	if len(d.dir) == 1 {
		// One section is the whole encoding (every v1 file): the
		// throw-away decoder's buffers become it, uncopied.
		p, err := dec.ReadChunk(0)
		if err != nil {
			return nil, err
		}
		enc.Indices, enc.Incompressible, enc.Exact = p.Indices, p.Incompressible, p.Exact
		return enc, nil
	}
	enc.Indices = make([]uint32, d.meta.N)
	enc.Incompressible = bitpack.NewBitmap(d.meta.N)
	for i := range d.dir {
		start, np := d.ChunkSpan(i)
		p, err := dec.ReadChunk(i)
		if err != nil {
			return nil, err
		}
		copy(enc.Indices[start:start+np], p.Indices)
		for j := 0; j < np; j++ {
			if p.Incompressible.Get(j) {
				enc.Incompressible.Set(start+j, true)
			}
		}
		enc.Exact = append(enc.Exact, p.Exact...)
	}
	return enc, nil
}

// UnmarshalDelta parses a delta checkpoint file of either format, held
// fully in memory, back into a decodable core.Encoded. The TrueRatios
// field is not stored on disk, so the returned value supports Decode
// but not error-rate accounting.
func UnmarshalDelta(raw []byte) (variable string, iteration int, enc *core.Encoded, err error) {
	d, err := openDelta(nil, raw, int64(len(raw)))
	if err != nil {
		return "", 0, nil, err
	}
	if enc, err = d.Encoded(); err != nil {
		return "", 0, nil, err
	}
	return d.meta.Variable, d.meta.Iteration, enc, nil
}

// UnmarshalDeltaV2 is UnmarshalDelta under the name it had when the two
// formats had a parser each.
func UnmarshalDeltaV2(raw []byte) (variable string, iteration int, enc *core.Encoded, err error) {
	return UnmarshalDelta(raw)
}

// MarshalDeltaV2 serializes an in-memory encoding into the v2 chunked
// format with the given chunk granularity (<= 0 means
// DefaultChunkPoints).
func MarshalDeltaV2(variable string, iteration int, enc *core.Encoded, chunkPoints int) ([]byte, error) {
	if chunkPoints <= 0 {
		chunkPoints = DefaultChunkPoints
	}
	var buf bytes.Buffer
	w, err := NewDeltaV2Writer(&buf, variable, iteration, enc.N, enc.Opt, enc.BinRatios, chunkPoints)
	if err != nil {
		return nil, err
	}
	exactOff := 0
	for start := 0; start < enc.N; start += chunkPoints {
		np := chunkPointsAt(enc.N, chunkPoints, start/chunkPoints)
		inc := make([]bool, np)
		nExact := 0
		for j := 0; j < np; j++ {
			if enc.Incompressible.Get(start + j) {
				inc[j] = true
				nExact++
			}
		}
		if exactOff+nExact > len(enc.Exact) {
			return nil, fmt.Errorf("checkpoint: encoding flags more exact values than stored (%d)", len(enc.Exact))
		}
		err := w.AppendChunk(enc.Indices[start:start+np], inc, enc.Exact[exactOff:exactOff+nExact])
		if err != nil {
			return nil, err
		}
		exactOff += nExact
	}
	if exactOff != len(enc.Exact) {
		return nil, fmt.Errorf("checkpoint: %d exact values stored, %d consumed", len(enc.Exact), exactOff)
	}
	if err := w.Finish(); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}
