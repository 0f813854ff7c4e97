package checkpoint

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
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

// Format v2 stores a delta checkpoint as independently decodable
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
// fixed-size footer.
var magicDeltaV2 = []byte("NMRKD2")

// DefaultChunkPoints is the chunk granularity used when a caller does
// not pick one: 256 Ki points = 2 MiB of float64 per chunk buffer.
const DefaultChunkPoints = 1 << 18

const (
	dirEntrySize = 20
	footerSize   = 20
)

var footerMagic = []byte("NMK2EOF\n")

// dirEntry locates one chunk's section in the file.
type dirEntry struct {
	off        int64  // absolute file offset of the section
	length     uint32 // section length in bytes
	crc        uint32 // CRC-32 (IEEE) of the section bytes
	exactCount uint32 // incompressible points in the chunk
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

// chunkCountFor returns ceil(n / chunkPoints).
func chunkCountFor(n, chunkPoints int) int {
	if n == 0 {
		return 0
	}
	return (n + chunkPoints - 1) / chunkPoints
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
	w.dir = append(w.dir, dirEntry{
		off: w.off,
		//lint:ignore bindex len(section) <= math.MaxUint32 checked above
		length: uint32(len(section)),
		crc:    crc,
		//lint:ignore bindex the section holds 8 bytes per exact value and is <= math.MaxUint32 checked above
		exactCount: uint32(nExact),
	})
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
		binary.LittleEndian.PutUint32(buf[8:], e.length)
		binary.LittleEndian.PutUint32(buf[12:], e.crc)
		binary.LittleEndian.PutUint32(buf[16:], e.exactCount)
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

// ExactTotal returns the incompressible points appended so far.
func (w *DeltaV2Writer) ExactTotal() int {
	t := 0
	for _, e := range w.dir {
		t += int(e.exactCount)
	}
	return t
}

// DeltaV2Meta is the header metadata of a v2 delta checkpoint.
type DeltaV2Meta struct {
	Variable    string
	Iteration   int
	N           int
	Opt         core.Options
	BinRatios   []float64
	ChunkPoints int
	ChunkCount  int
}

// DeltaV2Reader reads a v2 delta checkpoint through an io.ReaderAt,
// giving random access to individual chunks for parallel or partial
// decode. It validates the header, bin table, and directory up front;
// chunk sections are CRC-checked lazily as they are read.
type DeltaV2Reader struct {
	r    io.ReaderAt
	meta DeltaV2Meta
	dir  []dirEntry
	rec  *obs.Recorder
}

// SetRecorder attaches an instrumentation recorder: subsequent chunk
// reads report section read/CRC/unpack timings, byte counts, and
// decode timings into it. A nil recorder (the default) keeps every
// site a no-op. Not safe to call concurrently with chunk reads.
func (d *DeltaV2Reader) SetRecorder(rec *obs.Recorder) { d.rec = rec }

// IsDeltaV2 reports whether raw starts like a v2 delta checkpoint.
func IsDeltaV2(raw []byte) bool { return bytes.HasPrefix(raw, magicDeltaV2) }

// OpenDeltaV2 parses the header, bin table, and chunk directory of a v2
// delta checkpoint of the given total size.
func OpenDeltaV2(r io.ReaderAt, size int64) (*DeltaV2Reader, error) {
	headMax := int64(len(magicDeltaV2) + 4)
	if size < headMax+footerSize {
		return nil, truncatedErr("%d bytes is shorter than a v2 file", size)
	}
	head := make([]byte, headMax)
	if _, err := r.ReadAt(head, 0); err != nil {
		return nil, readErr("header", err)
	}
	if !bytes.Equal(head[:len(magicDeltaV2)], magicDeltaV2) {
		return nil, fmt.Errorf("%w: bad magic %q", ErrCorrupt, head[:len(magicDeltaV2)])
	}
	hlen := int64(binary.LittleEndian.Uint32(head[len(magicDeltaV2):]))
	if hlen < 2 || hlen > size-headMax-footerSize {
		return nil, fmt.Errorf("%w: header length %d", ErrCorrupt, hlen)
	}
	hj := make([]byte, hlen)
	if _, err := r.ReadAt(hj, headMax); err != nil {
		return nil, readErr("header", err)
	}
	var hdr fileHeader
	if err := json.Unmarshal(hj, &hdr); err != nil {
		return nil, fmt.Errorf("%w: header: %w", ErrCorrupt, err)
	}

	if hdr.N < 0 || hdr.BinCount < 0 {
		return nil, fmt.Errorf("%w: implausible counts n=%d bins=%d", ErrCorrupt, hdr.N, hdr.BinCount)
	}
	if hdr.IndexBits < 1 || hdr.IndexBits > core.MaxIndexBits {
		return nil, fmt.Errorf("%w: index bits %d", ErrCorrupt, hdr.IndexBits)
	}
	if hdr.BinCount >= 1<<uint(hdr.IndexBits) {
		return nil, fmt.Errorf("%w: %d bins exceed 2^%d-1", ErrCorrupt, hdr.BinCount, hdr.IndexBits)
	}
	strategy, err := core.ParseStrategy(hdr.Strategy)
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrCorrupt, err)
	}
	opt, err := core.Options{
		ErrorBound: hdr.ErrorBound,
		IndexBits:  hdr.IndexBits,
		Strategy:   strategy,
	}.Validate()
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrCorrupt, err)
	}
	if hdr.ChunkPoints < 1 || hdr.ChunkCount != chunkCountFor(hdr.N, hdr.ChunkPoints) {
		return nil, fmt.Errorf("%w: %d points in %d chunks of %d", ErrCorrupt, hdr.N, hdr.ChunkCount, hdr.ChunkPoints)
	}

	// Bin table, covered by the header CRC.
	tableOff := headMax + hlen
	tableLen := int64(8 * hdr.BinCount)
	if tableOff+tableLen > size-footerSize {
		return nil, fmt.Errorf("%w: bin table of %d bytes overruns file", ErrCorrupt, tableLen)
	}
	table := make([]byte, tableLen)
	if _, err := r.ReadAt(table, tableOff); err != nil {
		return nil, readErr("bin table", err)
	}
	if crc := crc32.ChecksumIEEE(table); crc != hdr.CRC {
		return nil, fmt.Errorf("%w: bin table CRC %08x, header says %08x", ErrCorrupt, crc, hdr.CRC)
	}
	bins := readFloats(table, hdr.BinCount)
	for i, b := range bins {
		if math.IsNaN(b) || math.IsInf(b, 0) {
			return nil, fmt.Errorf("%w: non-finite bin ratio at %d", ErrCorrupt, i)
		}
	}

	// Footer → directory.
	foot := make([]byte, footerSize)
	if _, err := r.ReadAt(foot, size-footerSize); err != nil {
		return nil, readErr("footer", err)
	}
	if !bytes.Equal(foot[12:], footerMagic) {
		return nil, fmt.Errorf("%w: bad footer magic %q", ErrCorrupt, foot[12:])
	}
	dirOff := binary.LittleEndian.Uint64(foot[0:])
	dirLen := int64(hdr.ChunkCount) * dirEntrySize
	if dirOff > math.MaxInt64 || int64(dirOff) != size-footerSize-dirLen || int64(dirOff) < tableOff+tableLen {
		return nil, fmt.Errorf("%w: directory offset %d in a %d-byte file with %d chunks", ErrCorrupt, dirOff, size, hdr.ChunkCount)
	}
	dirRaw := make([]byte, dirLen)
	if _, err := r.ReadAt(dirRaw, int64(dirOff)); err != nil {
		return nil, readErr("directory", err)
	}
	if crc := crc32.ChecksumIEEE(dirRaw); crc != binary.LittleEndian.Uint32(foot[8:]) {
		return nil, fmt.Errorf("%w: directory CRC %08x, footer says %08x", ErrCorrupt, crc, binary.LittleEndian.Uint32(foot[8:]))
	}

	// Sections must tile [table end, directory start) exactly in chunk
	// order; a directory whose offsets or lengths disagree with the
	// per-chunk point counts is lying about the layout.
	dir := make([]dirEntry, hdr.ChunkCount)
	expectOff := tableOff + tableLen
	for i := range dir {
		e := dirRaw[i*dirEntrySize:]
		off := binary.LittleEndian.Uint64(e[0:])
		length := binary.LittleEndian.Uint32(e[8:])
		exact := binary.LittleEndian.Uint32(e[16:])
		np := chunkPointsAt(hdr.N, hdr.ChunkPoints, i)
		if off > math.MaxInt64 || int64(off) != expectOff {
			return nil, fmt.Errorf("%w: chunk %d section at offset %d, expected %d", ErrCorrupt, i, off, expectOff)
		}
		if int(exact) > np {
			return nil, fmt.Errorf("%w: chunk %d claims %d exact values for %d points", ErrCorrupt, i, exact, np)
		}
		if want := sectionSize(np, int(exact), hdr.IndexBits); int(length) != want {
			return nil, fmt.Errorf("%w: chunk %d section length %d, want %d", ErrCorrupt, i, length, want)
		}
		dir[i] = dirEntry{
			off:        int64(off),
			length:     length,
			crc:        binary.LittleEndian.Uint32(e[12:]),
			exactCount: exact,
		}
		expectOff += int64(length)
	}
	if expectOff != int64(dirOff) {
		return nil, fmt.Errorf("%w: sections end at %d, directory starts at %d", ErrCorrupt, expectOff, dirOff)
	}

	return &DeltaV2Reader{
		r: r,
		meta: DeltaV2Meta{
			Variable:    hdr.Variable,
			Iteration:   hdr.Iteration,
			N:           hdr.N,
			Opt:         opt,
			BinRatios:   bins,
			ChunkPoints: hdr.ChunkPoints,
			ChunkCount:  hdr.ChunkCount,
		},
		dir: dir,
	}, nil
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
func (d *DeltaV2Reader) Meta() DeltaV2Meta { return d.meta }

// ChunkSpan returns the half-open point range [start, start+np) covered
// by chunk i.
func (d *DeltaV2Reader) ChunkSpan(i int) (start, np int) {
	return i * d.meta.ChunkPoints, chunkPointsAt(d.meta.N, d.meta.ChunkPoints, i)
}

// ChunkPayload is the parsed section of one chunk.
type ChunkPayload struct {
	Indices        []uint32
	Incompressible *bitpack.Bitmap
	Exact          []float64
}

// ReadChunk reads, CRC-checks, and parses chunk i's section. CRC or
// structure failures come back as a *ChunkError naming the chunk and
// its byte offset, so corruption is localized instead of condemning
// the whole file. The returned payload is freshly allocated; hot loops
// should hold a ChunkDecoder instead and reuse its scratch.
func (d *DeltaV2Reader) ReadChunk(i int) (*ChunkPayload, error) {
	p, err := d.NewChunkDecoder().ReadChunk(i)
	if err != nil {
		return nil, err
	}
	// Detach from the (about to be garbage) decoder scratch so the
	// payload is safe to retain.
	out := *p
	return &out, nil
}

// DecodeChunkInto reconstructs chunk i into dst given the previous
// iteration's values for the same point range. len(prev) and len(dst)
// must both equal the chunk's point count.
func (d *DeltaV2Reader) DecodeChunkInto(i int, prev, dst []float64) error {
	return d.NewChunkDecoder().DecodeChunkInto(i, prev, dst)
}

// ChunkDecoder reads and decodes chunks of one DeltaV2Reader through
// reusable scratch buffers (section bytes, unpacked indices, the
// incompressible bitmap, exact values), so a steady-state decode loop
// allocates nothing per chunk. Each worker of a parallel decode owns
// one; a decoder is not safe for concurrent use. Payloads returned by
// ReadChunk alias the scratch and are valid only until the next call.
type ChunkDecoder struct {
	d       *DeltaV2Reader
	section []byte
	indices []uint32
	bitmap  bitpack.Bitmap
	exact   []float64
	payload ChunkPayload
}

// NewChunkDecoder returns a decoder with empty scratch; buffers grow to
// one chunk's size on first use and are reused after that.
func (d *DeltaV2Reader) NewChunkDecoder() *ChunkDecoder {
	return &ChunkDecoder{d: d}
}

// ReadChunk is DeltaV2Reader.ReadChunk through the decoder's scratch.
// The payload aliases that scratch: it is invalidated by the next
// ReadChunk or DecodeChunkInto call on this decoder.
func (c *ChunkDecoder) ReadChunk(i int) (*ChunkPayload, error) {
	d := c.d
	if i < 0 || i >= len(d.dir) {
		return nil, fmt.Errorf("checkpoint: chunk %d out of range [0,%d)", i, len(d.dir))
	}
	ent := d.dir[i]
	_, np := d.ChunkSpan(i)
	if cap(c.section) < int(ent.length) {
		c.section = make([]byte, ent.length)
	}
	section := c.section[:ent.length]
	t := d.rec.Start()
	_, rerr := d.r.ReadAt(section, ent.off)
	t.Stop(obs.StageRead)
	if rerr != nil {
		return nil, chunkErr(i, ent.off, "read section: %v", rerr)
	}
	d.rec.Add(obs.CounterBytesRead, int64(len(section)))
	d.rec.Add(obs.CounterSectionBytes, int64(len(section)))
	t = d.rec.Start()
	crc := crc32.ChecksumIEEE(section)
	t.Stop(obs.StageCRC)
	if crc != ent.crc {
		return nil, chunkErr(i, ent.off, "section CRC %08x, directory says %08x", crc, ent.crc)
	}
	idxBytes := bitpack.PackedLen(np, d.meta.Opt.IndexBits)
	mapBytes := (np + 7) / 8
	t = d.rec.Start()
	indices, err := bitpack.UnpackInto(section[:idxBytes], np, d.meta.Opt.IndexBits, c.indices)
	t.Stop(obs.StageBitpack)
	if err != nil {
		return nil, chunkErr(i, ent.off, "%v", err)
	}
	c.indices = indices
	if err := c.bitmap.LoadBytes(section[idxBytes:idxBytes+mapBytes], np); err != nil {
		return nil, chunkErr(i, ent.off, "%v", err)
	}
	c.exact = readFloatsInto(section[idxBytes+mapBytes:], int(ent.exactCount), c.exact)
	if c.bitmap.Count() != int(ent.exactCount) {
		return nil, chunkErr(i, ent.off, "bitmap flags %d points, %d exact values stored", c.bitmap.Count(), ent.exactCount)
	}
	for j, idx := range indices {
		if int(idx) > len(d.meta.BinRatios) {
			return nil, chunkErr(i, ent.off, "index %d at point %d exceeds bin count %d", idx, j, len(d.meta.BinRatios))
		}
	}
	c.payload = ChunkPayload{Indices: indices, Incompressible: &c.bitmap, Exact: c.exact}
	return &c.payload, nil
}

// DecodeChunkInto is DeltaV2Reader.DecodeChunkInto through the
// decoder's scratch: reconstructs chunk i into dst given the previous
// iteration's values for the same point range. len(prev) and len(dst)
// must both equal the chunk's point count.
func (c *ChunkDecoder) DecodeChunkInto(i int, prev, dst []float64) error {
	d := c.d
	_, np := d.ChunkSpan(i)
	if len(prev) != np || len(dst) != np {
		return fmt.Errorf("checkpoint: chunk %d has %d points, got prev=%d dst=%d", i, np, len(prev), len(dst))
	}
	p, err := c.ReadChunk(i)
	if err != nil {
		return err
	}
	t := d.rec.Start()
	exactIdx := 0
	for j := 0; j < np; j++ {
		if p.Incompressible.Get(j) {
			dst[j] = p.Exact[exactIdx]
			exactIdx++
			continue
		}
		idx := p.Indices[j]
		if idx == 0 {
			dst[j] = prev[j] // unchanged within tolerance
			continue
		}
		dst[j] = prev[j] * (1 + d.meta.BinRatios[idx-1])
	}
	t.Stop(obs.StageDecode)
	d.rec.Add(obs.CounterChunksDecoded, 1)
	return nil
}

// decodeChunks decodes every chunk of the file from prev into out on
// up to `workers` goroutines (<= 0 means GOMAXPROCS; never more than
// there are chunks) and returns each chunk's error, by chunk index,
// with the worker count it ran on. Worker w takes chunks w, w+workers,
// … through one ChunkDecoder of its own, so goroutines and scratch are
// bounded by the worker count however many chunks the file claims, and
// the steady state allocates nothing. Chunks decode fully independently
// off the directory and write disjoint ranges of out, so completion
// order does not matter and the WaitGroup is the only synchronization.
// A failed chunk leaves its range of out untouched.
func (d *DeltaV2Reader) decodeChunks(prev, out []float64, workers int) ([]error, int) {
	m := d.meta.ChunkCount
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > m {
		workers = m
	}
	errs := make([]error, m)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			dec := d.NewChunkDecoder()
			for i := w; i < m; i += workers {
				start, np := d.ChunkSpan(i)
				errs[i] = dec.DecodeChunkInto(i, prev[start:start+np], out[start:start+np])
			}
		}()
	}
	wg.Wait()
	return errs, workers
}

// Decode reconstructs all points from prev, fanning chunks out over up
// to `workers` goroutines (<= 0 means GOMAXPROCS). The first bad chunk,
// in chunk order, fails the whole decode.
func (d *DeltaV2Reader) Decode(prev []float64, workers int) ([]float64, error) {
	if len(prev) != d.meta.N {
		return nil, fmt.Errorf("%w: prev has %d points, encoded has %d", core.ErrLength, len(prev), d.meta.N)
	}
	out := make([]float64, d.meta.N)
	errs, workers := d.decodeChunks(prev, out, workers)
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	d.rec.Add(obs.CounterDecodes, 1)
	d.rec.Add(obs.CounterPointsDecoded, int64(d.meta.N))
	d.rec.SetMax(obs.GaugeWorkers, int64(workers))
	return out, nil
}

// DecodeRange reconstructs only the points [lo, hi), reading just the
// chunks that overlap it — the cheap partial reconstruction the chunked
// layout exists for. prevRange holds the previous iteration's values
// for exactly that range.
func (d *DeltaV2Reader) DecodeRange(prevRange []float64, lo, hi int) ([]float64, error) {
	if lo < 0 || hi > d.meta.N || lo > hi {
		return nil, fmt.Errorf("checkpoint: range [%d,%d) outside [0,%d)", lo, hi, d.meta.N)
	}
	if len(prevRange) != hi-lo {
		return nil, fmt.Errorf("%w: prev range has %d points, want %d", core.ErrLength, len(prevRange), hi-lo)
	}
	out := make([]float64, hi-lo)
	if lo == hi {
		return out, nil
	}
	cp := d.meta.ChunkPoints
	for i := lo / cp; i*cp < hi; i++ {
		start, np := d.ChunkSpan(i)
		p, err := d.ReadChunk(i)
		if err != nil {
			return nil, err
		}
		exactIdx := 0
		for j := 0; j < np; j++ {
			g := start + j // global point index
			inc := p.Incompressible.Get(j)
			if g < lo || g >= hi {
				if inc {
					exactIdx++
				}
				continue
			}
			switch {
			case inc:
				out[g-lo] = p.Exact[exactIdx]
				exactIdx++
			case p.Indices[j] == 0:
				out[g-lo] = prevRange[g-lo]
			default:
				out[g-lo] = prevRange[g-lo] * (1 + d.meta.BinRatios[p.Indices[j]-1])
			}
		}
	}
	return out, nil
}

// Encoded assembles the whole file back into an in-memory core.Encoded
// (the v1-compatible view, used by inspect and the store's restart
// path).
func (d *DeltaV2Reader) Encoded() (*core.Encoded, error) {
	enc := &core.Encoded{
		Opt:            d.meta.Opt,
		N:              d.meta.N,
		BinRatios:      d.meta.BinRatios,
		Indices:        make([]uint32, d.meta.N),
		Incompressible: bitpack.NewBitmap(d.meta.N),
	}
	for i := 0; i < d.meta.ChunkCount; i++ {
		start, np := d.ChunkSpan(i)
		p, err := d.ReadChunk(i)
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

// UnmarshalDeltaV2 parses a v2 delta checkpoint held fully in memory.
func UnmarshalDeltaV2(raw []byte) (variable string, iteration int, enc *core.Encoded, err error) {
	d, err := OpenDeltaV2(bytes.NewReader(raw), int64(len(raw)))
	if err != nil {
		return "", 0, nil, err
	}
	enc, err = d.Encoded()
	if err != nil {
		return "", 0, nil, err
	}
	return d.meta.Variable, d.meta.Iteration, enc, nil
}
