package numarck

import (
	"errors"
	"fmt"
	"io"
	"os"

	"numarck/internal/checkpoint"
	"numarck/internal/chunk"
	"numarck/internal/obs"
	"numarck/internal/rawio"
)

// Source is a re-readable float64 array the streaming codec reads in
// windows; files (OpenRaw) and in-memory slices (SliceSource) satisfy
// it.
type Source = chunk.Source

// SliceSource adapts an in-memory slice to Source.
type SliceSource = chunk.SliceSource

// StreamConfig tunes the streaming pipeline: chunk size, worker count,
// an optional memory budget, and an optional table-input cap. The zero
// value uses defaults.
type StreamConfig = chunk.Config

// StreamResult summarizes a streaming encode.
type StreamResult = chunk.Result

// OpenRaw opens a raw little-endian float64 file as a Source; the
// caller must Close it.
func OpenRaw(path string) (*rawio.FileReader, error) { return rawio.OpenFile(path) }

// StreamEncoder encodes checkpoint transitions out-of-core: the inputs
// are read twice in fixed-size chunks (once to learn the bin table,
// once to assign bins) and the chunked v2 delta format streams out one
// section at a time, so memory stays within Config's budget no matter
// how large the data is. With a default Config the output is
// byte-identical to the in-memory Encode of the same data serialized
// with the same chunking.
type StreamEncoder struct {
	// Opt is the encode options (error bound, index bits, strategy).
	Opt Options
	// Config tunes chunking, parallelism, and memory.
	Config StreamConfig
	// Recorder, when non-nil, receives per-stage timings (ratio, table
	// learning, assignment, bitpack, CRC, IO, queue wait) and
	// chunk/byte counters from the whole streaming pipeline. Nil keeps
	// instrumentation a no-op.
	Recorder *Recorder
}

// Encode streams the encode of prev → cur as a chunked v2 delta file
// to w.
func (e StreamEncoder) Encode(w io.Writer, variable string, iteration int, prev, cur Source) (*StreamResult, error) {
	cfg := e.Config
	if e.Recorder != nil {
		cfg.Obs = e.Recorder
	}
	return chunk.EncodeDeltaV2(w, variable, iteration, prev, cur, e.Opt, cfg)
}

// EncodeFiles streams the encode of the transition between two raw
// float64 files into a v2 delta file at dstPath.
func (e StreamEncoder) EncodeFiles(dstPath, variable string, iteration int, prevPath, curPath string) (*StreamResult, error) {
	prev, err := rawio.OpenFile(prevPath)
	if err != nil {
		return nil, err
	}
	//lint:ignore errcheck read-only source; a close error cannot lose data
	defer prev.Close()
	cur, err := rawio.OpenFile(curPath)
	if err != nil {
		return nil, err
	}
	//lint:ignore errcheck read-only source; a close error cannot lose data
	defer cur.Close()
	dst, err := os.Create(dstPath)
	if err != nil {
		return nil, err
	}
	res, err := e.Encode(dst, variable, iteration, prev, cur)
	if cerr := dst.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	return res, nil
}

// StreamDecoder reconstructs checkpoints from delta files without
// materializing the whole array: chunks are decoded concurrently and
// delivered in point order. It reads both delta formats; a v1 file is
// one chunk, read whole.
type StreamDecoder struct {
	// Config bounds the decode parallelism (Workers); chunk size is
	// fixed by the file.
	Config StreamConfig
	// Recorder, when non-nil, receives per-stage decode timings
	// (section reads, CRC checks, index unpacking, reconstruction) and
	// chunk/byte counters. Nil keeps instrumentation a no-op.
	Recorder *Recorder
}

// Decode reads a delta from r (size bytes long), reconstructs it on
// top of prev, and passes each chunk's values to emit in point order.
// emit must copy anything it keeps.
func (d StreamDecoder) Decode(r io.ReaderAt, size int64, prev Source, emit func(vals []float64) error) error {
	dr, err := checkpoint.OpenDelta(r, size)
	if err != nil {
		return err
	}
	cfg := d.Config
	if d.Recorder != nil {
		cfg.Obs = d.Recorder
	}
	return chunk.DecodeDeltaV2(dr, prev, cfg, emit)
}

// DecodeRecover is Decode in degraded mode: a chunk whose section
// fails its CRC or structure check is quarantined — its point range is
// emitted with prev's values instead of decoded ones, nothing from the
// bad section is used — while every healthy chunk decodes normally.
// Chunks are processed sequentially in point order. The returned
// *PartialDataError is nil when the file was fully healthy; otherwise
// it carries per-chunk statuses and the exact lost index ranges.
// Failures that are not chunk-local (an unreadable header, a length
// mismatch with prev) fail the whole decode as in Decode.
func (d StreamDecoder) DecodeRecover(r io.ReaderAt, size int64, prev Source, emit func(vals []float64) error) (*PartialDataError, error) {
	dr, err := checkpoint.OpenDelta(r, size)
	if err != nil {
		return nil, err
	}
	if d.Recorder != nil {
		dr.SetRecorder(d.Recorder)
	}
	meta := dr.Meta()
	if prev.Len() != meta.N {
		return nil, fmt.Errorf("numarck: prev has %d points, checkpoint has %d", prev.Len(), meta.N)
	}
	var (
		statuses []ChunkStatus
		lost     []Range
		dec      = dr.NewChunkDecoder()
		pbuf     = make([]float64, min(meta.ChunkPoints, meta.N))
		dbuf     = make([]float64, min(meta.ChunkPoints, meta.N))
	)
	for i := 0; i < meta.ChunkCount; i++ {
		start, np := dr.ChunkSpan(i)
		pw, dw := pbuf[:np], dbuf[:np]
		if err := prev.ReadFloats(pw, start); err != nil {
			return nil, err
		}
		cerr := dec.DecodeChunkInto(i, pw, dw)
		if cerr != nil {
			var ce *checkpoint.ChunkError
			if !errors.As(cerr, &ce) {
				return nil, cerr
			}
			copy(dw, pw)
			lost = append(lost, Range{Lo: start, Hi: start + np})
		}
		statuses = append(statuses, ChunkStatus{Chunk: i, Start: start, Points: np, Err: cerr})
		if err := emit(dw); err != nil {
			return nil, err
		}
	}
	if len(lost) == 0 {
		return nil, nil
	}
	if d.Recorder != nil {
		d.Recorder.Add(obs.CounterChunksQuarantined, int64(len(lost)))
	}
	return &PartialDataError{
		Variable:  meta.Variable,
		Iteration: meta.Iteration,
		Chunks:    statuses,
		Lost:      lost,
	}, nil
}

// DecodeFiles reconstructs deltaPath on top of the raw float64 file at
// prevPath, writing the result to outPath, and returns the number of
// points written.
func (d StreamDecoder) DecodeFiles(deltaPath, prevPath, outPath string) (int, error) {
	df, err := os.Open(deltaPath)
	if err != nil {
		return 0, err
	}
	//lint:ignore errcheck read-only source; a close error cannot lose data
	defer df.Close()
	info, err := df.Stat()
	if err != nil {
		return 0, err
	}
	prev, err := rawio.OpenFile(prevPath)
	if err != nil {
		return 0, err
	}
	//lint:ignore errcheck read-only source; a close error cannot lose data
	defer prev.Close()
	out, err := os.Create(outPath)
	if err != nil {
		return 0, err
	}
	w := rawio.NewWriter(out)
	err = d.Decode(df, info.Size(), prev, func(vals []float64) error {
		return w.WriteFloats(vals)
	})
	if cerr := out.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return 0, err
	}
	if w.Count() != prev.Len() {
		return w.Count(), fmt.Errorf("numarck: decoded %d points, prev has %d", w.Count(), prev.Len())
	}
	return w.Count(), nil
}
