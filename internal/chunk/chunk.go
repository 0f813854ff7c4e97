// Package chunk is the out-of-core form of the NUMARCK encode/decode
// pipeline: it runs core's one encode driver (core.EncodeChunks) over
// fixed-size windows read from re-readable sources, under a
// configurable memory budget, and streams the per-chunk results into
// the chunked v2 delta format (checkpoint.DeltaV2Writer), one section
// per chunk in chunk order. Decode runs the chunks of a v2 file on the
// same ring (core.OrderedChunks).
//
// Chunks are processed by a fixed set of workers under a static
// ownership rule — worker w owns ring slot w and the chunks w, w+W,
// w+2W, … — so which buffer a chunk uses and the order results are
// delivered in never depend on goroutine scheduling. A run with fewer
// chunks than workers shares each chunk among the workers instead.
//
// core.Encode runs the same driver over its two slices as one chunk,
// so a streaming encode is byte-identical to the in-memory encode of
// the same data, whatever the Config.
package chunk

import (
	"fmt"
	"runtime"

	"numarck/internal/checkpoint"
	"numarck/internal/core"
	"numarck/internal/obs"
)

// Source is a re-readable float64 array; see core.Source.
type Source = core.Source

// SliceSource adapts an in-memory slice to Source.
type SliceSource = core.SliceSource

// BytesPerPoint is the budget model's estimate of encoder buffer bytes
// per in-flight point: prev and cur windows (8+8), the ratio and its
// kind (8+1), the index (4), the incompressible flag, and the
// worst-case exact value (8). The flag takes one bit of a packed bitmap
// but is counted as a byte: the constant fixes a budgeted plan's chunk
// size, and so the bytes of every file a budgeted encode writes.
const BytesPerPoint = 38

// minChunkPoints is the floor the budget resolver will not shrink
// chunks below; tinier chunks drown the useful work in per-chunk
// overhead.
const minChunkPoints = 256

// ErrBudget reports a memory budget too small to hold even one minimal
// chunk's buffers.
var ErrBudget = fmt.Errorf("chunk: memory budget too small")

// Config tunes the streaming pipeline. The zero value means: default
// chunk size (checkpoint.DefaultChunkPoints), GOMAXPROCS workers, no
// memory budget.
type Config struct {
	// ChunkPoints is the number of points per chunk. Default
	// checkpoint.DefaultChunkPoints.
	ChunkPoints int

	// Workers bounds the goroutines of a run: how many chunks are in
	// flight, or, with fewer chunks than workers, how many share one
	// chunk's ratio and assign stages. It also bounds how many chunks'
	// buffers are live at once. Default GOMAXPROCS.
	Workers int

	// BudgetBytes caps the encoder's chunk buffer memory. When set,
	// Workers and then ChunkPoints are shrunk until
	// Workers*ChunkPoints*BytesPerPoint fits; if even one minimal chunk
	// does not fit, Encode fails with ErrBudget. 0 means no cap. The
	// table-learning input — the ratios outside the zero bin, 8 bytes
	// each — is gathered whole, as the in-memory encode does, and is not
	// part of the budget; nor is the fit's scratch, which is O(Workers):
	// the clustering fit keeps one histogram sketch per worker and one
	// it merges them into, whatever the input size. A run's buffers come
	// from a pool shared with earlier runs, but a run drops every pooled
	// buffer larger than its own plan allocates, so the cap holds for a
	// warm run as for a cold one.
	BudgetBytes int64

	// Obs, when non-nil, receives the pipeline's per-chunk stage
	// timings (read, ratio, assign, decode), worker queue-wait times,
	// and chunk/byte counters. It is also handed down to the checkpoint
	// writer or reader of the run, so one recorder sees the whole
	// streaming path. Nil keeps instrumentation a no-op.
	Obs *obs.Recorder
}

// resolve validates cfg, fills defaults, and applies the budget.
func (cfg Config) resolve() (Config, error) {
	if cfg.ChunkPoints < 0 || cfg.Workers < 0 || cfg.BudgetBytes < 0 {
		return cfg, fmt.Errorf("chunk: negative config value %+v", cfg)
	}
	if cfg.ChunkPoints == 0 {
		cfg.ChunkPoints = checkpoint.DefaultChunkPoints
	}
	if cfg.Workers == 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.BudgetBytes > 0 {
		for cfg.Workers > 1 && int64(cfg.Workers)*int64(cfg.ChunkPoints)*BytesPerPoint > cfg.BudgetBytes {
			cfg.Workers--
		}
		for cfg.ChunkPoints > minChunkPoints && int64(cfg.Workers)*int64(cfg.ChunkPoints)*BytesPerPoint > cfg.BudgetBytes {
			cfg.ChunkPoints /= 2
			if cfg.ChunkPoints < minChunkPoints {
				cfg.ChunkPoints = minChunkPoints
			}
		}
		if int64(cfg.Workers)*int64(cfg.ChunkPoints)*BytesPerPoint > cfg.BudgetBytes {
			return cfg, fmt.Errorf("%w: %d bytes cannot hold one %d-point chunk",
				ErrBudget, cfg.BudgetBytes, cfg.ChunkPoints)
		}
	}
	return cfg, nil
}

// Resolved is the effective pipeline plan for a Config: the
// configuration after validation, default filling, and budget
// shrinking — what an encode or decode will actually run with — plus
// the budget model's buffer footprint. It is computable before any
// work starts, which is what admission control (the numarckd memory
// governor) and CLI plan reporting need: the real cost of a request,
// known up front.
type Resolved struct {
	// Config is the resolved configuration: ChunkPoints and Workers
	// are concrete (never 0), and both have been shrunk to fit
	// BudgetBytes when one was set.
	Config Config
	// PeakBufferBytes is the budget model's buffer footprint for the
	// resolved shape: Workers*ChunkPoints*BytesPerPoint. It is
	// <= Config.BudgetBytes when a budget was set.
	PeakBufferBytes int64
}

// ResolveConfig reports the effective pipeline plan for cfg without
// running anything: the same validation, default filling, and budget
// shrinking Encode and Decode perform, exposed so callers can size
// admission decisions or print the real plan before work starts. The
// error is ErrBudget (via errors.Is) when the budget cannot hold even
// one minimal chunk.
func ResolveConfig(cfg Config) (Resolved, error) {
	rc, err := cfg.resolve()
	if err != nil {
		return Resolved{}, err
	}
	return Resolved{Config: rc, PeakBufferBytes: rc.peakBufferBytes()}, nil
}

// peakBufferBytes is the budget model's buffer footprint for the
// resolved config: all in-flight chunk buffer sets.
func (cfg Config) peakBufferBytes() int64 {
	return int64(cfg.Workers) * int64(cfg.ChunkPoints) * BytesPerPoint
}

// Result summarizes a streaming encode.
type Result struct {
	// N, ChunkPoints, ChunkCount, Workers are the resolved shape of
	// the run.
	N           int
	ChunkPoints int
	ChunkCount  int
	Workers     int
	// BinRatios is the learned table.
	BinRatios []float64
	// ExactCount is the number of incompressible points stored raw.
	ExactCount int
	// TableInputTotal counts the ratios the table stage learned from.
	TableInputTotal int64
	// PeakBufferBytes is the budget model's buffer footprint (see
	// Config.BudgetBytes); it is <= BudgetBytes when one was set.
	PeakBufferBytes int64
}
