// Package chunk is the out-of-core form of the NUMARCK encode/decode
// pipeline: it runs the same stages as core.Encode — ratio computation,
// table learning, per-chunk bin assignment — over fixed-size windows
// read from re-readable sources, under a configurable memory budget,
// and streams the per-chunk results into the chunked v2 delta format
// (checkpoint.DeltaV2Writer), one section per chunk in chunk order.
//
// Chunks are processed by a fixed set of workers under a static
// ownership rule — worker w owns ring slot w and the chunks w, w+W,
// w+2W, … (see orderedChunks) — so which buffer a chunk uses and the
// order results are delivered in never depend on goroutine scheduling.
//
// Because both paths share the stage functions (core.ComputeRatios,
// Ratios.TableInput, core.Fit, core.AssignChunk) and gather their
// outputs in point order, a streaming encode is byte-identical to the
// in-memory encode of the same data — unless the caller opts into a
// bounded table-input reservoir (Config.MaxTableInput), which trades
// that identity for hard-bounded memory while the error bound still
// holds through the incompressible mechanism.
package chunk

import (
	"fmt"
	"runtime"

	"numarck/internal/checkpoint"
	"numarck/internal/obs"
)

// Source is a re-readable float64 array. The encoder reads every window
// twice — once to learn the bin table, once to assign bins — so a
// Source must return the same values on both passes. rawio.Reader (a
// file or any io.ReaderAt) and SliceSource satisfy it.
type Source interface {
	// Len returns the number of values.
	Len() int
	// ReadFloats fills dst with the values at [off, off+len(dst)).
	ReadFloats(dst []float64, off int) error
}

// WindowSource is an optional upgrade of Source: a source that can
// expose the window [off, off+n) as a slice view without copying. The
// pipeline asks for a view before falling back to ReadFloats into its
// own buffer, so an in-memory source pays no per-chunk copies. The
// returned slice must stay valid and unchanged for the life of the
// encode or decode run; ok reports whether a view is available for
// this window (false falls back to ReadFloats).
type WindowSource interface {
	Source
	// Window returns a read-only view of [off, off+n), or ok=false if
	// the source cannot expose this window as a slice.
	Window(off, n int) ([]float64, bool)
}

// SliceSource adapts an in-memory slice to Source.
type SliceSource []float64

// Len returns the number of values.
func (s SliceSource) Len() int { return len(s) }

// ReadFloats copies the window [off, off+len(dst)) into dst.
func (s SliceSource) ReadFloats(dst []float64, off int) error {
	if off < 0 || off+len(dst) > len(s) {
		return fmt.Errorf("chunk: window [%d,%d) outside slice of %d values", off, off+len(dst), len(s))
	}
	copy(dst, s[off:])
	return nil
}

// Window returns the window [off, off+n) as a zero-copy view of the
// slice (full-slice-expression capped, so appends cannot clobber the
// source).
func (s SliceSource) Window(off, n int) ([]float64, bool) {
	if off < 0 || n < 0 || off+n > len(s) {
		return nil, false
	}
	return s[off : off+n : off+n], true
}

// BytesPerPoint is the budget model's estimate of encoder buffer bytes
// per in-flight point: prev and cur windows (8+8), the ratio and its
// kind (8+1), the index (4), the incompressible flag (1), and the
// worst-case exact value (8).
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
// memory budget, unbounded table input.
type Config struct {
	// ChunkPoints is the number of points per chunk. Default
	// checkpoint.DefaultChunkPoints.
	ChunkPoints int

	// Workers bounds how many chunks are processed concurrently, which
	// also bounds how many chunks' buffers are live at once. Default
	// GOMAXPROCS.
	Workers int

	// BudgetBytes caps the encoder's buffer memory. When set, Workers
	// and then ChunkPoints are shrunk until
	// Workers*ChunkPoints*BytesPerPoint (+ 8*MaxTableInput if capped)
	// fits; if even one minimal chunk does not fit, Encode fails with
	// ErrBudget. 0 means no cap.
	BudgetBytes int64

	// MaxTableInput caps how many ratios the table-learning stage sees.
	// 0 (the default) keeps every table-input ratio, which preserves
	// byte-identity with the in-memory path but lets that buffer grow
	// with the data. A positive cap (>= 2) bounds it with a
	// deterministic systematic sample: when full, every other kept
	// sample is dropped and the keep-stride doubles. The error bound
	// still holds — points the thinned table cannot represent are
	// stored exactly — but the learned table, and therefore the bytes,
	// may differ from the in-memory encode.
	MaxTableInput int

	// Obs, when non-nil, receives the pipeline's per-chunk stage
	// timings (read, ratio, assign, decode), worker queue-wait times,
	// and chunk/byte counters. It is also handed down to the checkpoint
	// writer or reader of the run, so one recorder sees the whole
	// streaming path. Nil keeps instrumentation a no-op.
	Obs *obs.Recorder
}

// resolve validates cfg, fills defaults, and applies the budget.
func (cfg Config) resolve() (Config, error) {
	if cfg.ChunkPoints < 0 || cfg.Workers < 0 || cfg.BudgetBytes < 0 || cfg.MaxTableInput < 0 {
		return cfg, fmt.Errorf("chunk: negative config value %+v", cfg)
	}
	if cfg.MaxTableInput == 1 {
		return cfg, fmt.Errorf("chunk: MaxTableInput must be 0 (unbounded) or >= 2")
	}
	if cfg.ChunkPoints == 0 {
		cfg.ChunkPoints = checkpoint.DefaultChunkPoints
	}
	if cfg.Workers == 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.BudgetBytes > 0 {
		avail := cfg.BudgetBytes - 8*int64(cfg.MaxTableInput)
		for cfg.Workers > 1 && int64(cfg.Workers)*int64(cfg.ChunkPoints)*BytesPerPoint > avail {
			cfg.Workers--
		}
		for cfg.ChunkPoints > minChunkPoints && int64(cfg.Workers)*int64(cfg.ChunkPoints)*BytesPerPoint > avail {
			cfg.ChunkPoints /= 2
			if cfg.ChunkPoints < minChunkPoints {
				cfg.ChunkPoints = minChunkPoints
			}
		}
		if int64(cfg.Workers)*int64(cfg.ChunkPoints)*BytesPerPoint > avail {
			return cfg, fmt.Errorf("%w: %d bytes cannot hold one %d-point chunk (+%d-entry table cap)",
				ErrBudget, cfg.BudgetBytes, cfg.ChunkPoints, cfg.MaxTableInput)
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
	// resolved shape: Workers*ChunkPoints*BytesPerPoint plus the capped
	// table reservoir. It is <= Config.BudgetBytes when a budget was
	// set.
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
// resolved config: all in-flight chunk buffer sets plus the capped
// table reservoir. With MaxTableInput == 0 the reservoir is excluded —
// it grows with the data and is not bounded by the budget.
func (cfg Config) peakBufferBytes() int64 {
	return int64(cfg.Workers)*int64(cfg.ChunkPoints)*BytesPerPoint + 8*int64(cfg.MaxTableInput)
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
	// TableInputTotal counts the ratios offered to the table stage;
	// TableInputUsed is how many survived the reservoir (equal unless
	// TableThinned).
	TableInputTotal int64
	TableInputUsed  int
	TableThinned    bool
	// PeakBufferBytes is the budget model's buffer footprint (see
	// Config.BudgetBytes); it is <= BudgetBytes when one was set.
	PeakBufferBytes int64
}

// reservoir accumulates table-input ratios in point order. With cap 0
// it keeps everything; with a positive cap it keeps a deterministic
// systematic sample: every stride-th offered value, halving the kept
// set and doubling the stride whenever the cap is hit. The result
// depends only on the offered sequence, not on how it was chunked.
type reservoir struct {
	cap     int
	stride  int
	skip    int
	vals    []float64
	total   int64
	thinned bool
}

func newReservoir(cap int) *reservoir {
	r := &reservoir{cap: cap, stride: 1}
	if cap > 0 {
		r.vals = make([]float64, 0, cap)
	}
	return r
}

func (r *reservoir) add(vs []float64) {
	r.total += int64(len(vs))
	if r.cap <= 0 {
		r.vals = append(r.vals, vs...)
		return
	}
	for _, v := range vs {
		if r.skip == 0 {
			if len(r.vals) == r.cap {
				r.halve()
			}
			r.vals = append(r.vals, v)
		}
		r.skip++
		if r.skip == r.stride {
			r.skip = 0
		}
	}
}

// halve drops every other kept sample in place and doubles the stride.
func (r *reservoir) halve() {
	kept := r.vals[:0]
	for i := 0; i < len(r.vals); i += 2 {
		kept = append(kept, r.vals[i])
	}
	r.vals = kept
	r.stride *= 2
	r.skip = 0
	r.thinned = true
}
