// Package numarck is the public API of a from-scratch Go implementation
// of NUMARCK — the Northwestern University Machine-learning Algorithm
// for Resiliency and ChecKpointing (Chen et al., SC 2014): error-bounded
// lossy compression of iterative scientific checkpoint data.
//
// NUMARCK compresses the transition between two consecutive checkpoints
// instead of the raw values: it computes each point's relative change
// ratio, learns the distribution of those ratios with one of three
// strategies (equal-width binning, log-scale binning, or k-means
// clustering seeded from the equal-width histogram), and stores a B-bit
// bin index per point. Any point whose bin representative misses its
// true ratio by more than the user error bound E is stored exactly, so
// the bound holds point-wise by construction.
//
// Basic usage:
//
//	enc, err := numarck.Encode(prev, cur, numarck.Options{
//		ErrorBound: 0.001,           // 0.1 %
//		IndexBits:  8,               // 255 bins + reserved zero index
//		Strategy:   numarck.Clustering,
//	})
//	rec, err := enc.Decode(prev)     // every rec[i] within E of cur[i]'s ratio
//
// For chained checkpoint files with restart, use the Store:
//
//	st, err := numarck.CreateStore(dir, opts)
//	w := numarck.NewWriter(st, 10)   // full checkpoint every 10 iterations
//	w.Append(i, map[string][]float64{"dens": data})
//	state, err := st.Restart("dens", 42)
package numarck

import (
	"numarck/internal/checkpoint"
	"numarck/internal/core"
	"numarck/internal/faultfs"
)

// Options configures an encode. See core.Options for field docs.
type Options = core.Options

// Strategy selects the distribution-learning strategy.
type Strategy = core.Strategy

// The three approximation strategies of the paper (§II-C).
const (
	EqualWidth = core.EqualWidth
	LogScale   = core.LogScale
	Clustering = core.Clustering
)

// Strategies lists all strategies in paper order.
var Strategies = core.Strategies

// ParseStrategy converts a string ("equal-width", "log-scale",
// "clustering" and short forms) into a Strategy.
func ParseStrategy(s string) (Strategy, error) { return core.ParseStrategy(s) }

// Encoded is one compressed checkpoint iteration.
type Encoded = core.Encoded

// Encode compresses the transition prev → cur under opt. See
// (*Encoded).Decode for reconstruction and the Gamma/MeanErrorRate/
// MaxErrorRate/CompressionRatio methods for the paper's metrics.
func Encode(prev, cur []float64, opt Options) (*Encoded, error) {
	return core.Encode(prev, cur, opt)
}

// Store is the writer handle of a directory-backed checkpoint store
// with full (lossless) and delta (NUMARCK-encoded) checkpoints and
// chained restart. Exactly one writer exists per store directory,
// enforced by an on-disk lock; release it with (*Store).Close. For
// concurrent read-only access, use OpenReadOnly.
type Store = checkpoint.Store

// ReadView is a lock-free read-only handle on a checkpoint store: it
// serves listings, stats, and restarts from the store's chain index
// without taking the writer lock or mutating anything, so any number of
// ReadViews can run alongside one live writer — even in other
// processes, even on read-only media.
type ReadView = checkpoint.ReadView

// Writer appends simulation iterations to a Store, alternating full and
// delta checkpoints. Deltas are encoded against the Writer's own
// reconstruction of the previous iteration, so every Restart is within
// E·|x̂_{i-1}| of the truth per point at any chain depth.
type Writer = checkpoint.Writer

// CreateStore initializes a checkpoint store in dir and claims its
// writer lock.
func CreateStore(dir string, opt Options) (*Store, error) {
	return checkpoint.Create(dir, opt)
}

// OpenStore opens an existing checkpoint store for writing, claiming
// the store's single-writer lock (a store held by a live writer fails
// fast with an error matching ErrStoreLocked) and running the crash
// recovery scan; its findings are available from (*Store).Recovery.
func OpenStore(dir string) (*Store, error) { return checkpoint.Open(dir) }

// OpenStoreObserved is OpenStore with an instrumentation recorder: the
// recovery scan and any degraded-mode decodes report their counters
// (recovery_scans, torn_files_detected, chunks_quarantined,
// index_rebuilds, lock_takeovers) into rec.
func OpenStoreObserved(dir string, rec *Recorder) (*Store, error) {
	return checkpoint.OpenFS(dir, faultfs.OS(), rec)
}

// OpenReadOnly opens a lock-free read view of an existing store. It
// never takes the writer lock and performs no mutating filesystem
// operation (no recovery scan, no journal repair), so it succeeds while
// a writer holds the store and on read-only media.
func OpenReadOnly(dir string) (*ReadView, error) {
	return checkpoint.OpenReadOnly(dir)
}

// OpenReadOnlyObserved is OpenReadOnly with an instrumentation
// recorder: snapshot refreshes and journal-replay fallbacks report into
// rec (index_rereads, index_rebuilds).
func OpenReadOnlyObserved(dir string, rec *Recorder) (*ReadView, error) {
	return checkpoint.OpenReadOnlyFS(dir, faultfs.OS(), rec)
}

// RecoverOptions selects fail-closed (zero value) or salvage handling
// of chunk-local corruption during decode.
type RecoverOptions = checkpoint.RecoverOptions

// PartialDataError reports a salvage decode that lost data: which
// chunks failed and exactly which point index ranges hold stale values.
type PartialDataError = checkpoint.PartialDataError

// ChunkStatus is one chunk's outcome in a salvage decode.
type ChunkStatus = checkpoint.ChunkStatus

// Range is a half-open point index interval [Lo, Hi).
type Range = checkpoint.Range

// RecoveryReport summarizes what a store's Open-time recovery scan
// found and repaired.
type RecoveryReport = checkpoint.RecoveryReport

// VerifyIssue is one problem found by (*Store).Verify.
type VerifyIssue = checkpoint.VerifyIssue

// ErrStoreCorrupt matches any checkpoint corruption error, including
// *PartialDataError, via errors.Is.
var ErrStoreCorrupt = checkpoint.ErrCorrupt

// ErrStoreTruncated matches errors caused by a truncated (torn)
// checkpoint file, a quarantine candidate, via errors.Is.
var ErrStoreTruncated = checkpoint.ErrTruncated

// ErrStoreLocked matches, via errors.Is, a writer open of a store whose
// lock is held by a live writer; the concrete error is a
// *LockHeldError identifying the holder.
var ErrStoreLocked = checkpoint.ErrLocked

// LockHeldError identifies the process holding a store's writer lock.
type LockHeldError = checkpoint.LockHeldError

// ErrBadVariable matches, via errors.Is, rejected caller input: a
// variable name that could escape the store directory or exceed the
// name length limit, an out-of-range iteration number, or raw
// checkpoint bytes that do not parse or name another identity.
var ErrBadVariable = checkpoint.ErrBadVariable

// IndexHealth describes a store's chain-index state (present, fresh,
// publication sequence), as reported by (*Store).IndexHealth and
// (*ReadView).IndexHealth.
type IndexHealth = checkpoint.IndexHealth

// NewWriter wraps a store for sequential appending; fullEvery is the
// full-checkpoint period (<= 0 means only the first write is full).
func NewWriter(st *Store, fullEvery int) *Writer {
	return checkpoint.NewWriter(st, fullEvery)
}
