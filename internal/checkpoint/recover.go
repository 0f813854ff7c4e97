package checkpoint

import (
	"fmt"
	"strings"

	"numarck/internal/obs"
)

// RecoverOptions selects how chunk-local corruption in a delta is
// handled during decode. The zero value is fail-closed: the first bad
// chunk fails the whole decode. (A v1 file has no chunk-local
// corruption: its one CRC fails the open, in either mode.)
type RecoverOptions struct {
	// Salvage decodes every healthy chunk, fills the points of bad
	// chunks with the previous iteration's values (never with bytes
	// from a chunk whose CRC or structure check failed), and reports
	// the damage through a *PartialDataError instead of failing.
	Salvage bool
	// Obs receives recovery counters (chunks_quarantined). Nil is the
	// no-op state.
	Obs *obs.Recorder
}

// ChunkStatus is one chunk's outcome in a salvage decode.
type ChunkStatus struct {
	// Chunk is the chunk index.
	Chunk int
	// Start and Points delimit the chunk's half-open point range
	// [Start, Start+Points).
	Start, Points int
	// Err is nil for a healthy chunk; otherwise the chunk-local
	// failure (CRC mismatch, truncated section, structural violation).
	Err error
}

// Range is a half-open index interval [Lo, Hi).
type Range struct {
	Lo, Hi int
}

// String renders the range in interval notation.
func (r Range) String() string { return fmt.Sprintf("[%d,%d)", r.Lo, r.Hi) }

// PartialDataError reports a degraded-mode decode that salvaged only
// part of the data: which chunks failed, and exactly which point
// indices hold stale (previous-iteration) values instead of decoded
// ones. It wraps ErrCorrupt, so errors.Is(err, ErrCorrupt) matches.
type PartialDataError struct {
	// Variable and Iteration identify the damaged checkpoint (the last
	// damaged one, when a restart chain accumulated losses).
	Variable  string
	Iteration int
	// Chunks holds the per-chunk status of every chunk of that
	// checkpoint, healthy and failed, in chunk order.
	Chunks []ChunkStatus
	// Lost is the merged, sorted set of point ranges whose values were
	// not recovered anywhere in the operation.
	Lost []Range
}

// Error summarizes the damage: failed chunk count and lost ranges.
func (e *PartialDataError) Error() string {
	failed := 0
	for _, c := range e.Chunks {
		if c.Err != nil {
			failed++
		}
	}
	ranges := make([]string, len(e.Lost))
	for i, r := range e.Lost {
		ranges[i] = r.String()
	}
	return fmt.Sprintf("checkpoint: partial data for %s@%d: %d bad chunk(s), lost points %s",
		e.Variable, e.Iteration, failed, strings.Join(ranges, " "))
}

// Unwrap marks the error as corruption for errors.Is.
func (e *PartialDataError) Unwrap() error { return ErrCorrupt }

// LostPoints returns the total number of unrecovered points.
func (e *PartialDataError) LostPoints() int {
	n := 0
	for _, r := range e.Lost {
		n += r.Hi - r.Lo
	}
	return n
}

// mergeRanges folds r into sorted, disjoint, coalesced ranges.
func mergeRanges(ranges []Range) []Range {
	if len(ranges) < 2 {
		return ranges
	}
	sorted := append([]Range(nil), ranges...)
	for i := 1; i < len(sorted); i++ {
		for j := i; j > 0 && sorted[j].Lo < sorted[j-1].Lo; j-- {
			sorted[j], sorted[j-1] = sorted[j-1], sorted[j]
		}
	}
	out := sorted[:1]
	for _, r := range sorted[1:] {
		if last := &out[len(out)-1]; r.Lo <= last.Hi {
			if r.Hi > last.Hi {
				last.Hi = r.Hi
			}
		} else {
			out = append(out, r)
		}
	}
	return out
}

// mergePartial accumulates a new delta's damage into the running
// restart-chain report: lost ranges union (a point lost at any
// iteration of the chain is stale in the final state), chunk statuses
// track the most recent damaged checkpoint.
func mergePartial(acc, next *PartialDataError) *PartialDataError {
	if acc == nil {
		return next
	}
	acc.Iteration = next.Iteration
	acc.Chunks = next.Chunks
	acc.Lost = mergeRanges(append(acc.Lost, next.Lost...))
	return acc
}
