package checkpoint

import (
	"errors"
	"fmt"
	"hash/crc32"
	"path/filepath"

	"numarck/internal/faultfs"
)

// VerifyIssue describes one problem Verify found.
type VerifyIssue struct {
	Variable  string
	Kind      string
	Iteration int
	// Chunk and Offset localize the issue inside a chunked (v2) delta
	// file: the failing chunk index and the byte offset of its section.
	// Chunk is -1 when the issue concerns the whole file.
	Chunk  int
	Offset int64
	Err    error
}

// String renders the issue as one line of the verify report,
// identifying the file by variable/kind/iteration and, when the issue
// is chunk-local, the failing chunk and its byte offset.
func (v VerifyIssue) String() string {
	if v.Chunk >= 0 {
		return fmt.Sprintf("%s.%s.%06d: chunk %d at byte offset %d: %v", v.Variable, v.Kind, v.Iteration, v.Chunk, v.Offset, v.Err)
	}
	return fmt.Sprintf("%s.%s.%06d: %v", v.Variable, v.Kind, v.Iteration, v.Err)
}

// newIssue builds a VerifyIssue, lifting the chunk index and byte
// offset out of err when the failure is localized to one chunk of a v2
// file.
func newIssue(variable, kind string, iteration int, err error) VerifyIssue {
	is := VerifyIssue{Variable: variable, Kind: kind, Iteration: iteration, Chunk: -1, Err: err}
	var ce *ChunkError
	if errors.As(err, &ce) {
		is.Chunk = ce.Chunk
		is.Offset = ce.Offset
		is.Err = ce.Err
	}
	return is
}

// Verify deep-checks every committed checkpoint file against the
// writer's in-memory chain: each file is read once and must have its
// journaled length and CRC, parse as the checkpoint it claims to be
// (deltas chunk by chunk, so chunk-local corruption is localized), and
// carry the identity the chain records; a journaled file that is
// missing is an issue. Every delta must chain gap-free from a full
// checkpoint — a delta with no reachable full checkpoint makes its
// iteration unrestorable — and a non-fresh chain index is an issue. It
// returns all issues found (nil means the store is clean).
func (st *Store) Verify() ([]VerifyIssue, error) {
	return verifyChain(st.fs, st.dir, st.chainView()), nil
}

// Verify is the read view's lock-free deep check: (*Store).Verify over
// the current snapshot's chain. It takes no writer lock, repairs
// nothing, and never mutates the store — it can run against a store a
// live writer holds, and on read-only media.
func (rv *ReadView) Verify() ([]VerifyIssue, error) {
	s, err := rv.snapshot()
	if err != nil {
		return nil, err
	}
	return verifyChain(rv.fs, rv.dir, s.chain), nil
}

// verifyChain is the body of both Verify methods, so the writer and the
// read view cannot drift on what a healthy chain means: per variable,
// every file through verifyChainFile, then the chain structure (a delta
// with no preceding full checkpoint, iteration gaps).
func verifyChain(fsys faultfs.FS, dir string, chain *chainView) []VerifyIssue {
	var issues []VerifyIssue
	for _, v := range chain.vars {
		lastFull := -1
		expected := -1
		for _, ce := range chain.files[v] {
			if err := verifyChainFile(fsys, dir, ce); err != nil {
				issues = append(issues, newIssue(v, ce.Kind, ce.Iteration, err))
				continue
			}
			switch {
			case ce.Kind == "full":
				lastFull = ce.Iteration
			case lastFull < 0:
				issues = append(issues, newIssue(v, ce.Kind, ce.Iteration,
					fmt.Errorf("%w: no full checkpoint precedes it", ErrChain)))
			case ce.Iteration != expected:
				// Report the gap and keep scanning from here.
				issues = append(issues, newIssue(v, ce.Kind, ce.Iteration,
					fmt.Errorf("%w: expected iteration %d next", ErrChain, expected)))
			}
			expected = ce.Iteration + 1
		}
	}
	if h := indexHealth(fsys, dir); !h.Fresh {
		issues = append(issues, VerifyIssue{Variable: indexName, Kind: "index", Chunk: -1, Err: h.issueErr()})
	}
	return issues
}

// verifyChainFile deep-checks one committed chain file against its
// journaled record in one read: byte length, a full parse (before the
// whole-file CRC, so that damage inside one chunk is reported as that
// chunk), whole-file CRC, and the header identity.
func verifyChainFile(fsys faultfs.FS, dir string, ce ChainEntry) error {
	path := filepath.Join(dir, ce.Name)
	raw, err := faultfs.ReadFile(fsys, path)
	if err != nil {
		return pathErr("read", path, err)
	}
	if int64(len(raw)) != ce.Len {
		return fmt.Errorf("%w: file is %d bytes, journal recorded %d", ErrTruncated, len(raw), ce.Len)
	}
	kind, v, it, err := parseCheckpoint(raw, true)
	if err != nil {
		return err
	}
	if crc := crc32.ChecksumIEEE(raw); crc != ce.CRC {
		return fmt.Errorf("%w: file CRC %08x, journal recorded %08x", ErrCorrupt, crc, ce.CRC)
	}
	if kind != ce.Kind {
		return fmt.Errorf("%w: file is a %s checkpoint, chain records a %s", ErrCorrupt, kind, ce.Kind)
	}
	return checkIdentity(ErrCorrupt, v, it, ce.Variable, ce.Iteration)
}

// IndexHealth describes the on-disk CHAININDEX's state relative to the
// journal: whether it is present, parses, and is anchored to the
// journal's current length and tail CRC (Fresh). Verify reports a
// non-fresh index as an issue; cmd/numarck surfaces the same fields in
// its verify and inspect reports.
type IndexHealth struct {
	// Present reports whether a CHAININDEX file exists at all.
	Present bool
	// Fresh reports that the index parsed and its journal anchor
	// matches the journal's current state: readers are served from it
	// without falling back to journal replay.
	Fresh bool
	// Seq is the index's publication sequence (0 when absent or
	// unparsable).
	Seq uint64
	// Entries is the number of chain records the index holds.
	Entries int
	// Err is the parse or read failure for a corrupt index, nil
	// otherwise.
	Err error
}

// String renders the health as one line of the verify report.
func (h IndexHealth) String() string {
	switch {
	case !h.Present:
		return "chain index: missing"
	case h.Err != nil:
		return fmt.Sprintf("chain index: corrupt: %v", h.Err)
	case !h.Fresh:
		return fmt.Sprintf("chain index: stale (seq %d, %d entries)", h.Seq, h.Entries)
	default:
		return fmt.Sprintf("chain index: fresh (seq %d, %d entries)", h.Seq, h.Entries)
	}
}

// issueErr is the error a non-fresh index contributes to Verify.
func (h IndexHealth) issueErr() error {
	switch {
	case !h.Present:
		return fmt.Errorf("%w: chain index missing", ErrCorrupt)
	case h.Err != nil:
		return fmt.Errorf("chain index corrupt: %w", h.Err)
	default:
		return fmt.Errorf("%w: chain index stale (seq %d)", ErrCorrupt, h.Seq)
	}
}

// IndexHealth inspects the store's CHAININDEX without modifying it.
func (st *Store) IndexHealth() IndexHealth {
	return indexHealth(st.fs, st.dir)
}

// IndexHealth inspects the store's CHAININDEX without modifying it.
func (rv *ReadView) IndexHealth() IndexHealth {
	return indexHealth(rv.fs, rv.dir)
}

// indexHealth is the shared implementation of the IndexHealth methods.
func indexHealth(fsys faultfs.FS, dir string) IndexHealth {
	var h IndexHealth
	if _, err := fsys.Stat(filepath.Join(dir, indexName)); err != nil {
		return h
	}
	h.Present = true
	ix, err := loadIndex(fsys, dir)
	if err != nil || ix == nil {
		h.Err = err
		return h
	}
	h.Seq = ix.Seq
	h.Entries = len(ix.Entries)
	tok, err := readJournalToken(fsys, dir)
	if err != nil {
		h.Err = err
		return h
	}
	h.Fresh = ix.matches(tok)
	return h
}

// VariableStats summarizes one variable's storage in the store.
type VariableStats struct {
	Variable   string
	Fulls      int
	Deltas     int
	FullBytes  int64
	DeltaBytes int64
	FirstIter  int
	LastIter   int
}

// TotalBytes returns the variable's total on-disk size.
func (s VariableStats) TotalBytes() int64 { return s.FullBytes + s.DeltaBytes }

// Stats returns per-variable storage statistics, sorted by variable
// name. Sizes come from the in-memory chain's journaled lengths — no
// per-file Stat calls.
func (st *Store) Stats() ([]VariableStats, error) {
	return st.chainView().stats(), nil
}

// LatestRestorable returns the highest iteration of a variable that can
// be reconstructed: the end of the unbroken delta chain rooted at the
// latest full checkpoint, computed from the in-memory chain.
// ErrNotFound means no full checkpoint exists.
func (st *Store) LatestRestorable(variable string) (int, error) {
	return st.chainView().latestRestorable(variable)
}

// ErrNothingToGC reports a GC request that would delete everything.
var ErrNothingToGC = errors.New("checkpoint: no full checkpoint to retain")

// GC deletes, for every variable, all checkpoints strictly before the
// last full checkpoint at or before keepFrom, preserving the ability to
// restart at any iteration >= that full. It returns the number of
// files removed. Typical use: after a simulation confirms progress
// beyond iteration i, GC(i) drops the now-unneeded prefix.
func (st *Store) GC(keepFrom int) (removed int, err error) {
	if st.closed {
		return 0, ErrClosed
	}
	view := st.chainView()
	for _, v := range view.vars {
		entries := view.files[v]
		baseFull := -1
		for _, e := range entries {
			if e.Kind == "full" && e.Iteration <= keepFrom {
				baseFull = e.Iteration
			}
		}
		if baseFull < 0 {
			return removed, fmt.Errorf("%w: variable %s has no full checkpoint at or before %d", ErrNothingToGC, v, keepFrom)
		}
		for _, e := range entries {
			if e.Iteration < baseFull {
				name := fileName(v, e.Kind, e.Iteration)
				if err := st.fs.Remove(st.path(v, e.Kind, e.Iteration)); err != nil {
					return removed, pathErr("remove", st.path(v, e.Kind, e.Iteration), err)
				}
				if err := appendJournal(st.fs, st.dir, journalRecord{Op: "drop", Name: name}); err != nil {
					return removed, err
				}
				st.dropChain(name)
				removed++
			}
		}
	}
	if removed > 0 {
		if err := st.fs.SyncDir(st.dir); err != nil {
			return removed, pathErr("sync", st.dir, err)
		}
		// One republish covers the whole batch of drops; readers see the
		// pre-GC chain or the post-GC chain, nothing in between.
		if err := st.republishIndex(); err != nil {
			return removed, err
		}
	}
	return removed, nil
}
