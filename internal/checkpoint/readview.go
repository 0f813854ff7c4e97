package checkpoint

import (
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"io/fs"
	"path/filepath"
	"slices"
	"sync/atomic"

	"numarck/internal/core"
	"numarck/internal/faultfs"
	"numarck/internal/obs"
)

// ReadView is a lock-free read-only handle on a checkpoint store. It
// never touches the writer lock, never appends to the journal, never
// moves or removes a file — it performs no mutating filesystem
// operation at all, so it works on read-only media and can coexist with
// a live writer in this or another process without ever blocking it.
//
// Reads are served from an immutable snapshot of the CHAININDEX,
// validated seqlock-style against the journal: every operation first
// checks that the journal's length and tail CRC still match the
// snapshot's anchor (two O(1) filesystem reads), and on a mismatch
// rereads the index — retrying if the writer republishes mid-read —
// before serving. A snapshot is therefore always one consistent
// published chain state, never a mix of two; at worst it is one commit
// behind a writer that is mid-publish. If the index is missing, stale,
// or corrupt (CRC/version check), the view falls back to an in-memory
// replay of the journal: slower, still read-only, never wrong.
//
// A ReadView is safe for concurrent use by any number of goroutines.
type ReadView struct {
	dir string
	fs  faultfs.FS
	rec *obs.Recorder
	opt core.Options
	// snap caches the last validated snapshot; readers swap it with
	// atomic pointer operations, so no reader ever blocks another.
	snap atomic.Pointer[readSnapshot]
}

// readSnapshot is one immutable view of the store's chain. All fields
// are write-once; readers share snapshots freely.
type readSnapshot struct {
	// seq is the index publication sequence (0 for a journal-replay
	// fallback snapshot).
	seq uint64
	// tok anchors the snapshot to the journal state it reflects.
	tok journalToken
	// chain is the live file set, per variable.
	chain *chainView
}

// maxRereadRaces bounds how many consecutive index republications a
// single snapshot refresh will chase before erroring out; each race
// requires the writer to have published again between two reads, so in
// practice one retry suffices.
const maxRereadRaces = 4

// OpenReadOnly opens a lock-free read view of the store on the real
// filesystem. Unlike Open it acquires no lock, mutates nothing (no
// recovery scan, no journal compaction), and succeeds while a writer
// holds the store.
func OpenReadOnly(dir string) (*ReadView, error) {
	return OpenReadOnlyFS(dir, faultfs.OS(), nil)
}

// OpenReadOnlyFS is OpenReadOnly on an explicit filesystem with an
// optional instrumentation recorder: seqlock snapshot rereads (not the
// view's first snapshot) count into index_rereads and journal-replay
// fallbacks into index_rebuilds. Nil rec keeps instrumentation a
// no-op.
func OpenReadOnlyFS(dir string, fsys faultfs.FS, rec *obs.Recorder) (*ReadView, error) {
	opt, err := readManifest(fsys, dir)
	if err != nil {
		return nil, err
	}
	rv := &ReadView{dir: dir, fs: fsys, rec: rec, opt: opt}
	// Take the first snapshot eagerly so a broken store fails at Open,
	// not on the first read.
	if _, err := rv.snapshot(); err != nil {
		return nil, err
	}
	return rv, nil
}

// Options returns the store's encoding options.
func (rv *ReadView) Options() core.Options { return rv.opt }

// Dir returns the store directory.
func (rv *ReadView) Dir() string { return rv.dir }

// snapshot returns a chain snapshot consistent with the journal's
// current state: the cached one if its anchor still matches, otherwise
// a fresh read of the index (seqlock reread), otherwise an in-memory
// journal replay. It never performs a mutating filesystem operation.
func (rv *ReadView) snapshot() (*readSnapshot, error) {
	tok, err := readJournalToken(rv.fs, rv.dir)
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			// A store without a journal predates the journaled layout; a
			// read-only view cannot adopt it (adoption writes).
			return nil, fmt.Errorf("%w: store at %s has no journal; open it with a writer once to adopt the legacy layout", ErrNotFound, rv.dir)
		}
		return nil, err
	}
	cached := rv.snap.Load()
	if cached != nil && cached.tok == tok {
		return cached, nil
	}
	for race := 0; race < maxRereadRaces; race++ {
		ix, ierr := loadIndex(rv.fs, rv.dir)
		if ierr == nil && ix != nil && ix.matches(tok) {
			s := &readSnapshot{seq: ix.Seq, tok: tok, chain: viewOfIndex(ix)}
			rv.snap.Store(s)
			// The counter measures seqlock rereads — a cached snapshot
			// invalidated under the reader, or a republication chased
			// mid-load — not the view's mandatory first snapshot.
			if cached != nil || race > 0 {
				rv.rec.Add(obs.CounterIndexRereads, 1)
			}
			return s, nil
		}
		// The index did not match the token we read. Either the writer
		// published a commit between our two reads (token moved: chase
		// it), or the index is genuinely absent/stale/corrupt (token
		// stable: fall back to the journal).
		tok2, terr := readJournalToken(rv.fs, rv.dir)
		if terr != nil {
			return nil, terr
		}
		if tok2 == tok {
			return rv.replayFallback(tok)
		}
		tok = tok2
	}
	return nil, fmt.Errorf("checkpoint: read view of %s lost %d index races in a row", rv.dir, maxRereadRaces)
}

// replayFallback builds a snapshot by replaying the journal in memory.
// Unlike the writer's recovery scan it repairs nothing — a torn tail is
// simply ignored, exactly as replay does — so it stays legal on
// read-only media.
func (rv *ReadView) replayFallback(tok journalToken) (*readSnapshot, error) {
	entries, exists, _, err := replayJournal(rv.fs, rv.dir)
	if err != nil {
		return nil, err
	}
	if !exists {
		return nil, fmt.Errorf("%w: store at %s has no journal; open it with a writer once to adopt the legacy layout", ErrNotFound, rv.dir)
	}
	s := &readSnapshot{seq: 0, tok: tok, chain: viewOfChain(entries)}
	rv.snap.Store(s)
	rv.rec.Add(obs.CounterIndexRebuilds, 1)
	return s, nil
}

// IndexSeq returns the publication sequence of the snapshot backing the
// last read (0 when that snapshot came from the journal-replay
// fallback). It does not refresh.
func (rv *ReadView) IndexSeq() uint64 {
	if s := rv.snap.Load(); s != nil {
		return s.seq
	}
	return 0
}

// List returns all entries for a variable, sorted by iteration.
func (rv *ReadView) List(variable string) ([]Entry, error) {
	s, err := rv.snapshot()
	if err != nil {
		return nil, err
	}
	return s.chain.list(variable), nil
}

// Chain returns one variable's committed files with their journaled
// byte lengths and CRCs, sorted by iteration. It is List with the
// per-file accounting attached: chain-level tooling can report or
// cross-check sizes without stat'ing the store directory.
func (rv *ReadView) Chain(variable string) ([]ChainEntry, error) {
	s, err := rv.snapshot()
	if err != nil {
		return nil, err
	}
	return slices.Clone(s.chain.files[variable]), nil
}

// Variables returns the distinct variable names present in the store.
func (rv *ReadView) Variables() ([]string, error) {
	s, err := rv.snapshot()
	if err != nil {
		return nil, err
	}
	return slices.Clone(s.chain.vars), nil
}

// Stats returns per-variable storage statistics, sorted by variable
// name, computed from the snapshot's journaled lengths — no per-file
// Stat calls.
func (rv *ReadView) Stats() ([]VariableStats, error) {
	s, err := rv.snapshot()
	if err != nil {
		return nil, err
	}
	return s.chain.stats(), nil
}

// LatestRestorable returns the highest iteration of a variable that can
// be reconstructed: the end of the unbroken delta chain rooted at the
// latest full checkpoint. ErrNotFound means no full checkpoint exists.
func (rv *ReadView) LatestRestorable(variable string) (int, error) {
	s, err := rv.snapshot()
	if err != nil {
		return 0, err
	}
	return s.chain.latestRestorable(variable)
}

// Restart reconstructs a variable at the requested iteration from the
// snapshot's chain. If a file named by the snapshot has vanished (the
// writer removed it after we snapshotted, e.g. a concurrent GC), the
// view refreshes once and retries before reporting the error.
func (rv *ReadView) Restart(variable string, iteration int) ([]float64, error) {
	data, _, err := rv.restart(variable, iteration, RecoverOptions{Obs: rv.rec})
	return data, err
}

// RestartSalvage is Restart in degraded mode, with the same semantics
// as Store.RestartSalvage.
func (rv *ReadView) RestartSalvage(variable string, iteration int) ([]float64, *PartialDataError, error) {
	return rv.restart(variable, iteration, RecoverOptions{Salvage: true, Obs: rv.rec})
}

func (rv *ReadView) restart(variable string, iteration int, ropt RecoverOptions) ([]float64, *PartialDataError, error) {
	s, err := rv.snapshot()
	if err != nil {
		return nil, nil, err
	}
	data, partial, rerr := restartEntries(rv.fs, rv.dir, s.chain.files[variable], variable, iteration, ropt)
	if rerr == nil {
		return data, partial, nil
	}
	// A chain entry whose file is gone means the store moved under this
	// snapshot; invalidate it, take a fresh one, and retry once.
	tok, terr := readJournalToken(rv.fs, rv.dir)
	if terr != nil || tok == s.tok {
		return nil, nil, rerr
	}
	s2, err := rv.snapshot()
	if err != nil {
		return nil, nil, err
	}
	return restartEntries(rv.fs, rv.dir, s2.chain.files[variable], variable, iteration, ropt)
}

// copyBufSize is the one buffer CopyFile streams a file through: a head
// fetch checks a whole segment without holding any of its files.
const copyBufSize = 32 << 10

// CopyFile streams the committed file ce through the view's filesystem
// into w, in one fixed-size buffer, and fails with ErrCorrupt unless it
// is exactly ce.Len bytes with whole-file CRC-32 ce.CRC — the journal's
// record of what was committed. w sees the bytes before that verdict: a
// caller that must pass on only committed bytes buffers them. A missing
// or unreadable file is the filesystem's error (fs.ErrNotExist for a
// missing one), never ErrNotFound: the chain names the file.
func (rv *ReadView) CopyFile(w io.Writer, ce ChainEntry) error {
	path := filepath.Join(rv.dir, ce.Name)
	f, err := rv.fs.Open(path)
	if err != nil {
		return pathErr("open", path, err)
	}
	//lint:ignore errcheck read-only handle; a close error cannot lose data
	defer f.Close()
	// takeFileBuf sizes for a file and the read past its end: one byte
	// less than copyBufSize gets a buffer of exactly copyBufSize.
	b := takeFileBuf(copyBufSize - 1)
	defer putFileBuf(b)
	buf := (*b)[:cap(*b)]
	var n int64
	var crc uint32
	for {
		m, rerr := f.Read(buf)
		crc = crc32.Update(crc, crc32.IEEETable, buf[:m])
		n += int64(m)
		if _, err := w.Write(buf[:m]); err != nil {
			return err
		}
		if rerr == io.EOF {
			break
		}
		if rerr != nil {
			return pathErr("read", path, rerr)
		}
	}
	if n != ce.Len || crc != ce.CRC {
		return fmt.Errorf("%w: %s is %d bytes with crc %08x, journal recorded %d with crc %08x",
			ErrCorrupt, ce.Name, n, crc, ce.Len, ce.CRC)
	}
	return nil
}

// CheckFiles is CopyFile of each of files with the bytes dropped: nil
// means every file on disk is, byte for byte, what the journal recorded
// committing under its name. The first file that is not fails it.
func (rv *ReadView) CheckFiles(files []ChainEntry) error {
	for _, ce := range files {
		if err := rv.CopyFile(io.Discard, ce); err != nil {
			return err
		}
	}
	return nil
}
