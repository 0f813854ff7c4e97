package checkpoint

import (
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"path/filepath"
	"slices"
	"strconv"
	"strings"

	"numarck/internal/core"
	"numarck/internal/faultfs"
	"numarck/internal/obs"
)

// Store is the writer handle of a directory-backed checkpoint store.
// Files are named <variable>.<kind>.<iteration>.nmk with kind "full" or
// "delta", plus a manifest.json recording the encoding options, a
// MANIFEST journal recording the committed chain (file names, lengths,
// CRCs), a CHAININDEX binary image of the live chain for lock-free
// readers, and a LOCK file claiming single-writer ownership.
//
// The store is layered:
//
//   - Exactly one writer per directory. Create and Open claim the
//     on-disk writer lock (LOCK, published atomically by staging the
//     complete payload and hard-linking it into place); a second
//     writer fails fast with a *LockHeldError, and a lock left by a
//     crashed writer is detected (dead PID) and taken over with a
//     capture-and-verify break that never destroys a racer's claim.
//   - Every write is crash-safe: file bytes go to a .tmp sibling, are
//     fsynced, renamed into place, and the directory is fsynced before
//     the journal records the commit — so after a crash at any point,
//     reopening the store sees either the complete new checkpoint or
//     the clean pre-write state, never a torn file in the chain.
//   - After each commit the writer republishes the CHAININDEX
//     atomically, so readers (OpenReadOnly) can serve listings and
//     restarts without replaying the journal or scanning the
//     directory — and without ever blocking this writer.
//
// Open runs a recovery scan that reconciles the journal with the
// directory, adopts committed files the journal missed, quarantines
// torn or corrupt files into quarantine/, and removes stale
// temporaries; the scan's findings are available from Recovery. The
// writer keeps the reconciled chain in memory, so List, Variables,
// Stats, and LatestRestorable are pure memory reads.
//
// A Store is not safe for concurrent use by multiple goroutines; the
// concurrency story is one writer goroutine plus any number of
// ReadView readers, in this process or others.
type Store struct {
	dir string
	fs  faultfs.FS
	opt core.Options
	// rec receives recovery counters (recovery_scans,
	// torn_files_detected, index_rebuilds, lock_takeovers) and any
	// store-level instrumentation. Nil is the no-op state.
	rec *obs.Recorder
	// lock is the held writer lock; Close releases it.
	lock *storeLock
	// chain is the in-memory image of the journal's live entries: file
	// name → committed length and CRC. Every commit updates it and
	// republishes the chain index from it.
	chain map[string]journalEntry
	// view is chain in per-variable sorted form, derived on the first
	// read after the chain changed (nil until then): whatever writes
	// chain — setChain, dropChain, the recovery scan — resets it.
	view *chainView
	// indexSeq is the publication sequence of the last CHAININDEX this
	// handle published or adopted.
	indexSeq uint64
	// closed is set by Close; a closed handle refuses further writes
	// (its lock is gone, so writing would race a successor writer).
	closed bool
	// recovery is the report of the Open-time recovery scan (nil for a
	// store handle from Create, which starts empty).
	recovery *RecoveryReport
}

// manifest is the store-level metadata file.
type manifest struct {
	Version    int     `json:"version"`
	ErrorBound float64 `json:"error_bound"`
	IndexBits  int     `json:"index_bits"`
	Strategy   string  `json:"strategy"`
}

const manifestName = "manifest.json"

// quarantineDir is the store subdirectory torn and corrupt files are
// moved into, preserving the evidence without breaking the chain scan.
const quarantineDir = "quarantine"

// ErrNotFound reports a missing checkpoint or store.
var ErrNotFound = errors.New("checkpoint: not found")

// ErrChain reports a broken restart chain (a gap between the full
// checkpoint and the requested iteration).
var ErrChain = errors.New("checkpoint: broken restart chain")

// ErrClosed reports an operation on a Store after Close released its
// writer lock.
var ErrClosed = errors.New("checkpoint: store is closed")

// isStoreMetaFile reports whether name is one of the metadata files
// that live alongside checkpoint files in the store directory and are
// never chain entries.
func isStoreMetaFile(name string) bool {
	return name == manifestName || name == journalName || name == indexName || name == lockName
}

// Create initializes a store in dir (created if absent; an existing
// manifest is an error to avoid silently mixing encodings) on the real
// filesystem.
func Create(dir string, opt core.Options) (*Store, error) {
	return CreateFS(dir, opt, faultfs.OS())
}

// CreateFS is Create on an explicit filesystem, the entry point
// fault-injection tests use to crash the store mid-write.
func CreateFS(dir string, opt core.Options, fsys faultfs.FS) (*Store, error) {
	return CreateFSOwner(dir, opt, fsys, LockOwner{})
}

// CreateFSOwner is CreateFS with an explicit lock owner identity, used
// by tests that need the resulting LOCK file to read as held or stale
// regardless of the test process's real PID.
func CreateFSOwner(dir string, opt core.Options, fsys faultfs.FS, owner LockOwner) (*Store, error) {
	opt, err := opt.Validate()
	if err != nil {
		return nil, err
	}
	if err := fsys.MkdirAll(dir, 0o755); err != nil {
		return nil, pathErr("create store", dir, err)
	}
	// The lock comes first so two racing Creates serialize: the loser
	// sees either our manifest (store exists) or our live lock.
	lock, err := acquireLock(fsys, dir, owner, nil)
	if err != nil {
		return nil, err
	}
	st, err := createLocked(dir, opt, fsys)
	if err != nil {
		_ = lock.release()
		return nil, err
	}
	st.lock = lock
	return st, nil
}

// createLocked is the body of Create once the writer lock is held.
func createLocked(dir string, opt core.Options, fsys faultfs.FS) (*Store, error) {
	mpath := filepath.Join(dir, manifestName)
	if _, err := fsys.Stat(mpath); err == nil {
		return nil, fmt.Errorf("checkpoint: store already exists at %s", dir)
	}
	m := manifest{
		Version:    1,
		ErrorBound: opt.ErrorBound,
		IndexBits:  opt.IndexBits,
		Strategy:   opt.Strategy.String(),
	}
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return nil, err
	}
	if err := faultfs.WriteFileAtomic(fsys, dir, mpath, data); err != nil {
		return nil, pathErr("write manifest", mpath, err)
	}
	// Seed an empty journal so a reopened store can tell "new-format
	// store, nothing committed yet" from a legacy store with no journal.
	if err := seedJournal(fsys, dir); err != nil {
		return nil, err
	}
	st := &Store{dir: dir, fs: fsys, opt: opt, chain: map[string]journalEntry{}, indexSeq: 1}
	// Publish the empty index so readers of a fresh store already have
	// their fast path.
	if err := publishIndex(fsys, dir, st.chain, st.indexSeq); err != nil {
		return nil, err
	}
	if err := fsys.SyncDir(dir); err != nil {
		return nil, pathErr("sync", dir, err)
	}
	return st, nil
}

// Open opens an existing store for writing on the real filesystem,
// claims the writer lock, and runs the recovery scan. For read-only
// access that never mutates the store, use OpenReadOnly.
func Open(dir string) (*Store, error) {
	return OpenFS(dir, faultfs.OS(), nil)
}

// OpenFS is Open on an explicit filesystem with an optional
// instrumentation recorder: the recovery scan reports its counters
// (recovery_scans, torn_files_detected, index_rebuilds) into rec. Nil
// rec keeps instrumentation a no-op.
func OpenFS(dir string, fsys faultfs.FS, rec *obs.Recorder) (*Store, error) {
	return OpenFSOwner(dir, fsys, rec, LockOwner{})
}

// OpenFSOwner is OpenFS with an explicit lock owner identity, used by
// tests that need the resulting LOCK file to read as held or stale
// regardless of the test process's real PID.
func OpenFSOwner(dir string, fsys faultfs.FS, rec *obs.Recorder, owner LockOwner) (*Store, error) {
	opt, err := readManifest(fsys, dir)
	if err != nil {
		return nil, err
	}
	lock, err := acquireLock(fsys, dir, owner, rec)
	if err != nil {
		return nil, err
	}
	st := &Store{dir: dir, fs: fsys, opt: opt, rec: rec, lock: lock}
	report, err := st.recoverScan()
	if err != nil {
		_ = lock.release()
		return nil, err
	}
	st.recovery = report
	return st, nil
}

// readManifest loads and validates the store's manifest.json.
func readManifest(fsys faultfs.FS, dir string) (core.Options, error) {
	mpath := filepath.Join(dir, manifestName)
	if _, err := fsys.Stat(mpath); err != nil {
		return core.Options{}, fmt.Errorf("%w: no store at %s", ErrNotFound, dir)
	}
	data, err := faultfs.ReadFile(fsys, mpath)
	if err != nil {
		return core.Options{}, pathErr("read", mpath, err)
	}
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return core.Options{}, fmt.Errorf("%w: manifest: %w", ErrCorrupt, err)
	}
	strategy, err := core.ParseStrategy(m.Strategy)
	if err != nil {
		return core.Options{}, fmt.Errorf("%w: manifest: %w", ErrCorrupt, err)
	}
	opt, err := core.Options{
		ErrorBound: m.ErrorBound,
		IndexBits:  m.IndexBits,
		Strategy:   strategy,
	}.Validate()
	if err != nil {
		return core.Options{}, fmt.Errorf("%w: manifest options: %w", ErrCorrupt, err)
	}
	return opt, nil
}

// Close releases the store's writer lock and marks the handle closed.
// Further writes fail with ErrClosed; read methods keep working (they
// only consult the in-memory chain and read files). Close is
// idempotent.
func (st *Store) Close() error {
	if st.closed {
		return nil
	}
	st.closed = true
	lock := st.lock
	st.lock = nil
	return lock.release()
}

// Options returns the store's encoding options.
func (st *Store) Options() core.Options { return st.opt }

// Recovery returns the Open-time recovery scan report, or nil for a
// store handle created by Create (which starts empty and needs no
// scan).
func (st *Store) Recovery() *RecoveryReport { return st.recovery }

// SetRecorder attaches an instrumentation recorder to subsequent store
// operations (salvage decodes, future scans). Nil detaches.
func (st *Store) SetRecorder(rec *obs.Recorder) { st.rec = rec }

// Dir returns the store directory.
func (st *Store) Dir() string { return st.dir }

// IndexSeq returns the publication sequence of the store's current
// chain index.
func (st *Store) IndexSeq() uint64 { return st.indexSeq }

func (st *Store) path(variable, kind string, iteration int) string {
	return filepath.Join(st.dir, fileName(variable, kind, iteration))
}

// fileName renders the store file name of one checkpoint.
func fileName(variable, kind string, iteration int) string {
	return fmt.Sprintf("%s.%s.%06d.nmk", variable, kind, iteration)
}

// commitFile durably writes one checkpoint file: atomic
// write-temp/fsync/rename/fsync-dir, a journal append recording the
// commit, then an atomic republish of the chain index. A crash between
// the rename and the journal append leaves a committed file the journal
// missed; the next recovery scan adopts it. A crash before the index
// republish leaves a stale index whose journal anchor no longer
// matches; readers detect that and fall back to the journal. The chain
// invariant (complete new checkpoint or clean pre-write state) holds at
// every crash point.
//
// payloadCRC is the caller-declared CRC of the pre-encode payload,
// journaled alongside the file CRC so retried commits can be detected
// as idempotent replays (0 = unknown).
func (st *Store) commitFile(name string, raw []byte, payloadCRC uint32) error {
	if st.closed {
		return ErrClosed
	}
	path := filepath.Join(st.dir, name)
	if err := faultfs.WriteFileAtomic(st.fs, st.dir, path, raw); err != nil {
		return pathErr("commit", path, err)
	}
	je := journalEntry{Len: int64(len(raw)), CRC: crc32.ChecksumIEEE(raw), PayloadCRC: payloadCRC}
	if err := appendJournal(st.fs, st.dir, journalRecord{
		Op:         "add",
		Name:       name,
		Len:        je.Len,
		CRC:        je.CRC,
		PayloadCRC: je.PayloadCRC,
	}); err != nil {
		return err
	}
	st.setChain(name, je)
	return st.republishIndex()
}

// setChain records a committed file in the in-memory chain.
func (st *Store) setChain(name string, je journalEntry) {
	st.chain[name] = je
	st.view = nil
}

// dropChain removes a file from the in-memory chain.
func (st *Store) dropChain(name string) {
	delete(st.chain, name)
	st.view = nil
}

// chainView returns the in-memory chain's per-variable view, derived at
// most once per chain state.
func (st *Store) chainView() *chainView {
	if st.view == nil {
		st.view = viewOfChain(st.chain)
	}
	return st.view
}

// CommittedEntry describes one journaled commit, looked up by Committed
// for idempotency decisions: a retried commit whose declared payload
// CRC matches PayloadCRC (or, for commits whose payload is the file
// itself, CRC) is a replay, not a new write.
type CommittedEntry struct {
	// Name is the committed file's name; Kind is "full" or "delta".
	Name string
	Kind string
	// Len and CRC are the journaled file length and checksum.
	Len int64
	CRC uint32
	// PayloadCRC is the journaled pre-encode payload checksum (0 =
	// unknown: library writes, adopted files, pre-upgrade records).
	PayloadCRC uint32
}

// Committed returns the journaled commit for variable at iteration, if
// any. It is a pure in-memory chain lookup.
func (st *Store) Committed(variable string, iteration int) (CommittedEntry, bool) {
	for _, kind := range []string{"full", "delta"} {
		name := fileName(variable, kind, iteration)
		if je, ok := st.chain[name]; ok {
			return CommittedEntry{Name: name, Kind: kind, Len: je.Len, CRC: je.CRC, PayloadCRC: je.PayloadCRC}, true
		}
	}
	return CommittedEntry{}, false
}

// republishIndex publishes the next chain-index image from the
// in-memory chain.
func (st *Store) republishIndex() error {
	st.indexSeq++
	return publishIndex(st.fs, st.dir, st.chain, st.indexSeq)
}

// WriteFull stores data as a lossless full checkpoint.
func (st *Store) WriteFull(variable string, iteration int, data []float64) error {
	if err := validateIdentity(variable, iteration); err != nil {
		return err
	}
	raw, err := MarshalFull(variable, iteration, data)
	if err != nil {
		return err
	}
	return st.commitFile(fileName(variable, "full", iteration), raw, 0)
}

// WriteDelta encodes the transition prev → cur with the store's options
// and writes the delta checkpoint. prev is the prediction reference:
// Restart replays the delta onto its own reconstruction of iteration-1,
// so the result is within E·|prev| of cur only if prev is that
// reconstruction. The Writer passes it; a caller that passes the true
// previous state instead (the paper's in-situ layout) lets the error
// compound along the chain. WriteDelta returns the encoding so callers
// can record its metrics (γ, error rates, compression ratio).
func (st *Store) WriteDelta(variable string, iteration int, prev, cur []float64) (*core.Encoded, error) {
	enc, err := core.Encode(prev, cur, st.opt)
	if err != nil {
		return nil, err
	}
	if err := st.WriteEncodedDelta(variable, iteration, enc); err != nil {
		return nil, err
	}
	return enc, nil
}

// WriteEncodedDelta writes an already-encoded delta checkpoint in the
// single-section v1 layout (chunked v2 files, which reads accept just
// the same, are committed through WriteRawDelta). Used by callers that
// inspect the encoding before committing to a delta (the Writer encodes
// tentatively and, under a schedule, may write a full checkpoint
// instead).
func (st *Store) WriteEncodedDelta(variable string, iteration int, enc *core.Encoded) error {
	if err := validateIdentity(variable, iteration); err != nil {
		return err
	}
	raw, err := MarshalDelta(variable, iteration, enc)
	if err != nil {
		return err
	}
	return st.commitFile(fileName(variable, "delta", iteration), raw, 0)
}

// WriteRawFull commits raw — an already-marshalled NMRKF1 full
// checkpoint file, e.g. one produced by MarshalFull or received over
// the wire — after validating that it parses and that its header
// identity matches the given variable and iteration. It is the commit
// hook the checkpoint service daemon uses: the encode happened
// elsewhere, but the commit gets the same crash-safe
// write/journal/index-republish path as WriteFull. The journaled
// payload CRC is the file's own CRC: a raw commit's payload is the
// file itself.
func (st *Store) WriteRawFull(variable string, iteration int, raw []byte) error {
	return st.WriteRawFullPayload(variable, iteration, raw, crc32.ChecksumIEEE(raw))
}

// WriteRawFullPayload is WriteRawFull with an explicit payload CRC —
// the checksum of whatever the caller's client originally sent (for
// the daemon's value commits, the raw float64 body, not the encoded
// file). It is journaled with the commit so a retried request can be
// recognized as an idempotent replay. 0 means unknown.
func (st *Store) WriteRawFullPayload(variable string, iteration int, raw []byte, payloadCRC uint32) error {
	return st.commitRaw("full", variable, iteration, raw, payloadCRC)
}

// WriteRawDelta commits raw — an already-marshalled NMRKD1 or NMRKD2
// delta checkpoint file, e.g. the output of a streaming encode —
// after validating that it parses (v2: header, bin table, and chunk
// directory; v1: the whole payload including its CRC) and that its
// header identity matches the given variable and iteration. The
// journaled payload CRC is the file's own CRC: a raw commit's payload
// is the file itself.
func (st *Store) WriteRawDelta(variable string, iteration int, raw []byte) error {
	return st.WriteRawDeltaPayload(variable, iteration, raw, crc32.ChecksumIEEE(raw))
}

// WriteRawDeltaPayload is WriteRawDelta with an explicit payload CRC
// (the checksum of the client's pre-encode payload, journaled for
// idempotent-replay detection; 0 = unknown).
func (st *Store) WriteRawDeltaPayload(variable string, iteration int, raw []byte, payloadCRC uint32) error {
	return st.commitRaw("delta", variable, iteration, raw, payloadCRC)
}

// commitRaw is the body of the raw commits: raw must parse — deep for a
// full checkpoint (its payload decompresses), shallow for a delta, whose
// sections are checked by every read instead — as a checkpoint of the
// given kind whose header names variable@iteration.
func (st *Store) commitRaw(kind, variable string, iteration int, raw []byte, payloadCRC uint32) error {
	if err := validateIdentity(variable, iteration); err != nil {
		return err
	}
	k, v, it, err := parseCheckpoint(raw, kind == "full")
	if err == nil && k != kind {
		err = fmt.Errorf("%w: it is a %s checkpoint", ErrCorrupt, k)
	}
	if err != nil {
		return fmt.Errorf("checkpoint: raw %s checkpoint rejected: %w", kind, err)
	}
	if err := checkIdentity(ErrBadVariable, v, it, variable, iteration); err != nil {
		return err
	}
	return st.commitFile(fileName(variable, kind, iteration), raw, payloadCRC)
}

// Entry describes one stored checkpoint file.
type Entry struct {
	Variable  string
	Kind      string // "full" or "delta"
	Iteration int
}

// List returns all entries for a variable, sorted by iteration. It is
// served from the in-memory chain — no filesystem access.
func (st *Store) List(variable string) ([]Entry, error) {
	return st.chainView().list(variable), nil
}

// Variables returns the distinct variable names present in the store,
// served from the in-memory chain.
func (st *Store) Variables() ([]string, error) {
	return slices.Clone(st.chainView().vars), nil
}

// parseName decodes a checkpoint file name back into its entry.
func parseName(name string) (Entry, bool) {
	if !strings.HasSuffix(name, ".nmk") {
		return Entry{}, false
	}
	parts := strings.Split(strings.TrimSuffix(name, ".nmk"), ".")
	if len(parts) < 3 {
		return Entry{}, false
	}
	kind := parts[len(parts)-2]
	if kind != "full" && kind != "delta" {
		return Entry{}, false
	}
	iter, err := strconv.Atoi(parts[len(parts)-1])
	if err != nil {
		return Entry{}, false
	}
	return Entry{
		Variable:  strings.Join(parts[:len(parts)-2], "."),
		Kind:      kind,
		Iteration: iter,
	}, true
}

// ReadFull loads a full checkpoint.
func (st *Store) ReadFull(variable string, iteration int) ([]float64, error) {
	return readFullFile(st.fs, st.dir, variable, iteration)
}

// ReadDelta loads a delta checkpoint's encoding, from either format.
func (st *Store) ReadDelta(variable string, iteration int) (*core.Encoded, error) {
	raw, err := readCheckpointFile(st.fs, st.dir, variable, "delta", iteration, -1)
	if err != nil {
		return nil, err
	}
	v, it, enc, err := UnmarshalDelta(raw)
	if err != nil {
		return nil, pathErr("parse", st.path(variable, "delta", iteration), err)
	}
	return enc, checkIdentity(ErrCorrupt, v, it, variable, iteration)
}

// Restart reconstructs a variable at the requested iteration: it loads
// the latest full checkpoint at or before it and replays every delta in
// between (§II-D). Missing intermediate deltas are an ErrChain.
func (st *Store) Restart(variable string, iteration int) ([]float64, error) {
	data, _, err := restartEntries(st.fs, st.dir, st.chainView().files[variable], variable, iteration, RecoverOptions{Obs: st.rec})
	return data, err
}

// RestartSalvage is Restart in degraded mode: chunk-local corruption in
// v2 deltas is quarantined instead of failing the restart, the healthy
// chunks are replayed, and the returned PartialDataError (nil when the
// chain was fully healthy) carries the union of lost point ranges
// across the whole chain — exactly which indices hold stale values.
// Failures that are not chunk-local (a corrupt full checkpoint, a
// corrupt v1 delta, a chain gap) still fail closed.
func (st *Store) RestartSalvage(variable string, iteration int) ([]float64, *PartialDataError, error) {
	return restartEntries(st.fs, st.dir, st.chainView().files[variable], variable, iteration, RecoverOptions{Salvage: true, Obs: st.rec})
}
