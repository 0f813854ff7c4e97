package server

// Resumable chunked uploads: a session is created against a
// tenant/series/iteration, filled by sequential PUT ranges, and
// finalized through the exact same commit pipeline as a one-shot POST.
// Ranges are atomic — a range either lands whole (spooled, CRC-checked,
// then appended) or not at all — so any single connection loss costs
// the client at most one re-sent range: it re-reads Received from the
// session status and continues from there. Session state lives under
// root/.spool/uploads/<id>/ (meta.json + data), outside every tenant
// store, so a crashed daemon's leftovers are inert scratch the janitor
// reaps, never store-recovery work.

import (
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"strconv"
	"sync"

	"numarck/internal/checkpoint"
)

// uploadDirName is the directory under the spool root holding one
// subdirectory per resumable upload session.
const uploadDirName = "uploads"

// UploadOffsetHeader is the request header carrying a PUT range's byte
// offset into the session payload. It must not exceed the session's
// contiguous received prefix (upload_gap otherwise); offsets inside the
// prefix are deduplicated or partially skipped.
const UploadOffsetHeader = "X-Numarck-Upload-Offset"

// RangeCRCHeader is the optional request header carrying the CRC-32
// (IEEE) of one PUT range's bytes. A mismatch rejects the whole range
// before any byte reaches the session, so a corrupted range never
// poisons the resumable state.
const RangeCRCHeader = "X-Numarck-Range-CRC32"

// Upload session states.
const (
	uploadStateOpen = "open"
	uploadStateDone = "done"
)

// uploadMeta is a session's durable state, persisted as meta.json in
// the session directory after every accepted range so the session
// survives a daemon restart.
type uploadMeta struct {
	Tenant    string `json:"tenant"`
	Series    string `json:"series"`
	Iteration int    `json:"iteration"`
	// Size is the declared total payload size; Received is the
	// contiguous prefix on disk; CRC is the running CRC-32 of that
	// prefix — it becomes the commit's payload CRC at finalize, which
	// is what makes a finalized upload idempotent with the equivalent
	// one-shot POST.
	Size     int64  `json:"size"`
	Received int64  `json:"received"`
	CRC      uint32 `json:"crc"`
	// Query is the creation request's encoded commit parameters (raw,
	// kind), replayed at finalize so the commit runs with the route the
	// client chose up front.
	Query string `json:"query"`
	State string `json:"state"`
	// Commit caches the finalize result so a retried finalize replays
	// the same answer instead of re-entering the commit pipeline.
	Commit *CommitResponse `json:"commit,omitempty"`
}

// uploadSession is one live session: its mutex serializes ranges,
// status reads, and finalize against each other (different sessions
// proceed in parallel).
type uploadSession struct {
	mu   sync.Mutex
	id   string
	dir  string
	meta uploadMeta
}

// dataPath is the session's payload file (the contiguous prefix).
func (u *uploadSession) dataPath() string { return filepath.Join(u.dir, "data") }

// metaPath is the session's durable state file.
func (u *uploadSession) metaPath() string { return filepath.Join(u.dir, "meta.json") }

// saveLocked persists meta.json atomically (write-temp-then-rename);
// u.mu must be held.
func (u *uploadSession) saveLocked() error {
	raw, err := json.Marshal(u.meta)
	if err != nil {
		return fmt.Errorf("server: upload meta: %w", err)
	}
	tmp := u.metaPath() + ".tmp"
	if err := os.WriteFile(tmp, raw, 0o644); err != nil {
		return fmt.Errorf("server: upload meta: %w", err)
	}
	if err := os.Rename(tmp, u.metaPath()); err != nil {
		// Best-effort cleanup of the orphaned temp file.
		_ = os.Remove(tmp)
		return fmt.Errorf("server: upload meta: %w", err)
	}
	return nil
}

// reconcile aligns a disk-loaded open session's data file with its
// durable meta. A daemon that died between a range's data write and
// the meta.json rename leaves the file longer than meta.Received, and
// resuming against the file's length instead of the recorded prefix
// would mis-place the next range. The meta prefix is the truth — it is
// what the running CRC covers — so excess bytes are truncated away; a
// file shorter than the recorded prefix has lost acknowledged bytes,
// which fails the session rather than committing a hole.
func (u *uploadSession) reconcile() error {
	fi, err := os.Stat(u.dataPath())
	if err != nil {
		return fmt.Errorf("%w: upload session %s data: %v", checkpoint.ErrCorrupt, u.id, err)
	}
	if fi.Size() < u.meta.Received {
		return fmt.Errorf("%w: upload session %s: data file has %d bytes, meta recorded %d received",
			checkpoint.ErrCorrupt, u.id, fi.Size(), u.meta.Received)
	}
	if fi.Size() > u.meta.Received {
		if err := os.Truncate(u.dataPath(), u.meta.Received); err != nil {
			return fmt.Errorf("server: reconcile upload session %s: %w", u.id, err)
		}
	}
	return nil
}

// responseLocked renders the session for the wire; u.mu must be held.
func (u *uploadSession) responseLocked() UploadResponse {
	return UploadResponse{
		ID: u.id, Tenant: u.meta.Tenant, Variable: u.meta.Series, Iteration: u.meta.Iteration,
		Size: u.meta.Size, Received: u.meta.Received, State: u.meta.State, Commit: u.meta.Commit,
	}
}

// uploadTable maps session IDs to live sessions, loading sessions left
// by a previous daemon process from disk on first touch.
type uploadTable struct {
	dir      string
	mu       sync.Mutex
	sessions map[string]*uploadSession
}

// newUploadTable builds the table over its on-disk root.
func newUploadTable(dir string) *uploadTable {
	return &uploadTable{dir: dir, sessions: make(map[string]*uploadSession)}
}

// validUploadID reports whether id has the exact shape create mints
// (32 lowercase hex digits) — anything else is rejected before it can
// become a path component.
func validUploadID(id string) bool {
	if len(id) != 32 {
		return false
	}
	for i := 0; i < len(id); i++ {
		c := id[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// create mints a new session: a fresh random ID, its directory, an
// empty data file, and the first meta.json.
func (ut *uploadTable) create(meta uploadMeta) (*uploadSession, error) {
	buf := make([]byte, 16)
	if _, err := rand.Read(buf); err != nil {
		return nil, fmt.Errorf("server: upload id: %w", err)
	}
	id := hex.EncodeToString(buf)
	dir := filepath.Join(ut.dir, id)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("server: upload session: %w", err)
	}
	u := &uploadSession{id: id, dir: dir, meta: meta}
	if err := os.WriteFile(u.dataPath(), nil, 0o644); err != nil {
		return nil, fmt.Errorf("server: upload session: %w", err)
	}
	if err := u.saveLocked(); err != nil {
		return nil, err
	}
	ut.mu.Lock()
	ut.sessions[id] = u
	ut.mu.Unlock()
	return u, nil
}

// get resolves a session ID, falling back to disk for sessions created
// by a previous daemon process. Unknown or malformed IDs are 404s.
func (ut *uploadTable) get(id string) (*uploadSession, error) {
	if !validUploadID(id) {
		return nil, fmt.Errorf("%w: upload session %q", checkpoint.ErrNotFound, id)
	}
	ut.mu.Lock()
	defer ut.mu.Unlock()
	if u, ok := ut.sessions[id]; ok {
		return u, nil
	}
	dir := filepath.Join(ut.dir, id)
	raw, err := os.ReadFile(filepath.Join(dir, "meta.json"))
	if err != nil {
		return nil, fmt.Errorf("%w: upload session %s", checkpoint.ErrNotFound, id)
	}
	var meta uploadMeta
	if err := json.Unmarshal(raw, &meta); err != nil {
		return nil, fmt.Errorf("%w: upload session %s meta: %v", checkpoint.ErrCorrupt, id, err)
	}
	u := &uploadSession{id: id, dir: dir, meta: meta}
	if meta.State == uploadStateOpen {
		// Sessions inherited from a crashed daemon may have a data file
		// that ran ahead of the durable meta; align them before any
		// range resumes against the wrong offset.
		if err := u.reconcile(); err != nil {
			return nil, err
		}
	}
	ut.sessions[id] = u
	return u, nil
}

// remove drops a session from the table (the janitor calls it after
// deleting the session directory).
func (ut *uploadTable) remove(id string) {
	ut.mu.Lock()
	delete(ut.sessions, id)
	ut.mu.Unlock()
}

// handleCreateUpload starts a resumable upload session. Query: iter
// and size are required; raw and kind are captured now and replayed at
// finalize. Any other parameter is refused here, so a doomed session
// fails before any byte is uploaded.
func (s *Server) handleCreateUpload(w http.ResponseWriter, r *http.Request) {
	t, series, err := s.tenantSeries(r)
	if err != nil {
		writeError(w, err)
		return
	}
	q := r.URL.Query()
	if err := onlyParams(q, "iter", "kind", "raw", "size"); err != nil {
		writeError(w, err)
		return
	}
	iter, err := strconv.Atoi(q.Get("iter"))
	if err != nil {
		writeError(w, fmt.Errorf("%w: iter=%q", errBadRequest, q.Get("iter")))
		return
	}
	size, err := strconv.ParseInt(q.Get("size"), 10, 64)
	if err != nil || size <= 0 {
		writeError(w, fmt.Errorf("%w: size=%q (want the total payload size in bytes)", errBadRequest, q.Get("size")))
		return
	}
	q.Del("iter")
	q.Del("size")
	u, err := s.uploads.create(uploadMeta{
		Tenant: t.Name(), Series: series, Iteration: iter,
		Size: size, State: uploadStateOpen, Query: q.Encode(),
	})
	if err != nil {
		writeError(w, err)
		return
	}
	u.mu.Lock()
	resp := u.responseLocked()
	u.mu.Unlock()
	writeJSON(w, http.StatusCreated, resp)
}

// handlePutUploadRange accepts one range of a session's payload.
// Ranges are atomic: the body is spooled to a scratch file and
// CRC-checked first, so a torn or corrupted body leaves the session
// exactly where it was and the client simply re-sends that one range.
// A range fully inside the received prefix is acknowledged without
// writing (the idempotent retry case); a range straddling the prefix
// has its already-received head skipped.
func (s *Server) handlePutUploadRange(w http.ResponseWriter, r *http.Request) {
	u, err := s.uploads.get(r.PathValue("id"))
	if err != nil {
		writeError(w, err)
		return
	}
	offset, err := strconv.ParseInt(r.Header.Get(UploadOffsetHeader), 10, 64)
	if err != nil || offset < 0 {
		writeError(w, fmt.Errorf("%w: %s=%q", errBadRequest, UploadOffsetHeader, r.Header.Get(UploadOffsetHeader)))
		return
	}
	u.mu.Lock()
	defer u.mu.Unlock()
	if u.meta.State == uploadStateDone {
		// The payload already committed; tell the retrying client so.
		writeJSON(w, http.StatusOK, u.responseLocked())
		return
	}
	if offset > u.meta.Received {
		writeError(w, fmt.Errorf("%w: range at offset %d, received prefix is %d", ErrUploadGap, offset, u.meta.Received))
		return
	}

	tmp, err := os.CreateTemp(u.dir, "range-*")
	if err != nil {
		writeError(w, fmt.Errorf("server: upload range: %w", err))
		return
	}
	// The scratch range file never outlives the handler.
	defer os.Remove(tmp.Name())
	h := crc32.NewIEEE()
	n, err := io.Copy(io.MultiWriter(tmp, h), r.Body)
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		// Torn body: the range never happened. The connection is
		// usually dead too; the client re-sends from Received.
		writeError(w, fmt.Errorf("%w: range body: %v", errBadRequest, err))
		return
	}
	if v := r.Header.Get(RangeCRCHeader); v != "" {
		want, perr := strconv.ParseUint(v, 10, 32)
		if perr != nil {
			writeError(w, fmt.Errorf("%w: %s=%q", errBadRequest, RangeCRCHeader, v))
			return
		}
		// ParseUint's bitSize 32 already bounds want
		if uint32(want) != h.Sum32() {
			writeError(w, fmt.Errorf("%w: range CRC %08x does not match received bytes (%08x)", errBadRequest, want, h.Sum32()))
			return
		}
	}
	if offset+n > u.meta.Size {
		writeError(w, fmt.Errorf("%w: range [%d,%d) exceeds declared size %d", errBadRequest, offset, offset+n, u.meta.Size))
		return
	}
	if offset+n <= u.meta.Received {
		// Entire range already landed on a previous attempt.
		writeJSON(w, http.StatusOK, u.responseLocked())
		return
	}

	rf, err := os.Open(tmp.Name())
	if err != nil {
		writeError(w, fmt.Errorf("server: upload range: %w", err))
		return
	}
	//lint:ignore errcheck read-only scratch file; a close error cannot lose data
	defer rf.Close()
	if skip := u.meta.Received - offset; skip > 0 {
		if _, err := rf.Seek(skip, io.SeekStart); err != nil {
			writeError(w, fmt.Errorf("server: upload range: %w", err))
			return
		}
	}
	df, err := os.OpenFile(u.dataPath(), os.O_WRONLY, 0o644)
	if err != nil {
		writeError(w, fmt.Errorf("server: upload range: %w", err))
		return
	}
	// Write at the durable prefix's end, never at the file's end: the
	// position comes from meta.Received, so stale bytes a crash or a
	// failed write left beyond the prefix are overwritten in place by
	// the retry instead of the payload landing after them.
	crc := u.meta.CRC
	written, err := io.Copy(io.MultiWriter(io.NewOffsetWriter(df, u.meta.Received), crcUpdater{&crc}), rf)
	if cerr := df.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		// No rollback needed: meta.Received is unchanged, and the next
		// attempt's offset writer overwrites whatever this one left
		// beyond the prefix. Ranges never write past Size, so leftovers
		// can never outlive the finished payload either.
		writeError(w, fmt.Errorf("server: upload range: %w", err))
		return
	}
	u.meta.CRC = crc
	u.meta.Received += written
	if err := u.saveLocked(); err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, u.responseLocked())
}

// crcUpdater folds written bytes into a running CRC-32 (IEEE).
type crcUpdater struct{ crc *uint32 }

// Write implements io.Writer by updating the running checksum.
func (c crcUpdater) Write(p []byte) (int, error) {
	*c.crc = crc32.Update(*c.crc, crc32.IEEETable, p)
	return len(p), nil
}

// handleUploadStatus reports a session's progress — the resume point
// for a client recovering from a connection loss.
func (s *Server) handleUploadStatus(w http.ResponseWriter, r *http.Request) {
	u, err := s.uploads.get(r.PathValue("id"))
	if err != nil {
		writeError(w, err)
		return
	}
	u.mu.Lock()
	resp := u.responseLocked()
	u.mu.Unlock()
	writeJSON(w, http.StatusOK, resp)
}

// handleFinalizeUpload commits a complete session through the same
// pipeline as a one-shot POST, with the session's running CRC as the
// commit's payload CRC. The result is cached in the session, so a
// retried finalize — or a finalize racing a duplicate — replays the
// same answer; an already-done session never commits twice.
func (s *Server) handleFinalizeUpload(w http.ResponseWriter, r *http.Request) {
	u, err := s.uploads.get(r.PathValue("id"))
	if err != nil {
		writeError(w, err)
		return
	}
	u.mu.Lock()
	defer u.mu.Unlock()
	if u.meta.State == uploadStateDone {
		writeJSON(w, http.StatusOK, u.responseLocked())
		return
	}
	if u.meta.Received != u.meta.Size {
		writeError(w, fmt.Errorf("%w: finalize with %d of %d bytes received", ErrUploadGap, u.meta.Received, u.meta.Size))
		return
	}
	// The finalize request may declare the whole payload's CRC; check
	// it against the running CRC before committing.
	if err := declaredCRC(r, u.meta.CRC); err != nil {
		writeError(w, err)
		return
	}
	t, err := s.reg.Tenant(u.meta.Tenant)
	if err != nil {
		writeError(w, err)
		return
	}
	q, err := url.ParseQuery(u.meta.Query)
	if err != nil {
		writeError(w, fmt.Errorf("%w: upload session query: %v", checkpoint.ErrCorrupt, err))
		return
	}
	cr, status, err := s.commitSpooled(r, t, u.meta.Series, u.meta.Iteration, q, u.dataPath(), u.meta.Size, u.meta.CRC)
	if err != nil {
		// Commit failed: the pipeline's error goes out exactly as a
		// one-shot POST would render it (status, Retry-After, JSON body)
		// and the session stays open — a 429/503 finalize is retryable
		// as-is.
		writeError(w, err)
		return
	}
	u.meta.State = uploadStateDone
	u.meta.Commit = &cr
	if err := u.saveLocked(); err != nil {
		// The commit landed; a retried finalize will hit the commit
		// replay path and converge.
		writeError(w, err)
		return
	}
	// The payload is committed; the session keeps only meta for replay.
	_ = os.Remove(u.dataPath())
	writeJSON(w, status, u.responseLocked())
}
