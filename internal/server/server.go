// Package server is the NUMARCK checkpoint service daemon's core: a
// stdlib-only multi-tenant HTTP layer over the checkpoint store and
// the out-of-core codec pipeline. Simulations push raw float64 state
// over streaming POSTs; the daemon encodes transitions with the
// chunked v2 pipeline, commits them to per-tenant stores, and serves
// reconstructions, chain reports, and metrics back out.
//
// Three subsystems carry the design:
//
//   - The tenant Registry opens each tenant's store lazily under one
//     root and holds the single-writer lock only while the tenant has
//     writes in flight, keeping the store open across back-to-back
//     commits; each series' head (the state its last commit left) spares
//     the next push a chain replay. Reads are served from cached
//     lock-free ReadViews.
//   - The memory Governor admission-controls concurrent pipelines by
//     their resolved footprint (chunk.ResolveConfig), queueing FIFO
//     and answering 429 + Retry-After instead of OOMing. Series heads
//     are charged to it too, and give way to any request that needs
//     their room.
//   - Graceful drain: StartDrain flips /readyz and refuses new work
//     with 503 while in-flight commits finish and release their
//     locks; the daemon binary pairs it with http.Server.Shutdown on
//     SIGTERM.
//
// Wire format: checkpoint payloads cross the wire exactly as the
// NMRKF1/NMRKD1/NMRKD2 file formats (?raw=1) or as raw little-endian
// float64 arrays (the default), with no extra framing; errors are
// structured JSON mapped from the storage layer's typed errors.
package server

import (
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"numarck/internal/chunk"
	"numarck/internal/core"
	"numarck/internal/obs"
)

// ErrDraining reports a request that arrived after drain began; it
// maps to 503 so load balancers move on.
var ErrDraining = errors.New("server: draining, not accepting new work")

// spoolDirName is the scratch directory under the registry root where
// request bodies are spooled. It starts with a dot, which tenant names
// cannot, so it can never collide with a tenant's store.
const spoolDirName = ".spool"

// Config configures a Server.
type Config struct {
	// Root is the directory holding one store per tenant. Required.
	Root string
	// Opt is the options a new tenant's store is created with. From
	// then on the store's manifest decides how its series are encoded:
	// a daemon restarted with other options does not change them.
	Opt core.Options
	// Chunk is the pipeline configuration of every delta encode. Its
	// BudgetBytes bounds each single pipeline; CapacityBytes below
	// bounds their sum.
	Chunk chunk.Config
	// CapacityBytes is the memory governor's total admission capacity
	// across concurrent requests. 0 disables admission control.
	CapacityBytes int64
	// AdmitWait is how long a request waits for governor admission
	// before 429. Default 2s.
	AdmitWait time.Duration
}

// Server is the checkpoint service: build one with New, mount
// Handler() on an http.Server, and call StartDrain on shutdown.
type Server struct {
	cfg Config
	// plan is cfg.Chunk resolved: the shape and admission footprint of
	// every delta encode.
	plan     chunk.Resolved
	reg      *Registry
	spoolDir string
	start    time.Time

	// uploads serializes and caches resumable upload sessions; their
	// state lives under spoolDir/uploads.
	uploads *uploadTable
	// jrec collects the self-healing janitor's counters
	// (spools_reaped, sessions_reaped), published in /metrics
	// separately from tenant pipelines.
	jrec *obs.Recorder

	// spoolBusy marks spool scratch files owned by in-flight requests,
	// guarded by spoolMu. The janitor judges orphaned spools by age, but
	// a slow upload or a long governor wait can hold a spool past any
	// TTL — ownership, not mtime, is what keeps those alive.
	spoolMu   sync.Mutex
	spoolBusy map[string]struct{}
}

// New validates cfg and builds the server, creating the root and spool
// directories.
func New(cfg Config) (*Server, error) {
	opt, err := cfg.Opt.Validate()
	if err != nil {
		return nil, fmt.Errorf("server: default options: %w", err)
	}
	cfg.Opt = opt
	plan, err := chunk.ResolveConfig(cfg.Chunk)
	if err != nil {
		return nil, fmt.Errorf("server: pipeline config: %w", err)
	}
	if cfg.AdmitWait <= 0 {
		cfg.AdmitWait = 2 * time.Second
	}
	reg, err := NewRegistry(cfg.Root, cfg.Opt)
	if err != nil {
		return nil, err
	}
	reg.gov = NewGovernor(cfg.CapacityBytes)
	spool := filepath.Join(cfg.Root, spoolDirName)
	if err := os.MkdirAll(spool, 0o755); err != nil {
		return nil, fmt.Errorf("server: create spool dir: %w", err)
	}
	uploadDir := filepath.Join(spool, uploadDirName)
	if err := os.MkdirAll(uploadDir, 0o755); err != nil {
		return nil, fmt.Errorf("server: create upload dir: %w", err)
	}
	return &Server{
		cfg:      cfg,
		plan:     plan,
		reg:      reg,
		spoolDir: spool,
		start:    time.Now(),
		uploads:  newUploadTable(uploadDir),
		jrec:     obs.NewRecorder(),

		spoolBusy: make(map[string]struct{}),
	}, nil
}

// markSpool flags a spool scratch file as owned by an in-flight
// request; sweepSpools skips flagged files regardless of their age.
func (s *Server) markSpool(path string) {
	s.spoolMu.Lock()
	s.spoolBusy[path] = struct{}{}
	s.spoolMu.Unlock()
}

// releaseSpool drops a spool file's in-flight flag once its request no
// longer needs the bytes.
func (s *Server) releaseSpool(path string) {
	s.spoolMu.Lock()
	delete(s.spoolBusy, path)
	s.spoolMu.Unlock()
}

// spoolInUse reports whether a spool file is owned by a live request.
func (s *Server) spoolInUse(path string) bool {
	s.spoolMu.Lock()
	_, ok := s.spoolBusy[path]
	s.spoolMu.Unlock()
	return ok
}

// Registry returns the server's tenant registry (tests and the daemon
// binary use it for drain accounting).
func (s *Server) Registry() *Registry { return s.reg }

// Governor returns the server's admission controller (tests use it to
// occupy capacity deterministically).
func (s *Server) Governor() *Governor { return s.reg.gov }

// StartDrain flips the server into draining mode: /readyz turns 503
// and new API requests are refused with 503 + Retry-After, while
// requests already in flight run to completion (the caller pairs this
// with http.Server.Shutdown, which waits for them). From then on no
// write leaves its tenant's store open for the next, so the last
// in-flight write of each tenant closes it. Idempotent.
func (s *Server) StartDrain() { s.reg.draining.Store(true) }

// Draining reports whether drain has started.
func (s *Server) Draining() bool { return s.reg.draining.Load() }

// Handler builds the daemon's route table.
//
//	POST /v1/{tenant}/{series}/checkpoints         commit an iteration (body: raw f64, or ?raw=1 file bytes)
//	GET  /v1/{tenant}/{series}/checkpoints/{iter}  reconstruct (?recover=1 salvage, ?raw=1 file bytes)
//	GET  /v1/{tenant}/{series}/chain               one series' chain entries + stats (?verify=1 deep check)
//	GET  /v1/{tenant}/chain                        whole tenant: variables, stats, health
//	POST /v1/{tenant}/{series}/restart             where to resume: latest restorable iteration
//	POST /v1/{tenant}/{series}/uploads             start a resumable upload session (?iter, ?size, plus ?raw, ?kind)
//	PUT  /v1/uploads/{id}                          append one range (X-Numarck-Upload-Offset, optional range CRC)
//	GET  /v1/uploads/{id}/status                   session progress: the client's resume point
//	POST /v1/uploads/{id}/finalize                 commit the completed session through the normal pipeline
//	GET  /healthz                                  process liveness (always 200)
//	GET  /readyz                                   503 once draining
//	GET  /metrics                                  per-tenant + merged obs snapshots, governor state
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, _ *http.Request) {
		if s.Draining() {
			writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
			return
		}
		writeJSON(w, http.StatusOK, map[string]string{"status": "ready"})
	})
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("POST /v1/{tenant}/{series}/checkpoints", s.gated(s.handlePostCheckpoint))
	mux.HandleFunc("GET /v1/{tenant}/{series}/checkpoints/{iter}", s.gated(s.handleGetCheckpoint))
	mux.HandleFunc("GET /v1/{tenant}/{series}/chain", s.gated(s.handleSeriesChain))
	mux.HandleFunc("GET /v1/{tenant}/chain", s.gated(s.handleTenantChain))
	mux.HandleFunc("POST /v1/{tenant}/{series}/restart", s.gated(s.handleRestart))
	// Resumable uploads: tenant-scoped creation, then session-scoped
	// ranges/status/finalize. The status route carries a literal tail
	// ("status") so it cannot overlap GET /v1/{tenant}/chain — ServeMux
	// rejects ambiguous wildcard patterns at registration.
	mux.HandleFunc("POST /v1/{tenant}/{series}/uploads", s.gated(s.handleCreateUpload))
	mux.HandleFunc("PUT /v1/uploads/{id}", s.gated(s.handlePutUploadRange))
	mux.HandleFunc("GET /v1/uploads/{id}/status", s.gated(s.handleUploadStatus))
	mux.HandleFunc("POST /v1/uploads/{id}/finalize", s.gated(s.handleFinalizeUpload))
	return mux
}

// gated wraps an API handler with the drain gate: once StartDrain has
// run, new requests get 503 before touching any store.
func (s *Server) gated(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if s.Draining() {
			writeError(w, ErrDraining)
			return
		}
		h(w, r)
	}
}

// handleMetrics publishes the daemon's observability state: one obs
// snapshot per tenant, their merge as the process-wide view, governor
// admission state, and uptime.
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	tenants := s.reg.Tenants()
	byName := make(map[string]obs.Snapshot, len(tenants))
	snaps := make([]obs.Snapshot, 0, len(tenants))
	for _, t := range tenants {
		snap := t.Recorder().Snapshot()
		byName[t.Name()] = snap
		snaps = append(snaps, snap)
	}
	writeJSON(w, http.StatusOK, MetricsResponse{
		UptimeNs: time.Since(s.start).Nanoseconds(),
		Draining: s.Draining(),
		Governor: s.reg.gov.Stats(),
		Tenants:  byName,
		Process:  obs.MergeSnapshots(snaps...),
		Janitor:  s.jrec.Snapshot(),
	})
}

// spool copies an incoming request body to a scratch file under
// root/.spool and returns its path, size, and the CRC-32 (IEEE) of
// the bytes as they arrived — the payload checksum the idempotent
// commit path journals. Bodies are spooled, not buffered, because the
// encode pipeline must read its source twice; the caller removes the
// file and releases its in-flight mark (releaseSpool). Spool files
// live outside every store directory so a crashed daemon's leftovers
// are inert scratch the janitor reaps, not store-recovery work; the
// file is marked in-flight from creation so the janitor never reaps a
// body a live request is still filling or committing.
func (s *Server) spool(body io.Reader) (path string, size int64, crc uint32, err error) {
	f, err := os.CreateTemp(s.spoolDir, "body-*")
	if err != nil {
		return "", 0, 0, fmt.Errorf("server: spool: %w", err)
	}
	s.markSpool(f.Name())
	h := crc32.NewIEEE()
	size, err = io.Copy(io.MultiWriter(f, h), body)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		// Best-effort cleanup of a scratch file that failed to fill.
		_ = os.Remove(f.Name())
		s.releaseSpool(f.Name())
		return "", 0, 0, fmt.Errorf("server: spool: %w", err)
	}
	return f.Name(), size, h.Sum32(), nil
}
