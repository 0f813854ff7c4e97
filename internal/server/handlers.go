package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/url"
	"os"
	"strconv"

	"numarck/internal/checkpoint"
	"numarck/internal/chunk"
	"numarck/internal/core"
	"numarck/internal/obs"
	"numarck/internal/rawio"
)

// tenantSeries resolves and validates the {tenant}/{series} path
// parameters.
func (s *Server) tenantSeries(r *http.Request) (*Tenant, string, error) {
	t, err := s.reg.Tenant(r.PathValue("tenant"))
	if err != nil {
		return nil, "", err
	}
	series := r.PathValue("series")
	if err := checkpoint.ValidateVariable(series); err != nil {
		return nil, "", fmt.Errorf("series name: %w", err)
	}
	return t, series, nil
}

// requestParams layers per-request query overrides (e, b, strategy,
// chunk, workers, budget) over the server's default encode options and
// pipeline config.
func (s *Server) requestParams(q url.Values) (core.Options, chunk.Config, error) {
	opt, cfg := s.cfg.Opt, s.cfg.Chunk
	if v := q.Get("e"); v != "" {
		f, err := strconv.ParseFloat(v, 64)
		if err != nil {
			return opt, cfg, fmt.Errorf("%w: e=%q", errBadRequest, v)
		}
		opt.ErrorBound = f
	}
	if v := q.Get("b"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil {
			return opt, cfg, fmt.Errorf("%w: b=%q", errBadRequest, v)
		}
		opt.IndexBits = n
	}
	if v := q.Get("strategy"); v != "" {
		st, err := core.ParseStrategy(v)
		if err != nil {
			return opt, cfg, fmt.Errorf("%w: %v", errBadRequest, err)
		}
		opt.Strategy = st
	}
	for _, p := range []struct {
		name string
		dst  *int
	}{{"chunk", &cfg.ChunkPoints}, {"workers", &cfg.Workers}} {
		if v := q.Get(p.name); v != "" {
			n, err := strconv.Atoi(v)
			if err != nil || n < 0 {
				return opt, cfg, fmt.Errorf("%w: %s=%q", errBadRequest, p.name, v)
			}
			*p.dst = n
		}
	}
	if v := q.Get("budget"); v != "" {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil || n < 0 {
			return opt, cfg, fmt.Errorf("%w: budget=%q", errBadRequest, v)
		}
		cfg.BudgetBytes = n
	}
	var err error
	if opt, err = opt.Validate(); err != nil {
		return opt, cfg, fmt.Errorf("%w: %v", errBadRequest, err)
	}
	return opt, cfg, nil
}

// admit runs governor admission with the server's wait budget.
func (s *Server) admit(r *http.Request, weight int64) (func(), error) {
	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.AdmitWait)
	defer cancel()
	return s.gov.Acquire(ctx, weight)
}

// PayloadCRCHeader is the request header carrying the CRC-32 (IEEE)
// of the commit payload as the client sent it. The daemon verifies it
// against the bytes that actually arrived (rejecting transit
// corruption) and journals it with the commit, so a retried request
// with the same payload is recognized and replayed instead of
// double-applied.
const PayloadCRCHeader = "X-Numarck-Payload-CRC32"

// declaredCRC parses the PayloadCRCHeader and cross-checks it against
// the spooled body's actual CRC.
func declaredCRC(r *http.Request, got uint32) error {
	v := r.Header.Get(PayloadCRCHeader)
	if v == "" {
		return nil
	}
	want, err := strconv.ParseUint(v, 10, 32)
	if err != nil {
		return fmt.Errorf("%w: %s=%q", errBadRequest, PayloadCRCHeader, v)
	}
	//lint:ignore bindex ParseUint's bitSize 32 already bounds want
	if uint32(want) != got {
		return fmt.Errorf("%w: payload CRC %08x does not match received bytes (%08x)", errBadRequest, want, got)
	}
	return nil
}

// replayMatch reports whether a journaled commit is the same payload a
// retried request carries: the declared payload CRC matches the
// journaled one, or — for entries journaled before payload CRCs
// existed (adopted files) — the payload is byte-identical to the
// committed file itself.
func replayMatch(ce checkpoint.CommittedEntry, payloadCRC uint32) bool {
	return payloadCRC == ce.PayloadCRC || (ce.PayloadCRC == 0 && payloadCRC == ce.CRC)
}

// conflictErr renders the losing side of an idempotency check.
func conflictErr(series string, iter int, ce checkpoint.CommittedEntry, payloadCRC uint32) error {
	return fmt.Errorf("%w: %s@%d holds %s (payload crc %08x, request %08x)",
		ErrCommitConflict, series, iter, ce.Name, ce.PayloadCRC, payloadCRC)
}

// commit is the one writer critical section every commit path ends
// in. If the chain already holds (series, iter) the request is a retry:
// the same payload resolves to a replay of the journaled entry, a
// different one to ErrCommitConflict. Otherwise raw — an NMRKF1 file
// for kind "full", NMRKD1/NMRKD2 for "delta" — is committed with
// payloadCRC journaled beside it. Kind "" commits nothing: it is the
// pre-encode probe, which only wants the replay decision (a nil replay
// then means the entry is not there — go on to a normal commit). The
// check and the write share one lock hold, so two racing retries of a
// request serialize — one commits, the other replays, and the journal
// gains exactly one "add".
func commit(t *Tenant, series string, iter int, kind string, raw []byte, payloadCRC uint32) (replay *checkpoint.CommittedEntry, err error) {
	err = t.WithStore(func(st *checkpoint.Store) error {
		if ce, ok := st.Committed(series, iter); ok {
			if !replayMatch(ce, payloadCRC) {
				return conflictErr(series, iter, ce, payloadCRC)
			}
			replay = &ce
			return nil
		}
		switch kind {
		case "delta":
			return st.WriteRawDeltaPayload(series, iter, raw, payloadCRC)
		case "full":
			return st.WriteRawFullPayload(series, iter, raw, payloadCRC)
		}
		return nil
	})
	return replay, err
}

// chainHasIter reports, through the lock-free read view, whether the
// series' chain already holds an entry for iter. Advisory only: the
// view can lag the writer, so commit paths re-check under the lock.
func chainHasIter(t *Tenant, series string, iter int) bool {
	view, err := t.View()
	if err != nil {
		return false
	}
	entries, err := view.Chain(series)
	if err != nil {
		return false
	}
	for _, ce := range entries {
		if ce.Iteration == iter {
			return true
		}
	}
	return false
}

// replayed answers a retried commit whose payload is already
// journaled: 200 (not 201 — nothing was created) with the committed
// entry's identity and Replayed set.
func replayed(t *Tenant, series string, iter int, ce *checkpoint.CommittedEntry) (CommitResponse, int, error) {
	t.rec.Add(obs.CounterCommitReplays, 1)
	return CommitResponse{
		Tenant: t.Name(), Variable: series, Iteration: iter,
		Kind: ce.Kind, FileBytes: ce.Len, Replayed: true,
	}, http.StatusOK, nil
}

// handlePostCheckpoint commits one iteration. The default body is the
// iteration's raw little-endian float64 state: the daemon spools it
// (the pipeline reads its source twice), reconstructs the previous
// iteration from the chain for a delta encode, runs the out-of-core
// pipeline, and commits the result. With ?raw=1 the body is an
// already-encoded NMRKF1/NMRKD1/NMRKD2 file committed as-is after
// validation — the wire format is exactly the file format.
//
// Query: iter (required), kind=auto|full|delta (default auto: delta
// when the chain reaches iter-1), raw=1, plus the per-request encode
// overrides e, b, strategy, chunk, workers, budget.
func (s *Server) handlePostCheckpoint(w http.ResponseWriter, r *http.Request) {
	t, series, err := s.tenantSeries(r)
	if err != nil {
		writeError(w, err)
		return
	}
	q := r.URL.Query()
	iter, err := strconv.Atoi(q.Get("iter"))
	if err != nil {
		writeError(w, fmt.Errorf("%w: iter=%q", errBadRequest, q.Get("iter")))
		return
	}
	if err := checkpoint.ValidateVariable(series); err != nil {
		writeError(w, err)
		return
	}
	opt, cfg, err := s.requestParams(q)
	if err != nil {
		writeError(w, err)
		return
	}
	spoolPath, size, payloadCRC, err := s.spool(r.Body)
	if err != nil {
		writeError(w, err)
		return
	}
	defer s.releaseSpool(spoolPath)
	// A leftover spool file is inert scratch; cleanup is best-effort.
	defer os.Remove(spoolPath)
	if err := declaredCRC(r, payloadCRC); err != nil {
		writeError(w, err)
		return
	}

	resp, status, err := s.commitSpooled(r, t, series, iter, q, opt, cfg, spoolPath, size, payloadCRC)
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, status, resp)
}

// commitSpooled commits a fully received body — a one-shot POST's
// spool file or a finished upload session's data file — by the route
// its query selects, and returns what to answer: the commit response
// with 201 for a new commit or 200 for a replay, or the error for
// writeError to render.
func (s *Server) commitSpooled(r *http.Request, t *Tenant, series string, iter int, q url.Values, opt core.Options, cfg chunk.Config, path string, size int64, payloadCRC uint32) (CommitResponse, int, error) {
	if q.Get("raw") == "1" {
		return s.commitRaw(r, t, series, iter, path, size, payloadCRC)
	}
	return s.commitValues(r, t, series, iter, q.Get("kind"), opt, cfg, path, size, payloadCRC)
}

// commitRaw commits an already-encoded checkpoint file byte-for-byte.
// The admission weight is the file size: the bytes are held once for
// validation and commit.
func (s *Server) commitRaw(r *http.Request, t *Tenant, series string, iter int, spoolPath string, size int64, payloadCRC uint32) (CommitResponse, int, error) {
	release, err := s.admit(r, size)
	if err != nil {
		return CommitResponse{}, 0, err
	}
	defer release()
	raw, err := os.ReadFile(spoolPath)
	if err != nil {
		return CommitResponse{}, 0, err
	}
	var kind string
	switch {
	case bytes.HasPrefix(raw, []byte("NMRKD2")), bytes.HasPrefix(raw, []byte("NMRKD1")):
		kind = "delta"
	case bytes.HasPrefix(raw, []byte("NMRKF1")):
		kind = "full"
	default:
		return CommitResponse{}, 0, fmt.Errorf("%w: body is not an NMRKF1/NMRKD1/NMRKD2 checkpoint file", errBadRequest)
	}
	replay, err := commit(t, series, iter, kind, raw, payloadCRC)
	if err != nil {
		return CommitResponse{}, 0, err
	}
	if replay != nil {
		return replayed(t, series, iter, replay)
	}
	t.rec.Add(obs.CounterBytesWritten, int64(len(raw)))
	return CommitResponse{
		Tenant: t.Name(), Variable: series, Iteration: iter, Kind: kind, FileBytes: int64(len(raw)),
	}, http.StatusCreated, nil
}

// commitValues encodes and commits a raw float64 body. Admission
// weights by what the request will actually hold live: a full commit
// materializes the values plus the marshalled file (~2x body); a delta
// adds the resolved pipeline footprint (chunk.ResolveConfig) on top of
// the reconstructed previous iteration and the encoded output.
//
// Replay detection runs twice: a cheap pre-encode probe through the
// read view (so a retried delta commit skips the whole pipeline), and
// again inside the writer critical section as the race backstop — two
// concurrent retries serialize there, and exactly one journals.
func (s *Server) commitValues(r *http.Request, t *Tenant, series string, iter int, kind string, opt core.Options, cfg chunk.Config, spoolPath string, size int64, payloadCRC uint32) (CommitResponse, int, error) {
	if size%8 != 0 {
		return CommitResponse{}, 0, fmt.Errorf("%w: body is %d bytes, not a whole float64 array", errBadRequest, size)
	}
	n := int(size / 8)
	switch kind {
	case "", "auto":
		kind = "full"
		if iter > 0 {
			if v, err := t.View(); err == nil {
				if latest, err := v.LatestRestorable(series); err == nil && latest == iter-1 {
					kind = "delta"
				}
			}
		}
	case "full", "delta":
	default:
		return CommitResponse{}, 0, fmt.Errorf("%w: kind=%q (want auto, full, or delta)", errBadRequest, kind)
	}

	// Pre-encode replay probe: if the chain already holds this
	// iteration, resolve it under the lock before paying for admission
	// and encode. A miss here (entry appears between probe and commit)
	// is caught by the in-lock backstop of the real commit below.
	if chainHasIter(t, series, iter) {
		replay, err := commit(t, series, iter, "", nil, payloadCRC)
		if err != nil {
			return CommitResponse{}, 0, err
		}
		if replay != nil {
			return replayed(t, series, iter, replay)
		}
	}

	resp := CommitResponse{Tenant: t.Name(), Variable: series, Iteration: iter, Kind: kind, Points: n}
	var raw []byte
	if kind == "full" {
		release, err := s.admit(r, 2*size+64)
		if err != nil {
			return CommitResponse{}, 0, err
		}
		defer release()
		vals, err := rawio.ReadFile(spoolPath)
		if err != nil {
			return CommitResponse{}, 0, err
		}
		if raw, err = checkpoint.MarshalFull(series, iter, vals); err != nil {
			return CommitResponse{}, 0, err
		}
	} else {
		resolved, err := chunk.ResolveConfig(cfg)
		if err != nil {
			return CommitResponse{}, 0, err
		}
		release, err := s.admit(r, resolved.PeakBufferBytes+2*size)
		if err != nil {
			return CommitResponse{}, 0, err
		}
		defer release()
		res, buf, err := encodeDelta(t, series, iter, n, opt, resolved.Config, spoolPath)
		if err != nil {
			return CommitResponse{}, 0, err
		}
		raw = buf
		resp.Chunks, resp.ChunkPoints, resp.Workers, resp.ExactValues = res.ChunkCount, res.ChunkPoints, res.Workers, res.ExactCount
	}
	replay, err := commit(t, series, iter, kind, raw, payloadCRC)
	if err != nil {
		return CommitResponse{}, 0, err
	}
	if replay != nil {
		return replayed(t, series, iter, replay)
	}
	if kind == "full" {
		// A delta's bytes were counted as the encode wrote them: the v2
		// writer reports into the same tenant recorder.
		t.rec.Add(obs.CounterBytesWritten, int64(len(raw)))
	}
	resp.FileBytes = int64(len(raw))
	return resp, http.StatusCreated, nil
}

// encodeDelta runs the streaming delta encode of the spooled n-point
// body against the chain's reconstruction of iter-1 (through the
// lock-free read view) and returns the v2 file bytes. The tenant's
// recorder instruments the whole run.
func encodeDelta(t *Tenant, series string, iter, n int, opt core.Options, cfg chunk.Config, spoolPath string) (*chunk.Result, []byte, error) {
	view, err := t.View()
	if err != nil {
		return nil, nil, err
	}
	prevVals, err := view.Restart(series, iter-1)
	if err != nil {
		return nil, nil, err
	}
	if len(prevVals) != n {
		return nil, nil, fmt.Errorf("%w: iteration %d has %d points, body has %d", checkpoint.ErrChain, iter-1, len(prevVals), n)
	}
	cur, err := rawio.OpenFile(spoolPath)
	if err != nil {
		return nil, nil, err
	}
	//lint:ignore errcheck read-only spool source; a close error cannot lose data
	defer cur.Close()
	opt.Obs = t.rec
	cfg.Obs = t.rec
	var buf bytes.Buffer
	res, err := chunk.EncodeDeltaV2(&buf, series, iter, chunk.SliceSource(prevVals), cur, opt, cfg)
	if err != nil {
		return nil, nil, err
	}
	return res, buf.Bytes(), nil
}

// handleGetCheckpoint serves one iteration back. The default response
// body is the reconstructed state as raw little-endian float64 — the
// chain walk (latest full plus delta replay) happens server-side
// through the lock-free read view. ?recover=1 turns chunk-local
// corruption into a partial result: healthy chunks decode, lost ranges
// keep the previous iteration's values, and the exact losses ride in
// the X-Numarck-Partial header. ?raw=1 serves the committed file's
// exact bytes instead (NMRKF1/NMRKD1/NMRKD2, no framing).
func (s *Server) handleGetCheckpoint(w http.ResponseWriter, r *http.Request) {
	t, series, err := s.tenantSeries(r)
	if err != nil {
		writeError(w, err)
		return
	}
	iter, err := strconv.Atoi(r.PathValue("iter"))
	if err != nil {
		writeError(w, fmt.Errorf("%w: iteration %q", errBadRequest, r.PathValue("iter")))
		return
	}
	view, err := t.View()
	if err != nil {
		writeError(w, err)
		return
	}
	if r.URL.Query().Get("raw") == "1" {
		s.serveRaw(w, t, view, series, iter)
		return
	}

	// Weight the decode by the chain segment it must materialize: the
	// reconstructed state is ~the full file's size, held about twice
	// (accumulator plus response buffers), plus the compressed deltas.
	entries, err := view.Chain(series)
	if err != nil {
		writeError(w, err)
		return
	}
	var weight int64
	for _, ce := range entries {
		if ce.Kind == "full" && ce.Iteration <= iter {
			weight = 2 * ce.Len
		} else if ce.Kind == "delta" && ce.Iteration <= iter && weight > 0 {
			weight += ce.Len
		}
	}
	release, err := s.admit(r, weight)
	if err != nil {
		writeError(w, err)
		return
	}
	defer release()

	var vals []float64
	var pde *checkpoint.PartialDataError
	if r.URL.Query().Get("recover") == "1" {
		vals, pde, err = view.RestartSalvage(series, iter)
	} else {
		vals, err = view.Restart(series, iter)
	}
	if err != nil {
		writeError(w, err)
		return
	}
	h := w.Header()
	h.Set("Content-Type", "application/octet-stream")
	h.Set("Content-Length", strconv.FormatInt(8*int64(len(vals)), 10))
	h.Set("X-Numarck-Variable", series)
	h.Set("X-Numarck-Iteration", strconv.Itoa(iter))
	h.Set("X-Numarck-Points", strconv.Itoa(len(vals)))
	if pde != nil {
		info := PartialInfo{LostPoints: pde.LostPoints()}
		for _, lr := range pde.Lost {
			info.Lost = append(info.Lost, RangeJSON{Lo: lr.Lo, Hi: lr.Hi})
		}
		pj, err := json.Marshal(info)
		if err != nil {
			writeError(w, err)
			return
		}
		h.Set("X-Numarck-Partial", string(pj))
	}
	w.WriteHeader(http.StatusOK)
	// Response write failures mean the client is gone; nothing to do.
	_ = rawio.NewWriter(w).WriteFloats(vals)
}

// serveRaw streams the committed file's exact bytes for one iteration.
func (s *Server) serveRaw(w http.ResponseWriter, t *Tenant, view *checkpoint.ReadView, series string, iter int) {
	entries, err := view.Chain(series)
	if err != nil {
		writeError(w, err)
		return
	}
	for _, ce := range entries {
		if ce.Iteration != iter {
			continue
		}
		raw, err := os.ReadFile(t.dir + string(os.PathSeparator) + ce.Name)
		if err != nil {
			writeError(w, err)
			return
		}
		h := w.Header()
		h.Set("Content-Type", "application/octet-stream")
		h.Set("Content-Length", strconv.Itoa(len(raw)))
		h.Set("X-Numarck-Variable", series)
		h.Set("X-Numarck-Iteration", strconv.Itoa(iter))
		h.Set("X-Numarck-Kind", ce.Kind)
		h.Set("X-Numarck-CRC32", strconv.FormatUint(uint64(ce.CRC), 16))
		w.WriteHeader(http.StatusOK)
		//lint:ignore errcheck response write failures mean the client is gone; nothing to recover
		w.Write(raw)
		return
	}
	writeError(w, fmt.Errorf("%w: %s@%d", checkpoint.ErrNotFound, series, iter))
}

// handleSeriesChain reports one series' chain: every committed file
// with its journaled size and CRC, the latest restorable iteration,
// and chain-index health — all from the lock-free read view, so it
// works while a writer holds the store. ?verify=1 additionally runs
// the read view's deep verify and reports this series' issues.
func (s *Server) handleSeriesChain(w http.ResponseWriter, r *http.Request) {
	t, series, err := s.tenantSeries(r)
	if err != nil {
		writeError(w, err)
		return
	}
	view, err := t.View()
	if err != nil {
		writeError(w, err)
		return
	}
	entries, err := view.Chain(series)
	if err != nil {
		writeError(w, err)
		return
	}
	resp := SeriesChainResponse{
		Tenant: t.Name(), Variable: series, LatestRestorable: -1,
		Entries: make([]ChainEntryJSON, 0, len(entries)),
		Index:   indexHealthJSON(view.IndexHealth()),
	}
	for _, ce := range entries {
		resp.Entries = append(resp.Entries, ChainEntryJSON{
			Kind: ce.Kind, Iteration: ce.Iteration, Name: ce.Name, Bytes: ce.Len, CRC32: ce.CRC,
		})
	}
	if latest, err := view.LatestRestorable(series); err == nil {
		resp.LatestRestorable = latest
	}
	if r.URL.Query().Get("verify") == "1" {
		issues, err := view.Verify()
		if err != nil {
			writeError(w, err)
			return
		}
		resp.Verified = true
		for _, is := range issues {
			if is.Variable == series {
				resp.Issues = append(resp.Issues, is.String())
			}
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleTenantChain reports a whole tenant's store: its series, their
// storage stats and latest restorable iterations, and index health.
// ?verify=1 adds the deep lock-free verify across every series.
func (s *Server) handleTenantChain(w http.ResponseWriter, r *http.Request) {
	t, err := s.reg.Tenant(r.PathValue("tenant"))
	if err != nil {
		writeError(w, err)
		return
	}
	view, err := t.View()
	if err != nil {
		writeError(w, err)
		return
	}
	vars, err := view.Variables()
	if err != nil {
		writeError(w, err)
		return
	}
	stats, err := view.Stats()
	if err != nil {
		writeError(w, err)
		return
	}
	resp := TenantChainResponse{
		Tenant: t.Name(), Variables: vars, Stats: stats,
		Latest: map[string]int{}, Index: indexHealthJSON(view.IndexHealth()),
	}
	for _, v := range vars {
		if latest, err := view.LatestRestorable(v); err == nil {
			resp.Latest[v] = latest
		}
	}
	if r.URL.Query().Get("verify") == "1" {
		issues, err := view.Verify()
		if err != nil {
			writeError(w, err)
			return
		}
		resp.Verified = true
		for _, is := range issues {
			resp.Issues = append(resp.Issues, is.String())
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleRestart answers a restarting application's first question:
// which iteration should I resume from? It returns the series' latest
// restorable iteration; the application then GETs that checkpoint.
func (s *Server) handleRestart(w http.ResponseWriter, r *http.Request) {
	t, series, err := s.tenantSeries(r)
	if err != nil {
		writeError(w, err)
		return
	}
	view, err := t.View()
	if err != nil {
		writeError(w, err)
		return
	}
	latest, err := view.LatestRestorable(series)
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, RestartResponse{Tenant: t.Name(), Variable: series, Iteration: latest})
}
