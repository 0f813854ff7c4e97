package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/url"
	"os"
	"slices"
	"strconv"
	"strings"

	"numarck/internal/checkpoint"
	"numarck/internal/chunk"
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

// onlyParams refuses a query that carries a parameter outside allowed,
// naming it: a parameter an endpoint does not read would otherwise be
// silently ignored, and a client that sends e= expects it to count.
func onlyParams(q url.Values, allowed ...string) error {
	for k := range q {
		if !slices.Contains(allowed, k) {
			return fmt.Errorf("%w: unknown query parameter %q (this endpoint reads %s)", errBadRequest, k, strings.Join(allowed, ", "))
		}
	}
	return nil
}

// admit runs governor admission with the server's wait budget.
func (s *Server) admit(r *http.Request, weight int64) (func(), error) {
	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.AdmitWait)
	defer cancel()
	return s.reg.gov.Acquire(ctx, weight)
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
	// ParseUint's bitSize 32 already bounds want
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
// different one to ErrCommitConflict. Otherwise raw is committed
// through Store.WriteRaw, which reads its kind from the bytes, with
// payloadCRC journaled beside it. The check and the write share one
// lock hold, so two racing retries of a request serialize — one
// commits, the other replays, and the journal gains exactly one "add".
// ce is the journaled entry either way.
func commit(t *Tenant, series string, iter int, raw []byte, payloadCRC uint32) (ce checkpoint.CommittedEntry, replay bool, err error) {
	err = t.WithStore(func(st *checkpoint.Store) error {
		if prev, ok := st.Committed(series, iter); ok {
			if !replayMatch(prev, payloadCRC) {
				return conflictErr(series, iter, prev, payloadCRC)
			}
			ce, replay = prev, true
			return nil
		}
		if _, err := st.WriteRaw(series, iter, raw, payloadCRC); err != nil {
			return err
		}
		ce, _ = st.Committed(series, iter)
		return nil
	})
	return ce, replay, err
}

// replayed answers a retried commit whose payload is already
// journaled: 200 (not 201 — nothing was created) with the committed
// entry's identity and Replayed set.
func replayed(t *Tenant, series string, iter int, ce checkpoint.CommittedEntry) (CommitResponse, int, error) {
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
// pipeline with the tenant store's options, and commits the result.
// With ?raw=1 the body is an already-encoded NMRKF1/NMRKD1/NMRKD2 file
// committed as-is after validation — the wire format is exactly the
// file format.
//
// Query: iter (required), kind=auto|full|delta (default auto: delta
// when the chain reaches iter-1), raw=1. Any other parameter is a 400.
func (s *Server) handlePostCheckpoint(w http.ResponseWriter, r *http.Request) {
	t, series, err := s.tenantSeries(r)
	if err != nil {
		s.writeError(w, err)
		return
	}
	q := r.URL.Query()
	if err := onlyParams(q, "iter", "kind", "raw"); err != nil {
		s.writeError(w, err)
		return
	}
	iter, err := strconv.Atoi(q.Get("iter"))
	if err != nil {
		s.writeError(w, fmt.Errorf("%w: iter=%q", errBadRequest, q.Get("iter")))
		return
	}
	spoolPath, size, payloadCRC, err := s.spool(r.Body)
	if err != nil {
		s.writeError(w, err)
		return
	}
	defer s.releaseSpool(spoolPath)
	// A leftover spool file is inert scratch; cleanup is best-effort.
	defer os.Remove(spoolPath)
	if err := declaredCRC(r, payloadCRC); err != nil {
		s.writeError(w, err)
		return
	}

	resp, status, err := s.commitSpooled(r, t, series, iter, q, spoolPath, size, payloadCRC)
	if err != nil {
		s.writeError(w, err)
		return
	}
	writeJSON(w, status, resp)
}

// commitSpooled commits a fully received body — a one-shot POST's
// spool file or a finished upload session's data file — by the route
// its query selects, and returns what to answer: the commit response
// with 201 for a new commit or 200 for a replay, or the error for
// writeError to render. It is one of the tenant's writes in flight
// from entry to return (Tenant.beginWrite).
func (s *Server) commitSpooled(r *http.Request, t *Tenant, series string, iter int, q url.Values, path string, size int64, payloadCRC uint32) (CommitResponse, int, error) {
	defer t.beginWrite()()
	if q.Get("raw") == "1" {
		return s.commitRaw(r, t, series, iter, path, size, payloadCRC)
	}
	return s.commitValues(r, t, series, iter, q.Get("kind"), path, size, payloadCRC)
}

// commitRaw commits an already-encoded checkpoint file byte-for-byte.
// The admission weight is the file size: the bytes are held once for
// validation and commit. Bytes that are not a checkpoint file naming
// series@iter are the client's fault: Store.WriteRaw rejects them with
// ErrBadVariable, a 400.
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
	ce, replay, err := commit(t, series, iter, raw, payloadCRC)
	if err != nil {
		return CommitResponse{}, 0, err
	}
	if replay {
		return replayed(t, series, iter, ce)
	}
	// The daemon did not decode these bytes, so it keeps no head for
	// the series: the next push replays the chain.
	t.setHead(series, nil)
	t.rec.Add(obs.CounterBytesWritten, int64(len(raw)))
	return CommitResponse{
		Tenant: t.Name(), Variable: series, Iteration: iter, Kind: ce.Kind, FileBytes: int64(len(raw)),
	}, http.StatusCreated, nil
}

// commitValues encodes and commits a raw float64 body. Admission
// weights by what the request will actually hold live: a full commit
// materializes the values plus the marshalled file (~2x body); a delta
// adds the pipeline footprint (the server's resolved plan) on top of
// the reconstructed previous iteration and the encoded output.
//
// A retried request is recognized only inside the writer critical
// section, after the encode: two concurrent retries serialize there,
// and exactly one journals. The commit that journals publishes the
// series head: the pushed values after a full, the head it was encoded
// against with the new file replayed onto it after a delta.
func (s *Server) commitValues(r *http.Request, t *Tenant, series string, iter int, kind string, spoolPath string, size int64, payloadCRC uint32) (CommitResponse, int, error) {
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

	resp := CommitResponse{Tenant: t.Name(), Variable: series, Iteration: iter, Kind: kind, Points: n}
	var raw []byte
	// vals and seg are, after a full, the pushed values and an empty
	// segment; after a delta, the state it was encoded against and the
	// segment that state came from.
	var vals []float64
	var seg []checkpoint.ChainEntry
	if kind == "full" {
		release, err := s.admit(r, 2*size+64)
		if err != nil {
			return CommitResponse{}, 0, err
		}
		defer release()
		if vals, err = rawio.ReadFile(spoolPath); err != nil {
			return CommitResponse{}, 0, err
		}
		if raw, err = checkpoint.MarshalFull(series, iter, vals); err != nil {
			return CommitResponse{}, 0, err
		}
	} else {
		release, err := s.admit(r, s.plan.PeakBufferBytes+2*size)
		if err != nil {
			return CommitResponse{}, 0, err
		}
		defer release()
		var res *chunk.Result
		if res, raw, vals, seg, err = encodeDelta(t, series, iter, n, s.plan.Config, spoolPath); err != nil {
			return CommitResponse{}, 0, err
		}
		resp.Chunks, resp.ChunkPoints, resp.Workers, resp.ExactValues = res.ChunkCount, res.ChunkPoints, res.Workers, res.ExactCount
	}
	ce, replay, err := commit(t, series, iter, raw, payloadCRC)
	if err != nil {
		return CommitResponse{}, 0, err
	}
	if replay {
		return replayed(t, series, iter, ce)
	}
	if kind == "full" {
		t.setHead(series, &seriesHead{iter: iter, vals: vals, seg: []checkpoint.ChainEntry{ce.ChainEntry}})
		// A delta's bytes were counted as the encode wrote them: the v2
		// writer reports into the same tenant recorder.
		t.rec.Add(obs.CounterBytesWritten, int64(len(raw)))
	} else {
		t.advanceHead(series, iter, vals, seg, raw, ce)
	}
	resp.FileBytes = int64(len(raw))
	return resp, http.StatusCreated, nil
}

// encodeDelta runs the streaming delta encode of the spooled n-point
// body against iteration iter-1's state — the series head, or the
// chain's reconstruction through the lock-free read view
// (Tenant.prevState) — with the options the tenant's store was created
// with. It returns the v2 file bytes, and the state and chain segment
// they were encoded against. The tenant's recorder instruments the
// whole run.
func encodeDelta(t *Tenant, series string, iter, n int, cfg chunk.Config, spoolPath string) (res *chunk.Result, raw []byte, prev []float64, seg []checkpoint.ChainEntry, err error) {
	view, err := t.View()
	if err != nil {
		return nil, nil, nil, nil, err
	}
	if prev, seg, err = t.prevState(view, series, iter); err != nil {
		return nil, nil, nil, nil, err
	}
	if len(prev) != n {
		return nil, nil, nil, nil, fmt.Errorf("%w: iteration %d has %d points, body has %d", checkpoint.ErrChain, iter-1, len(prev), n)
	}
	cur, err := rawio.OpenFile(spoolPath)
	if err != nil {
		return nil, nil, nil, nil, err
	}
	//lint:ignore errcheck read-only spool source; a close error cannot lose data
	defer cur.Close()
	opt := view.Options()
	opt.Obs = t.rec
	cfg.Obs = t.rec
	var buf bytes.Buffer
	if res, err = chunk.EncodeDeltaV2(&buf, series, iter, chunk.SliceSource(prev), cur, opt, cfg); err != nil {
		return nil, nil, nil, nil, err
	}
	return res, buf.Bytes(), prev, seg, nil
}

// handleGetCheckpoint serves one iteration back. The default response
// body is the reconstructed state as raw little-endian float64: the
// series head when it is at that iteration and every byte of its chain
// segment checks against the journal, otherwise the chain walk (latest
// full plus delta replay) server-side through the lock-free read view.
// ?recover=1 turns chunk-local corruption into a partial result:
// healthy chunks decode, lost ranges keep the previous iteration's
// values, and the exact losses ride in the X-Numarck-Partial header.
// ?raw=1 serves the committed file's exact bytes instead
// (NMRKF1/NMRKD1/NMRKD2, no framing).
func (s *Server) handleGetCheckpoint(w http.ResponseWriter, r *http.Request) {
	t, series, err := s.tenantSeries(r)
	if err != nil {
		s.writeError(w, err)
		return
	}
	iter, err := strconv.Atoi(r.PathValue("iter"))
	if err != nil {
		s.writeError(w, fmt.Errorf("%w: iteration %q", errBadRequest, r.PathValue("iter")))
		return
	}
	view, err := t.View()
	if err != nil {
		s.writeError(w, err)
		return
	}
	if r.URL.Query().Get("raw") == "1" {
		s.serveRaw(w, view, series, iter)
		return
	}

	// Weight the decode by the chain segment it must materialize: the
	// reconstructed state is ~the full file's size, held about twice
	// (accumulator plus response buffers), plus the compressed deltas.
	// A fetch the head serves is charged the same, and holds less.
	entries, err := view.Chain(series)
	if err != nil {
		s.writeError(w, err)
		return
	}
	var weight int64
	seg, _ := checkpoint.Segment(entries, iter)
	if len(seg) > 0 {
		weight = seg[0].Len
	}
	for _, ce := range seg {
		weight += ce.Len
	}
	release, err := s.admit(r, weight)
	if err != nil {
		s.writeError(w, err)
		return
	}
	defer release()

	vals, fromHead := t.headValues(view, series, iter, seg)
	var pde *checkpoint.PartialDataError
	switch {
	case fromHead:
	case r.URL.Query().Get("recover") == "1":
		vals, pde, err = view.RestartSalvage(series, iter)
	default:
		vals, err = view.Restart(series, iter)
	}
	if err != nil {
		s.writeError(w, err)
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
			s.writeError(w, err)
			return
		}
		h.Set("X-Numarck-Partial", string(pj))
	}
	w.WriteHeader(http.StatusOK)
	// Response write failures mean the client is gone; nothing to do.
	_ = rawio.NewWriter(w).WriteFloats(vals)
}

// serveRaw sends the committed file's exact bytes for one iteration,
// and only those: a file whose length or CRC differs from its journal
// record is ErrCorrupt (ReadView.CopyFile's check) before a byte goes
// out.
func (s *Server) serveRaw(w http.ResponseWriter, view *checkpoint.ReadView, series string, iter int) {
	entries, err := view.Chain(series)
	if err != nil {
		s.writeError(w, err)
		return
	}
	for _, ce := range entries {
		if ce.Iteration != iter {
			continue
		}
		var raw bytes.Buffer
		if err := view.CopyFile(&raw, ce); err != nil {
			s.writeError(w, err)
			return
		}
		h := w.Header()
		h.Set("Content-Type", "application/octet-stream")
		h.Set("Content-Length", strconv.Itoa(raw.Len()))
		h.Set("X-Numarck-Variable", series)
		h.Set("X-Numarck-Iteration", strconv.Itoa(iter))
		h.Set("X-Numarck-Kind", ce.Kind)
		h.Set("X-Numarck-CRC32", strconv.FormatUint(uint64(ce.CRC), 16))
		w.WriteHeader(http.StatusOK)
		//lint:ignore errcheck response write failures mean the client is gone; nothing to recover
		w.Write(raw.Bytes())
		return
	}
	s.writeError(w, fmt.Errorf("%w: %s@%d", checkpoint.ErrNotFound, series, iter))
}

// handleSeriesChain reports one series' chain: every committed file
// with its journaled size and CRC, the latest restorable iteration,
// and chain-index health — all from the lock-free read view, so it
// works while a writer holds the store. ?verify=1 additionally runs
// the read view's deep verify and reports this series' issues.
func (s *Server) handleSeriesChain(w http.ResponseWriter, r *http.Request) {
	t, series, err := s.tenantSeries(r)
	if err != nil {
		s.writeError(w, err)
		return
	}
	view, err := t.View()
	if err != nil {
		s.writeError(w, err)
		return
	}
	entries, err := view.Chain(series)
	if err != nil {
		s.writeError(w, err)
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
			s.writeError(w, err)
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
		s.writeError(w, err)
		return
	}
	view, err := t.View()
	if err != nil {
		s.writeError(w, err)
		return
	}
	vars, err := view.Variables()
	if err != nil {
		s.writeError(w, err)
		return
	}
	stats, err := view.Stats()
	if err != nil {
		s.writeError(w, err)
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
			s.writeError(w, err)
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
		s.writeError(w, err)
		return
	}
	view, err := t.View()
	if err != nil {
		s.writeError(w, err)
		return
	}
	latest, err := view.LatestRestorable(series)
	if err != nil {
		s.writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, RestartResponse{Tenant: t.Name(), Variable: series, Iteration: latest})
}
