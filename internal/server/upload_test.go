package server

// Protocol-level tests for resumable upload sessions: the atomic-range
// rule (a bad or torn range changes nothing), duplicate-range
// idempotency, gap rejection, finalize preconditions, finalize replay,
// and session-id hygiene.

import (
	"bytes"
	"encoding/json"
	"hash/crc32"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"testing"
)

// crcHeader renders a byte slice's CRC-32 the way the wire headers
// carry it (decimal, matching strconv.ParseUint in the handlers).
func crcHeader(b []byte) string {
	return strconv.FormatUint(uint64(crc32.ChecksumIEEE(b)), 10)
}

// uploadHarness wires the raw HTTP moves of the upload protocol so the
// tests below can speak it without the Client's conveniences (or its
// correctness — the point is to probe server behavior off the happy
// path).
type uploadHarness struct {
	t       *testing.T
	base    string
	http    *http.Client
	payload []byte
	id      string
}

func newUploadHarness(t *testing.T, size int) *uploadHarness {
	t.Helper()
	_, ts := newTestServer(t, 0, 0)
	h := &uploadHarness{t: t, base: ts.URL, http: ts.Client(), payload: floatBytes(seriesValues(0, size/8))}
	resp := h.do("POST", h.base+"/v1/t0/v/uploads?iter=0&size="+strconv.Itoa(len(h.payload)), nil, nil)
	ur := h.decode(resp, http.StatusCreated)
	if ur.State != "open" || ur.Received != 0 {
		t.Fatalf("fresh session = %+v", ur)
	}
	h.id = ur.ID
	return h
}

func (h *uploadHarness) do(method, url string, body []byte, hdr map[string]string) *http.Response {
	h.t.Helper()
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		h.t.Fatal(err)
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := h.http.Do(req)
	if err != nil {
		h.t.Fatal(err)
	}
	return resp
}

// putRange sends payload[off:off+n] with its true CRC.
func (h *uploadHarness) putRange(off, n int) *http.Response {
	h.t.Helper()
	part := h.payload[off : off+n]
	return h.do("PUT", h.base+"/v1/uploads/"+h.id, part, map[string]string{
		UploadOffsetHeader: strconv.Itoa(off),
		RangeCRCHeader:     crcHeader(part),
	})
}

// decode reads an UploadResponse, asserting the status.
func (h *uploadHarness) decode(resp *http.Response, want int) UploadResponse {
	h.t.Helper()
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		h.t.Fatal(err)
	}
	if resp.StatusCode != want {
		h.t.Fatalf("status %d, want %d; body: %s", resp.StatusCode, want, raw)
	}
	var ur UploadResponse
	if err := json.Unmarshal(raw, &ur); err != nil {
		h.t.Fatalf("decode %q: %v", raw, err)
	}
	return ur
}

// decodeErr reads an APIError, asserting status and class.
func (h *uploadHarness) decodeErr(resp *http.Response, status int, class string) {
	h.t.Helper()
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		h.t.Fatal(err)
	}
	if resp.StatusCode != status {
		h.t.Fatalf("status %d, want %d; body: %s", resp.StatusCode, status, raw)
	}
	var ae APIError
	if err := json.Unmarshal(raw, &ae); err != nil {
		h.t.Fatalf("decode %q: %v", raw, err)
	}
	if ae.Class != class {
		h.t.Fatalf("class %q, want %q (detail: %s)", ae.Class, class, ae.Detail)
	}
}

// received reads the session's progress twice, through the raw GET and
// through Client.UploadStatus, and requires the two to agree.
func (h *uploadHarness) received() int64 {
	h.t.Helper()
	raw := h.decode(h.do("GET", h.base+"/v1/uploads/"+h.id+"/status", nil, nil), http.StatusOK)
	c := &Client{Base: h.base, Tenant: "t0", HTTP: h.http}
	us, err := c.UploadStatus(h.id)
	if err != nil {
		h.t.Fatalf("Client.UploadStatus: %v", err)
	}
	if !reflect.DeepEqual(*us, raw) {
		h.t.Fatalf("Client.UploadStatus = %+v, the raw GET says %+v", *us, raw)
	}
	return raw.Received
}

// TestUploadRangeProtocol walks the per-range rules: duplicates are
// idempotent no-ops, gaps are 409s, corrupt ranges are 400s that leave
// the session untouched, and overlap-with-progress appends only the
// new suffix.
func TestUploadRangeProtocol(t *testing.T) {
	h := newUploadHarness(t, 4096)

	ur := h.decode(h.putRange(0, 1024), http.StatusOK)
	if ur.Received != 1024 {
		t.Fatalf("received %d after first range, want 1024", ur.Received)
	}
	// Duplicate of a fully-covered range: 200, no progress change.
	ur = h.decode(h.putRange(0, 1024), http.StatusOK)
	if ur.Received != 1024 {
		t.Fatalf("received %d after duplicate range, want still 1024", ur.Received)
	}
	// A range starting beyond the prefix is a gap.
	h.decodeErr(h.putRange(2048, 1024), http.StatusConflict, "upload_gap")
	// A range whose declared CRC disagrees with its bytes is rejected
	// whole; the session must not absorb any of it.
	part := h.payload[1024:2048]
	resp := h.do("PUT", h.base+"/v1/uploads/"+h.id, part, map[string]string{
		UploadOffsetHeader: "1024",
		RangeCRCHeader:     strconv.FormatUint(uint64(crc32.ChecksumIEEE(part)^1), 10),
	})
	h.decodeErr(resp, http.StatusBadRequest, "bad_request")
	if got := h.received(); got != 1024 {
		t.Fatalf("received %d after corrupt range, want untouched 1024", got)
	}
	// An overlapping resend (a retry that started earlier than needed)
	// must skip the covered head and append only the tail.
	ur = h.decode(h.putRange(512, 1024), http.StatusOK)
	if ur.Received != 1536 {
		t.Fatalf("received %d after overlapping range, want 1536", ur.Received)
	}
	// A range overrunning the declared size is malformed.
	resp = h.do("PUT", h.base+"/v1/uploads/"+h.id, h.payload[:4096], map[string]string{
		UploadOffsetHeader: "1536",
		RangeCRCHeader:     crcHeader(h.payload[:4096]),
	})
	h.decodeErr(resp, http.StatusBadRequest, "bad_request")
}

// TestUploadFinalize covers the finalize gate and its replay: an
// incomplete session cannot finalize; a complete one commits through
// the normal pipeline; finalizing again replays the cached commit
// without touching the store.
func TestUploadFinalize(t *testing.T) {
	h := newUploadHarness(t, 2048)
	finURL := h.base + "/v1/uploads/" + h.id + "/finalize"

	h.decodeErr(h.do("POST", finURL, nil, nil), http.StatusConflict, "upload_gap")
	h.decode(h.putRange(0, 1024), http.StatusOK)
	h.decode(h.putRange(1024, len(h.payload)-1024), http.StatusOK)

	// A fresh finalize relays the commit pipeline's own 201.
	ur := h.decode(h.do("POST", finURL, nil, nil), http.StatusCreated)
	if ur.State != "done" || ur.Commit == nil || ur.Commit.Kind != "full" {
		t.Fatalf("finalized session = %+v", ur)
	}
	// Replay: identical answer, and the commit must not run again.
	again := h.decode(h.do("POST", finURL, nil, nil), http.StatusOK)
	if again.State != "done" || again.Commit == nil || *again.Commit != *ur.Commit {
		t.Fatalf("finalize replay = %+v, want cached %+v", again, ur)
	}
	// The finalized payload reads back through the normal fetch path.
	resp := h.do("GET", h.base+"/v1/t0/v/checkpoints/0", nil, nil)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("fetch after finalize: status %d", resp.StatusCode)
	}
	if _, err := io.Copy(io.Discard, resp.Body); err != nil {
		t.Fatal(err)
	}
	// Late range against a done session: 200 with done state, no append.
	ur = h.decode(h.putRange(0, 1024), http.StatusOK)
	if ur.State != "done" {
		t.Fatalf("range after finalize answered state %q, want done", ur.State)
	}
}

// TestUploadFinalizeCRCMismatch declares a whole-payload CRC at
// finalize that disagrees with the received bytes; the session must
// stay open for correction rather than commit corrupt data.
func TestUploadFinalizeCRCMismatch(t *testing.T) {
	h := newUploadHarness(t, 1024)
	h.decode(h.putRange(0, len(h.payload)), http.StatusOK)
	resp := h.do("POST", h.base+"/v1/uploads/"+h.id+"/finalize", nil, map[string]string{
		PayloadCRCHeader: strconv.FormatUint(uint64(crc32.ChecksumIEEE(h.payload)^1), 10),
	})
	h.decodeErr(resp, http.StatusBadRequest, "bad_request")
	ur := h.decode(h.do("GET", h.base+"/v1/uploads/"+h.id+"/status", nil, nil), http.StatusOK)
	if ur.State != "open" {
		t.Fatalf("session state %q after rejected finalize, want open", ur.State)
	}
}

// TestUploadSessionHygiene checks id handling: unknown and malformed
// session ids are clean 404s, and session creation validates its
// parameters up front.
func TestUploadSessionHygiene(t *testing.T) {
	h := newUploadHarness(t, 1024)
	h.decodeErr(h.do("GET", h.base+"/v1/uploads/00000000000000000000000000000000/status", nil, nil),
		http.StatusNotFound, "not_found")
	h.decodeErr(h.do("GET", h.base+"/v1/uploads/zzzzzzzzzzzzzzzzzzzzzzzzzzzzzzzz/status", nil, nil),
		http.StatusNotFound, "not_found")
	h.decodeErr(h.do("PUT", h.base+"/v1/uploads/nothex!", []byte("x"), map[string]string{
		UploadOffsetHeader: "0",
	}), http.StatusNotFound, "not_found")
	h.decodeErr(h.do("POST", h.base+"/v1/t0/v/uploads?iter=0&size=0", nil, nil),
		http.StatusBadRequest, "bad_request")
	h.decodeErr(h.do("POST", h.base+"/v1/t0/v/uploads?iter=nope&size=8", nil, nil),
		http.StatusBadRequest, "bad_request")
}

// TestUploadResumeAfterDirtyCrash replays the worst crash window the
// resume protocol has: a daemon writes a range's bytes into the data
// file but dies before the meta.json rename, so the file on disk runs
// ahead of the durable Received — and the running CRC covers only the
// durable prefix. The reloaded session must place the re-sent range at
// Received, not at the file's end, and the finalized iteration must be
// byte-identical to a fault-free commit of the same payload.
func TestUploadResumeAfterDirtyCrash(t *testing.T) {
	s, ts := newTestServer(t, 0, 0)
	payload := floatBytes(seriesValues(0, 256))
	h := &uploadHarness{t: t, base: ts.URL, http: ts.Client(), payload: payload}
	ur := h.decode(h.do("POST", ts.URL+"/v1/t0/v/uploads?iter=0&size="+strconv.Itoa(len(payload)), nil, nil), http.StatusCreated)
	h.id = ur.ID
	h.decode(h.putRange(0, 1024), http.StatusOK)

	// Crash: 512 bytes of the next range reached the data file, but the
	// daemon died before meta.json recorded them.
	dataPath := filepath.Join(s.uploads.dir, h.id, "data")
	f, err := os.OpenFile(dataPath, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(payload[1024:1536]); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	// Restart: the in-memory session is gone; the next touch reloads
	// (and reconciles) the session from disk.
	s.uploads.remove(h.id)

	// The client resumes from the durable Received and re-sends the
	// unacknowledged range in full.
	if got := h.received(); got != 1024 {
		t.Fatalf("received after crash = %d, want the durable 1024", got)
	}
	h.decode(h.putRange(1024, len(payload)-1024), http.StatusOK)
	fin := h.do("POST", ts.URL+"/v1/uploads/"+h.id+"/finalize", nil, map[string]string{
		PayloadCRCHeader: crcHeader(payload),
	})
	if ur = h.decode(fin, http.StatusCreated); ur.Commit == nil {
		t.Fatalf("finalize = %+v, want a commit", ur)
	}

	// Byte-identical to a fault-free commit of the same payload.
	c := &Client{Base: ts.URL, Tenant: "t0"}
	if _, err := c.Push("w", 0, bytes.NewReader(payload), nil); err != nil {
		t.Fatal(err)
	}
	var crashed, clean bytes.Buffer
	if _, _, err := c.Fetch("v", 0, &crashed, false); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Fetch("w", 0, &clean, false); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(crashed.Bytes(), clean.Bytes()) {
		t.Fatal("crash-resumed upload reconstructs differently from a fault-free commit")
	}
}
