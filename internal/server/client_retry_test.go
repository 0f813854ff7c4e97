package server

// Client resilience unit and end-to-end tests: connection reuse across
// success and error paths (the drain-and-close satellite), the retry
// budget and its typed give-up, non-JSON error bodies, the backoff
// rules (Retry-After floor, 423 holder-age pacing), and the full
// locked-store scenario — a client backing off against a held writer
// lock and converging once it is released.

import (
	"bytes"
	"context"
	"errors"
	"hash/crc32"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"numarck/internal/checkpoint"
)

// countingClient wraps the default transport with a dial counter, the
// direct measurement of connection reuse: if every response body is
// drained and closed, a sequential client needs exactly one dial.
func countingClient(dials *int32) *http.Client {
	base := http.DefaultTransport.(*http.Transport).Clone()
	d := &net.Dialer{}
	base.DialContext = func(ctx context.Context, network, addr string) (net.Conn, error) {
		atomic.AddInt32(dials, 1)
		return d.DialContext(ctx, network, addr)
	}
	return &http.Client{Transport: base}
}

// TestConnectionReuse drives a mix of success and error responses
// through one client and asserts a single TCP connection carried all
// of them — the regression test for leaked (undrained) bodies on
// error paths.
func TestConnectionReuse(t *testing.T) {
	_, ts := newTestServer(t, 0, 0)
	var dials int32
	c := &Client{Base: ts.URL, Tenant: "t0", HTTP: countingClient(&dials)}

	body := floatBytes(seriesValues(0, 128))
	if _, err := c.Push("v", 0, bytes.NewReader(body), nil); err != nil {
		t.Fatal(err)
	}
	// Replay (200), a 404 read, a 404 restart, a chain report, metrics:
	// every one must recycle the same connection.
	if _, err := c.Push("v", 0, bytes.NewReader(body), nil); err != nil {
		t.Fatal(err)
	}
	var sink bytes.Buffer
	if _, _, err := c.Fetch("v", 9, &sink, false); err == nil {
		t.Fatal("fetch of missing iteration succeeded")
	}
	if _, err := c.RestartPoint("nosuch"); err == nil {
		t.Fatal("restart of missing series succeeded")
	}
	if _, err := c.SeriesChain("v", false); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Metrics(); err != nil {
		t.Fatal(err)
	}
	if n := atomic.LoadInt32(&dials); n != 1 {
		t.Fatalf("client dialed %d times for sequential requests, want 1 (response bodies not drained?)", n)
	}
}

// TestNonJSONErrorBody checks that a bare, unstructured error response
// (a proxy's text, not the daemon's JSON) still comes back as a typed
// *APIError carrying the status and the Retry-After hint.
func TestNonJSONErrorBody(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Retry-After", "7")
		http.Error(w, "bad gateway, sorry", http.StatusBadGateway)
	}))
	t.Cleanup(ts.Close)
	c := &Client{Base: ts.URL, Tenant: "t0"}
	_, err := c.RestartPoint("v")
	var ae *APIError
	if !errors.As(err, &ae) {
		t.Fatalf("error = %v, want *APIError", err)
	}
	if ae.Status != http.StatusBadGateway || ae.Class != "http" || ae.RetryAfterSec != 7 {
		t.Fatalf("decoded %+v, want status 502, class http, retry-after 7", ae)
	}
	if !retryable(ae) {
		t.Fatal("a 502 must be retryable")
	}
}

// TestRetryOnFlaky503 checks a client outlives a server that fails a
// request a few times before succeeding, and that the retry budget is
// what bounds it.
func TestRetryOnFlaky503(t *testing.T) {
	var hits int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if atomic.AddInt32(&hits, 1) <= 2 {
			http.Error(w, "warming up", http.StatusServiceUnavailable)
			return
		}
		writeJSON(w, http.StatusOK, RestartResponse{Tenant: "t0", Variable: "v", Iteration: 3})
	}))
	t.Cleanup(ts.Close)

	var slept []time.Duration
	c := &Client{Base: ts.URL, Tenant: "t0", Retry: RetryPolicy{
		MaxAttempts: 5, BaseDelay: time.Millisecond, MaxDelay: 4 * time.Millisecond,
		Sleep: func(d time.Duration) { slept = append(slept, d) },
	}}
	rr, err := c.RestartPoint("v")
	if err != nil {
		t.Fatal(err)
	}
	if rr.Iteration != 3 {
		t.Fatalf("iteration = %d, want 3", rr.Iteration)
	}
	if len(slept) != 2 {
		t.Fatalf("slept %d times, want 2", len(slept))
	}

	// A budget of 2 cannot outlast 2 failures plus the success: reset
	// the server and prove the typed give-up.
	atomic.StoreInt32(&hits, -100)
	c.Retry.MaxAttempts = 2
	_, err = c.RestartPoint("v")
	var re *RetryExhaustedError
	if !errors.As(err, &re) || re.Attempts != 2 {
		t.Fatalf("error = %v, want RetryExhaustedError after 2 attempts", err)
	}
	var ae *APIError
	if !errors.As(err, &ae) || ae.Status != http.StatusServiceUnavailable {
		t.Fatalf("give-up does not unwrap to the 503: %v", err)
	}
}

// TestNonRetryableStatus checks 4xx truths are returned immediately:
// one attempt, no sleeps, no RetryExhaustedError wrapper.
func TestNonRetryableStatus(t *testing.T) {
	var hits int32
	s, _ := newTestServer(t, 0, 0)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		atomic.AddInt32(&hits, 1)
		s.writeError(w, errBadRequest)
	}))
	t.Cleanup(ts.Close)
	c := &Client{Base: ts.URL, Tenant: "t0", Retry: RetryPolicy{
		MaxAttempts: 5,
		Sleep:       func(time.Duration) { t.Error("slept before a non-retryable error") },
	}}
	_, err := c.RestartPoint("v")
	var ae *APIError
	if !errors.As(err, &ae) || ae.Status != http.StatusBadRequest {
		t.Fatalf("error = %v, want the 400 APIError itself", err)
	}
	var re *RetryExhaustedError
	if errors.As(err, &re) {
		t.Fatalf("400 came wrapped in a give-up: %v", err)
	}
	if atomic.LoadInt32(&hits) != 1 {
		t.Fatalf("server saw %d attempts for a 400, want 1", hits)
	}
}

// TestBackoffRules pins the delay policy: exponential growth under the
// cap, the server's Retry-After as a floor, the 423 holder-age rule
// overriding both, and jitter staying within [d/2, d].
func TestBackoffRules(t *testing.T) {
	c := &Client{Retry: RetryPolicy{BaseDelay: 10 * time.Millisecond, MaxDelay: time.Second}}

	if d := c.backoff(1, errors.New("conn refused")); d != 10*time.Millisecond {
		t.Fatalf("first backoff = %v, want BaseDelay", d)
	}
	if d := c.backoff(3, errors.New("conn refused")); d != 40*time.Millisecond {
		t.Fatalf("third backoff = %v, want 4x BaseDelay", d)
	}
	if d := c.backoff(20, errors.New("conn refused")); d != time.Second {
		t.Fatalf("deep backoff = %v, want MaxDelay cap", d)
	}
	if d := c.backoff(1, &APIError{Status: 429, RetryAfterSec: 2}); d != 2*time.Second {
		t.Fatalf("Retry-After backoff = %v, want the 2s floor", d)
	}
	// A lock held for 3s: poll at ~300ms, not the 1s Retry-After.
	if d := c.backoff(1, &APIError{Status: 423, HolderAgeMs: 3000, RetryAfterSec: 1}); d != 300*time.Millisecond {
		t.Fatalf("423 backoff = %v, want holder-age/10", d)
	}
	// Holder age clamps into [BaseDelay, MaxDelay].
	if d := c.backoff(1, &APIError{Status: 423, HolderAgeMs: 1}); d != 10*time.Millisecond {
		t.Fatalf("young-lock backoff = %v, want BaseDelay clamp", d)
	}
	if d := c.backoff(1, &APIError{Status: 423, HolderAgeMs: 3600000}); d != time.Second {
		t.Fatalf("old-lock backoff = %v, want MaxDelay clamp", d)
	}
	c.Retry.Jitter = rand.New(rand.NewSource(42))
	for i := 0; i < 50; i++ {
		d := c.backoff(2, errors.New("x"))
		if d < 10*time.Millisecond || d > 20*time.Millisecond {
			t.Fatalf("jittered backoff %v outside [d/2, d]", d)
		}
	}
}

// TestLockedStoreEndToEnd is the 423 satellite: an external writer
// (an operator CLI, here the test itself) holds a tenant's store lock;
// a one-shot client sees the decoded 423 with the holder's PID, and a
// retrying client backs off until the lock is released, then commits.
func TestLockedStoreEndToEnd(t *testing.T) {
	s, ts := newTestServer(t, 0, 0)
	dir := filepath.Join(s.Registry().Root(), "t0")
	opt, err := testOptions(t).Validate()
	if err != nil {
		t.Fatal(err)
	}
	st, err := checkpoint.Create(dir, opt)
	if err != nil {
		t.Fatal(err)
	}

	body := floatBytes(seriesValues(0, 64))
	one := &Client{Base: ts.URL, Tenant: "t0"}
	_, err = one.Push("v", 0, bytes.NewReader(body), nil)
	var ae *APIError
	if !errors.As(err, &ae) {
		t.Fatalf("error = %v, want *APIError", err)
	}
	if ae.Status != http.StatusLocked || ae.Class != "store_locked" {
		t.Fatalf("locked store answered %d %s, want 423 store_locked", ae.Status, ae.Class)
	}
	if ae.HolderPID != os.Getpid() {
		t.Fatalf("holder pid %d, want this process (%d)", ae.HolderPID, os.Getpid())
	}
	if ae.HolderAgeMs < 0 || ae.RetryAfterSec < 1 {
		t.Fatalf("423 carries no retry hint: %+v", ae)
	}

	// The retrying client releases the lock from its second backoff —
	// the moment a real operator would finish — and must then succeed.
	var sleeps int32
	retrier := &Client{Base: ts.URL, Tenant: "t0", Retry: RetryPolicy{
		MaxAttempts: 10, BaseDelay: time.Millisecond, MaxDelay: 4 * time.Millisecond,
		Sleep: func(time.Duration) {
			if atomic.AddInt32(&sleeps, 1) == 2 {
				if cerr := st.Close(); cerr != nil {
					t.Errorf("release lock: %v", cerr)
				}
			}
		},
	}}
	cr, err := retrier.Push("v", 0, bytes.NewReader(body), nil)
	if err != nil {
		t.Fatalf("push against a released lock: %v", err)
	}
	if cr.Kind != "full" || cr.Replayed {
		t.Fatalf("commit = %+v, want a fresh full commit", cr)
	}
	if n := atomic.LoadInt32(&sleeps); n < 2 {
		t.Fatalf("client slept %d times, want at least 2 (never backed off)", n)
	}
}

// nonSeeker hides a reader's Seek method, modeling a genuine stream (a
// pipe, a generator) that can only be read forward once.
type nonSeeker struct{ r io.Reader }

func (n nonSeeker) Read(p []byte) (int, error) { return n.r.Read(p) }

// TestPayloadBodySpoolsNonSeekable pins Push's memory contract: a
// non-seekable body is spooled to a temp file — never materialized in
// client RAM — while still yielding the right CRC and the full
// payload, and cleanup removes the spool afterwards.
func TestPayloadBodySpoolsNonSeekable(t *testing.T) {
	data := floatBytes(seriesValues(0, 64))
	r, crc, cleanup, err := payloadBody(nonSeeker{bytes.NewReader(data)})
	if err != nil {
		t.Fatal(err)
	}
	if want := crc32.ChecksumIEEE(data); crc != want {
		t.Fatalf("crc = %08x, want %08x", crc, want)
	}
	f, ok := r.(*os.File)
	if !ok {
		t.Fatalf("non-seekable body became %T, want a temp-file spool", r)
	}
	got, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("spooled body does not match the source stream")
	}
	cleanup()
	if _, err := os.Stat(f.Name()); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("cleanup left the spool behind: %v", err)
	}

	// A seekable body must pass through untouched — no spool, no copy.
	br := bytes.NewReader(data)
	r, _, cleanup, err = payloadBody(br)
	if err != nil {
		t.Fatal(err)
	}
	defer cleanup()
	if r != io.Reader(br) {
		t.Fatalf("seekable body became %T, want the reader itself", r)
	}
}

// TestPushNonSeekableBody commits through Push with a stream-only body
// (retries enabled), proving the spool replays correctly end to end.
func TestPushNonSeekableBody(t *testing.T) {
	_, ts := newTestServer(t, 0, 0)
	c := &Client{Base: ts.URL, Tenant: "t0", Retry: RetryPolicy{MaxAttempts: 3, Sleep: func(time.Duration) {}}}
	body := floatBytes(seriesValues(0, 128))
	cr, err := c.Push("v", 0, nonSeeker{bytes.NewReader(body)}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if cr.Replayed {
		t.Fatalf("fresh push replayed: %+v", cr)
	}
}

// TestBackoffJitterConcurrent hammers one Client's jittered backoff
// from many goroutines. Under -race this pins that draws from the
// shared jitter source are synchronized; the bounds check keeps the
// [d/2, d] contract honest while it runs.
func TestBackoffJitterConcurrent(t *testing.T) {
	c := &Client{Retry: RetryPolicy{
		BaseDelay: time.Millisecond, MaxDelay: time.Second,
		Jitter: rand.New(rand.NewSource(1)),
	}}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				// attempt 3: d = 4ms, jittered into [2ms, 4ms].
				if d := c.backoff(3, errors.New("x")); d < 2*time.Millisecond || d > 4*time.Millisecond {
					t.Errorf("jittered backoff %v outside [d/2, d]", d)
					return
				}
			}
		}()
	}
	wg.Wait()
}
