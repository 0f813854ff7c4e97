package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"

	"numarck/internal/obs"
)

// RetryPolicy tells a Client how to survive a flaky network: how many
// attempts each logical call gets, how backoff between them grows, and
// how long any single attempt may run. The zero policy retries
// nothing — every call is one attempt that returns its raw error, which
// keeps the zero Client's behavior unchanged.
type RetryPolicy struct {
	// MaxAttempts is the total attempt budget per call (first try
	// included). Values <= 1 disable retries.
	MaxAttempts int
	// BaseDelay seeds the exponential backoff (default 50ms); MaxDelay
	// caps it (default 2s). A server Retry-After hint acts as a floor
	// over the computed delay; a 423 lock-held response instead waits
	// a tenth of the holder's age, clamped to [BaseDelay, MaxDelay].
	BaseDelay time.Duration
	MaxDelay  time.Duration
	// PerAttemptTimeout bounds each individual attempt (0 = none); the
	// overall call can still span MaxAttempts of them plus backoff.
	PerAttemptTimeout time.Duration
	// Jitter randomizes each delay into [d/2, d] to spread retry
	// stampedes. Nil keeps delays deterministic. The Client guards this
	// source internally (rand.Rand is not goroutine-safe), so one
	// Client may retry from many goroutines; sharing the same *rand.Rand
	// across multiple Clients is still a race and is the caller's to
	// avoid.
	Jitter *rand.Rand
	// Sleep replaces time.Sleep between attempts (tests inject a
	// recorder; nil sleeps for real).
	Sleep func(time.Duration)
}

// RetryExhaustedError is the typed give-up: every attempt the policy
// allowed failed, and Last is the final attempt's error (reachable
// through errors.As/Is via Unwrap).
type RetryExhaustedError struct {
	// Attempts is how many attempts were made.
	Attempts int
	// Last is the final attempt's error.
	Last error
}

// Error renders the give-up with its cause.
func (e *RetryExhaustedError) Error() string {
	return fmt.Sprintf("server: gave up after %d attempts: %v", e.Attempts, e.Last)
}

// Unwrap exposes the final attempt's error to errors.Is/As.
func (e *RetryExhaustedError) Unwrap() error { return e.Last }

// terminalError marks an error that must not be retried even though it
// is not a structured API rejection (e.g. the caller's local writer
// failed after bytes were already delivered).
type terminalError struct{ err error }

// Error renders the wrapped error.
func (e *terminalError) Error() string { return e.err.Error() }

// Unwrap exposes the wrapped error.
func (e *terminalError) Unwrap() error { return e.err }

// retryable decides whether another attempt could change the outcome.
// Transport-level failures (refused connections, cut bodies, torn JSON)
// always qualify; structured API errors qualify only when the server
// said "later" — 423 lock held, 429 over capacity, or any 5xx.
// 400/404/409/413 are truths about the request, not the weather.
func retryable(err error) bool {
	var te *terminalError
	if errors.As(err, &te) {
		return false
	}
	var ae *APIError
	if errors.As(err, &ae) {
		return ae.Status == http.StatusLocked || ae.Status == http.StatusTooManyRequests || ae.Status >= 500
	}
	return true
}

// Client talks to a running numarckd from the CLIs: it streams
// checkpoint bodies up, reconstructions down, and decodes the daemon's
// structured JSON errors back into *APIError values callers can branch
// on. The zero HTTP field uses http.DefaultClient; the zero Retry
// policy makes every call a single attempt. A Client is safe for
// concurrent use by multiple goroutines, like the http.Client it wraps
// (configure its fields before the first call, not during).
type Client struct {
	// Base is the daemon's base URL, e.g. "http://127.0.0.1:8377".
	Base string
	// Tenant is the tenant every call addresses.
	Tenant string
	// HTTP overrides the transport; nil uses http.DefaultClient.
	HTTP *http.Client
	// Retry is the client's resilience policy (zero = no retries).
	Retry RetryPolicy
	// Obs, when set, counts retries (obs.CounterRetries) so callers can
	// see how rough the network was.
	Obs *obs.Recorder

	// jitterMu serializes draws from Retry.Jitter across concurrent
	// calls on this Client.
	jitterMu sync.Mutex
}

// httpClient returns the configured or default transport.
func (c *Client) httpClient() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	return http.DefaultClient
}

// url joins the base URL, /v1/{tenant}, the path parts, and the query.
func (c *Client) url(q url.Values, parts ...string) string {
	u := c.Base + "/v1/" + url.PathEscape(c.Tenant)
	for _, p := range parts {
		u += "/" + url.PathEscape(p)
	}
	if len(q) > 0 {
		u += "?" + q.Encode()
	}
	return u
}

// sessionURL addresses a resumable upload session, which lives outside
// the tenant prefix.
func (c *Client) sessionURL(id string, parts ...string) string {
	u := c.Base + "/v1/uploads/" + url.PathEscape(id)
	for _, p := range parts {
		u += "/" + url.PathEscape(p)
	}
	return u
}

// drainClose consumes what remains of a response body (bounded) and
// closes it, so the transport can reuse the underlying connection
// instead of tearing it down — on success paths and error paths alike.
func drainClose(body io.ReadCloser) {
	// Drain is best-effort: a broken connection cannot be reused anyway.
	_, _ = io.Copy(io.Discard, io.LimitReader(body, 256<<10))
	// Close errors on a drained body carry no data.
	_ = body.Close()
}

// decodeErrorBody turns a non-2xx response into a typed *APIError. A
// structured JSON body decodes as-is; anything else (a proxy's HTML, a
// bare status line, a torn body) is wrapped into an APIError with
// class "http" and the Retry-After header preserved, so the retry
// policy can classify every failure the same way.
func decodeErrorBody(resp *http.Response) error {
	defer drainClose(resp.Body)
	raw, err := io.ReadAll(io.LimitReader(resp.Body, 64<<10))
	if err != nil {
		raw = nil
	}
	var ae APIError
	if jerr := json.Unmarshal(raw, &ae); jerr == nil && ae.Status != 0 {
		return &ae
	}
	ae = APIError{Status: resp.StatusCode, Class: "http", Detail: strings.TrimSpace(string(raw))}
	if ae.Detail == "" {
		ae.Detail = resp.Status
	}
	if ra := resp.Header.Get("Retry-After"); ra != "" {
		if sec, perr := strconv.Atoi(ra); perr == nil && sec > 0 {
			ae.RetryAfterSec = sec
		}
	}
	return &ae
}

// backoff computes the delay before retry number attempt (1-based),
// letting the server's own hints override the exponential schedule.
func (c *Client) backoff(attempt int, last error) time.Duration {
	base, maxd := c.Retry.BaseDelay, c.Retry.MaxDelay
	if base <= 0 {
		base = 50 * time.Millisecond
	}
	if maxd <= 0 {
		maxd = 2 * time.Second
	}
	d := base << (attempt - 1)
	if d <= 0 || d > maxd {
		d = maxd
	}
	var ae *APIError
	if errors.As(last, &ae) {
		switch {
		case ae.Status == http.StatusLocked && ae.HolderAgeMs > 0:
			// A writer lock held for T tends to be released on that
			// timescale: poll at a tenth of the holder's age rather
			// than hammering or over-waiting.
			d = time.Duration(ae.HolderAgeMs/10) * time.Millisecond
			if d < base {
				d = base
			}
			if d > maxd {
				d = maxd
			}
		case ae.RetryAfterSec > 0:
			if ra := time.Duration(ae.RetryAfterSec) * time.Second; ra > d {
				d = ra
			}
		}
	}
	if c.Retry.Jitter != nil && d > 1 {
		c.jitterMu.Lock()
		n := c.Retry.Jitter.Int63n(int64(d/2) + 1)
		c.jitterMu.Unlock()
		d = d/2 + time.Duration(n)
	}
	return d
}

// sleep waits between attempts through the policy's injectable clock.
func (c *Client) sleep(d time.Duration) {
	if c.Retry.Sleep != nil {
		c.Retry.Sleep(d)
		return
	}
	time.Sleep(d)
}

// doRetry runs one logical call under the retry policy: build a fresh
// request per attempt, classify each failure, back off between
// attempts, and hand successful responses to handle — which owns
// draining and closing the body. body, when not nil, is rewound to
// where it stood at the call before every attempt, so every attempt
// sends the same bytes. With retries enabled, an exhausted budget comes
// back as *RetryExhaustedError.
func (c *Client) doRetry(method, u string, hdr http.Header, body io.ReadSeeker, handle func(*http.Response) error) error {
	attempts := max(c.Retry.MaxAttempts, 1)
	var start int64
	if body != nil {
		var err error
		if start, err = body.Seek(0, io.SeekCurrent); err != nil {
			return fmt.Errorf("server: request body offset: %w", err)
		}
	}
	var last error
	for i := 0; i < attempts; i++ {
		if i > 0 {
			if c.Obs != nil {
				c.Obs.Add(obs.CounterRetries, 1)
			}
			c.sleep(c.backoff(i, last))
		}
		last = c.attempt(method, u, hdr, body, start, handle)
		if last == nil {
			return nil
		}
		if !retryable(last) {
			return last
		}
	}
	if attempts > 1 {
		return &RetryExhaustedError{Attempts: attempts, Last: last}
	}
	return last
}

// attempt is one try of a logical call, sending body from offset start.
func (c *Client) attempt(method, u string, hdr http.Header, body io.ReadSeeker, start int64, handle func(*http.Response) error) error {
	if body != nil {
		if _, err := body.Seek(start, io.SeekStart); err != nil {
			return &terminalError{fmt.Errorf("server: rewind request body: %w", err)}
		}
	}
	req, err := http.NewRequest(method, u, body)
	if err != nil {
		return &terminalError{err}
	}
	for k, vs := range hdr {
		req.Header[k] = vs
	}
	if c.Retry.PerAttemptTimeout > 0 {
		ctx, cancel := context.WithTimeout(req.Context(), c.Retry.PerAttemptTimeout)
		defer cancel()
		req = req.WithContext(ctx)
	}
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return err
	}
	if resp.StatusCode >= 300 {
		return decodeErrorBody(resp)
	}
	return handle(resp)
}

// doJSON runs a call whose success body is JSON decoded into out.
func (c *Client) doJSON(method, u string, hdr http.Header, body io.ReadSeeker, out any) error {
	return c.doRetry(method, u, hdr, body, func(resp *http.Response) error {
		return decodeJSON(resp, out)
	})
}

// decodeJSON drains a successful response into v and recycles the
// connection.
func decodeJSON(resp *http.Response, v any) error {
	defer drainClose(resp.Body)
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		return fmt.Errorf("server: decode response: %w", err)
	}
	return nil
}

// payloadBody makes body seekable and computes its CRC-32 (IEEE),
// the checksum Push sends in PayloadCRCHeader so the daemon can reject
// transit corruption and recognize retried commits. Seekable bodies
// (files, byte readers) rewind in place; anything else is spooled to a
// temp file rather than read into memory, so a multi-GB stream costs
// disk, not client RAM. cleanup releases the spool (a no-op for
// seekable bodies) and must run only after the request is done with
// the returned reader.
func payloadBody(body io.Reader) (r io.ReadSeeker, crc uint32, cleanup func(), err error) {
	cleanup = func() {}
	h := crc32.NewIEEE()
	if rs, ok := body.(io.ReadSeeker); ok {
		if start, serr := rs.Seek(0, io.SeekCurrent); serr == nil {
			if _, err := io.Copy(h, rs); err != nil {
				return nil, 0, cleanup, fmt.Errorf("server: checksum request body: %w", err)
			}
			if _, err := rs.Seek(start, io.SeekStart); err != nil {
				return nil, 0, cleanup, fmt.Errorf("server: rewind request body: %w", err)
			}
			return rs, h.Sum32(), cleanup, nil
		}
		// A ReadSeeker that cannot report its position (an exotic pipe
		// wrapper) is spooled like any plain stream.
	}
	f, err := os.CreateTemp("", "numarck-push-*")
	if err != nil {
		return nil, 0, cleanup, fmt.Errorf("server: spool request body: %w", err)
	}
	cleanup = func() {
		// The spool is scratch; close/remove errors cannot lose data.
		_ = f.Close()
		_ = os.Remove(f.Name())
	}
	if _, err := io.Copy(io.MultiWriter(f, h), body); err != nil {
		return nil, 0, cleanup, fmt.Errorf("server: spool request body: %w", err)
	}
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		return nil, 0, cleanup, fmt.Errorf("server: rewind request body: %w", err)
	}
	return f, h.Sum32(), cleanup, nil
}

// Push streams body (raw little-endian float64 values) as iteration
// iter of series. q carries the commit parameters the daemon reads —
// kind (auto, full or delta) and raw=1 — and nothing else: the tenant
// store's options decide the encode, and the daemon refuses any other
// parameter with a 400. A nil q commits with kind auto. The payload
// CRC rides in PayloadCRCHeader, so a retried Push whose first attempt
// actually landed comes back Replayed instead of double-applied.
// Computing that CRC needs the whole body up front: seekable bodies are
// read twice in place; a non-seekable stream is spooled to a temp file
// for the call's duration, never buffered in memory.
func (c *Client) Push(series string, iter int, body io.Reader, q url.Values) (*CommitResponse, error) {
	if q == nil {
		q = url.Values{}
	}
	q.Set("iter", strconv.Itoa(iter))
	rs, crc, cleanup, err := payloadBody(body)
	if err != nil {
		cleanup()
		return nil, err
	}
	defer cleanup()
	hdr := http.Header{}
	hdr.Set("Content-Type", "application/octet-stream")
	hdr.Set(PayloadCRCHeader, strconv.FormatUint(uint64(crc), 10))
	var cr CommitResponse
	if err := c.doJSON(http.MethodPost, c.url(q, series, "checkpoints"), hdr, rs, &cr); err != nil {
		return nil, err
	}
	return &cr, nil
}

// PushFile streams the raw float64 file at path as iteration iter.
func (c *Client) PushFile(series string, iter int, path string, q url.Values) (*CommitResponse, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	//lint:ignore errcheck read-only upload source; a close error cannot lose data
	defer f.Close()
	return c.Push(series, iter, f, q)
}

// PushRaw commits an already-encoded NMRKF1/NMRKD1/NMRKD2 file
// byte-for-byte (?raw=1): the wire carries exactly the file format.
func (c *Client) PushRaw(series string, iter int, raw []byte) (*CommitResponse, error) {
	q := url.Values{}
	q.Set("raw", "1")
	return c.Push(series, iter, bytes.NewReader(raw), q)
}

// PushResumable commits iteration iter through a resumable upload
// session: the payload goes up in rangeLen-byte ranges, each carrying
// its offset and CRC, and any connection loss costs at most one
// re-sent range — every PUT is idempotent, so a lost response is
// retried without double-appending, and finalize replays its cached
// answer. q carries the same commit parameters as Push (raw, kind),
// captured at session creation.
func (c *Client) PushResumable(series string, iter int, body io.ReaderAt, size int64, rangeLen int64, q url.Values) (*CommitResponse, error) {
	if rangeLen <= 0 {
		rangeLen = 1 << 20
	}
	if q == nil {
		q = url.Values{}
	}
	q.Set("iter", strconv.Itoa(iter))
	q.Set("size", strconv.FormatInt(size, 10))

	// Whole-payload CRC: declared at finalize, journaled as the
	// commit's payload CRC.
	h := crc32.NewIEEE()
	if _, err := io.Copy(h, io.NewSectionReader(body, 0, size)); err != nil {
		return nil, fmt.Errorf("server: checksum payload: %w", err)
	}
	total := h.Sum32()

	var us UploadResponse
	if err := c.doJSON(http.MethodPost, c.url(q, series, "uploads"), nil, nil, &us); err != nil {
		return nil, err
	}
	received := us.Received
	for received < size {
		end := received + rangeLen
		if end > size {
			end = size
		}
		sect := io.NewSectionReader(body, received, end-received)
		rh := crc32.NewIEEE()
		if _, err := io.Copy(rh, sect); err != nil {
			return nil, fmt.Errorf("server: checksum range: %w", err)
		}
		if _, err := sect.Seek(0, io.SeekStart); err != nil {
			return nil, fmt.Errorf("server: rewind range: %w", err)
		}
		hdr := http.Header{}
		hdr.Set("Content-Type", "application/octet-stream")
		hdr.Set(UploadOffsetHeader, strconv.FormatInt(received, 10))
		hdr.Set(RangeCRCHeader, strconv.FormatUint(uint64(rh.Sum32()), 10))
		var rr UploadResponse
		if err := c.doJSON(http.MethodPut, c.sessionURL(us.ID), hdr, sect, &rr); err != nil {
			return nil, err
		}
		if rr.State == uploadStateDone {
			// Another client (or an earlier lost finalize) completed
			// the session; its cached commit is the answer.
			if rr.Commit != nil {
				return rr.Commit, nil
			}
			break
		}
		if rr.Received <= received {
			return nil, fmt.Errorf("server: upload made no progress at offset %d", received)
		}
		received = rr.Received
	}

	hdr := http.Header{}
	hdr.Set(PayloadCRCHeader, strconv.FormatUint(uint64(total), 10))
	var fr UploadResponse
	if err := c.doJSON(http.MethodPost, c.sessionURL(us.ID, "finalize"), hdr, nil, &fr); err != nil {
		return nil, err
	}
	if fr.Commit == nil {
		return nil, fmt.Errorf("server: finalize returned no commit result")
	}
	return fr.Commit, nil
}

// UploadStatus reads a resumable session's progress — Received is
// where an interrupted upload resumes.
func (c *Client) UploadStatus(id string) (*UploadResponse, error) {
	var us UploadResponse
	if err := c.doJSON(http.MethodGet, c.sessionURL(id, "status"), nil, nil, &us); err != nil {
		return nil, err
	}
	return &us, nil
}

// Fetch streams iteration iter's reconstructed state into w and
// returns the point count plus, when salvage ran (?recover=1) and
// found damage, the lost-range report from the X-Numarck-Partial
// header. With retries enabled the response is buffered so a torn body
// never leaves a partial prefix in w; without them it streams.
func (c *Client) Fetch(series string, iter int, w io.Writer, salvage bool) (points int, partial *PartialInfo, err error) {
	q := url.Values{}
	if salvage {
		q.Set("recover", "1")
	}
	buffered := c.Retry.MaxAttempts > 1
	err = c.doRetry(http.MethodGet, c.url(q, series, "checkpoints", strconv.Itoa(iter)), nil, nil, func(resp *http.Response) error {
		defer drainClose(resp.Body)
		partial = nil
		if pj := resp.Header.Get("X-Numarck-Partial"); pj != "" {
			partial = &PartialInfo{}
			if perr := json.Unmarshal([]byte(pj), partial); perr != nil {
				return fmt.Errorf("server: partial header: %w", perr)
			}
		}
		dst := w
		var buf bytes.Buffer
		if buffered {
			dst = &buf
		}
		n, cerr := io.Copy(dst, resp.Body)
		if cerr != nil {
			if buffered {
				return cerr
			}
			// Bytes already reached w; a retry would double-deliver.
			return &terminalError{cerr}
		}
		if n%8 != 0 {
			return fmt.Errorf("server: response body is %d bytes, not a whole float64 array", n)
		}
		if buffered {
			if _, werr := w.Write(buf.Bytes()); werr != nil {
				return &terminalError{werr}
			}
		}
		points = int(n / 8)
		return nil
	})
	if err != nil {
		return 0, nil, err
	}
	return points, partial, nil
}

// FetchRaw returns the committed file's exact bytes for one iteration
// (?raw=1) plus its kind ("full" or "delta"). A body whose length or
// CRC-32 is not the one its headers announce is a torn response.
func (c *Client) FetchRaw(series string, iter int) (raw []byte, kind string, err error) {
	q := url.Values{}
	q.Set("raw", "1")
	err = c.doRetry(http.MethodGet, c.url(q, series, "checkpoints", strconv.Itoa(iter)), nil, nil, func(resp *http.Response) error {
		defer drainClose(resp.Body)
		b, rerr := io.ReadAll(resp.Body)
		if rerr != nil {
			return rerr
		}
		if cl := resp.Header.Get("Content-Length"); cl != "" {
			if want, perr := strconv.Atoi(cl); perr == nil && want != len(b) {
				return fmt.Errorf("server: torn response: %d of %d bytes", len(b), want)
			}
		}
		if h := resp.Header.Get("X-Numarck-CRC32"); h != "" {
			if want, perr := strconv.ParseUint(h, 16, 32); perr == nil && uint32(want) != crc32.ChecksumIEEE(b) {
				return fmt.Errorf("server: torn response: crc %08x, header says %08x", crc32.ChecksumIEEE(b), want)
			}
		}
		raw, kind = b, resp.Header.Get("X-Numarck-Kind")
		return nil
	})
	if err != nil {
		return nil, "", err
	}
	return raw, kind, nil
}

// SeriesChain fetches one series' chain report; verify runs the deep
// lock-free check server-side.
func (c *Client) SeriesChain(series string, verify bool) (*SeriesChainResponse, error) {
	q := url.Values{}
	if verify {
		q.Set("verify", "1")
	}
	var sc SeriesChainResponse
	if err := c.doJSON(http.MethodGet, c.url(q, series, "chain"), nil, nil, &sc); err != nil {
		return nil, err
	}
	return &sc, nil
}

// TenantChain fetches the whole tenant's chain report.
func (c *Client) TenantChain(verify bool) (*TenantChainResponse, error) {
	q := url.Values{}
	if verify {
		q.Set("verify", "1")
	}
	var tc TenantChainResponse
	if err := c.doJSON(http.MethodGet, c.url(q, "chain"), nil, nil, &tc); err != nil {
		return nil, err
	}
	return &tc, nil
}

// RestartPoint asks where a restarting application should resume.
func (c *Client) RestartPoint(series string) (*RestartResponse, error) {
	var rr RestartResponse
	if err := c.doJSON(http.MethodPost, c.url(nil, series, "restart"), nil, nil, &rr); err != nil {
		return nil, err
	}
	return &rr, nil
}

// Metrics fetches the daemon's /metrics snapshot.
func (c *Client) Metrics() (*MetricsResponse, error) {
	var mr MetricsResponse
	if err := c.doJSON(http.MethodGet, c.Base+"/metrics", nil, nil, &mr); err != nil {
		return nil, err
	}
	return &mr, nil
}
