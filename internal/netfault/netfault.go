// Package netfault is deterministic fault injection for the wire: the
// faultfs philosophy (internal/faultfs) applied to HTTP exchanges
// instead of filesystem operations. Tests wrap a client's
// http.RoundTripper in a Transport and schedule faults — cut the
// connection after N bytes of request or response body, synthesize bare
// 5xx responses, refuse connections for a window of requests — then assert
// that the retrying client and the store's idempotent commit path
// converge to the same bytes a fault-free run produces.
//
// Like faultfs, scheduling is count-then-inject: a first fault-free run
// records how many requests an exchange performs (Requests), and a
// second run can then sever the wire at each of them in turn. All
// randomness (the offset of an unpinned cut) comes from the seeded rng
// handed to NewTransport, so every schedule replays identically.
package netfault

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"strings"
	"sync"
)

// ErrInjected is the root of every error this package injects;
// errors.Is(err, ErrInjected) distinguishes scheduled faults from real
// network failures in test assertions.
var ErrInjected = errors.New("netfault: injected failure")

// ErrRefused reports a request that hit a scheduled connection-refused
// window. It wraps ErrInjected.
var ErrRefused = fmt.Errorf("%w: connection refused", ErrInjected)

// ErrRequestCut reports a connection severed while the request body was
// still being sent. It wraps ErrInjected.
var ErrRequestCut = fmt.Errorf("%w: connection cut mid-request", ErrInjected)

// ErrResponseCut reports a connection severed while the response body
// was still arriving. It wraps ErrInjected.
var ErrResponseCut = fmt.Errorf("%w: connection cut mid-response", ErrInjected)

// Mode selects how a matched fault manifests.
type Mode uint8

// The fault modes.
const (
	// ModeRefuse fails the round trip outright with ErrRefused, before
	// any bytes reach the server — a connection-refused window.
	ModeRefuse Mode = iota
	// ModeCutRequest severs the connection after AfterBytes of the
	// request body have been sent: the server sees a truncated body,
	// the client sees a transport error and never learns the outcome.
	ModeCutRequest
	// ModeCutResponse lets the request complete server-side, then
	// severs the connection after AfterBytes of the response body: the
	// operation may have applied, but the client cannot tell — the case
	// that makes idempotent retries mandatory.
	ModeCutResponse
	// ModeStatus synthesizes a bare (non-JSON) response with Status and
	// optional Retry-After, without touching the network — an
	// intermediary's 5xx, not the daemon's structured error.
	ModeStatus
)

// modeNames must match the Mode constant order above.
var modeNames = []string{"refuse", "cut-request", "cut-response", "status"}

// String returns the mode's trace name.
func (m Mode) String() string {
	if int(m) < len(modeNames) {
		return modeNames[m]
	}
	return "unknown"
}

// Fault is one scheduled wire failure: requests matching Method and
// Path (substring; empty matches everything) are counted, and the
// Nth through Nth+Count-1 of them manifest per Mode.
type Fault struct {
	// Method matches the request method exactly; empty matches all.
	Method string
	// Path is a substring match against the request URL path; empty
	// matches every request.
	Path string
	// Nth is the first matching request (1-based) the fault fires on.
	Nth int
	// Count is how many consecutive matching requests the fault fires
	// on: 0 means 1, negative means every request from Nth onward — a
	// persistent outage window.
	Count int
	// Mode selects the failure (refuse, cut, status).
	Mode Mode
	// AfterBytes is how many body bytes a cut lets through first.
	// Negative draws a small seeded offset, so schedules need not know
	// body sizes.
	AfterBytes int64
	// Status is the synthesized response code for ModeStatus.
	Status int
	// RetryAfterSec, when positive, adds a Retry-After header to a
	// ModeStatus response.
	RetryAfterSec int

	seen int // matching requests observed so far
}

// fires reports whether the fault manifests on its seen-th match.
func (f *Fault) fires() bool {
	if f.seen < f.Nth {
		return false
	}
	if f.Count < 0 {
		return true
	}
	count := f.Count
	if count == 0 {
		count = 1
	}
	return f.seen < f.Nth+count
}

// Transport is an http.RoundTripper that injects scheduled wire faults
// between a client and its real transport. The zero schedule passes
// every request through while counting it, so a first run measures how
// many requests an exchange performs and a second run can sever each
// one in turn.
type Transport struct {
	// Inner is the real transport; nil uses http.DefaultTransport.
	Inner http.RoundTripper

	mu     sync.Mutex
	rng    *rand.Rand
	reqs   int
	faults []*Fault
	trace  []string
}

// NewTransport wraps inner with a seeded fault schedule. The seed only
// feeds unpinned cut offsets (AfterBytes < 0), so two transports with
// the same seed and schedule inject identically.
func NewTransport(inner http.RoundTripper, seed int64) *Transport {
	return &Transport{Inner: inner, rng: rand.New(rand.NewSource(seed))}
}

// AddFault schedules a fault. Faults are matched in the order added;
// the first that fires on a request decides it.
func (t *Transport) AddFault(f Fault) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.faults = append(t.faults, &f)
}

// Requests returns how many round trips have been observed (attempted,
// whether or not they were failed).
func (t *Transport) Requests() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.reqs
}

// Trace returns the recorded request log, one "METHOD path decision"
// line per observed round trip.
func (t *Transport) Trace() []string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]string(nil), t.trace...)
}

// decision is what check tells RoundTrip to do.
type decision struct {
	fault *Fault
	cut   int64 // resolved AfterBytes for the cut modes
}

// check records one request and decides its fate.
func (t *Transport) check(req *http.Request) decision {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.reqs++
	d := decision{}
	for _, f := range t.faults {
		if f.Method != "" && f.Method != req.Method {
			continue
		}
		if f.Path != "" && !strings.Contains(req.URL.Path, f.Path) {
			continue
		}
		f.seen++
		if d.fault == nil && f.fires() {
			d.fault = f
			d.cut = f.AfterBytes
			if d.cut < 0 {
				d.cut = t.rng.Int63n(4096)
			}
		}
	}
	line := req.Method + " " + req.URL.Path
	if d.fault != nil {
		line += " " + d.fault.Mode.String()
	}
	t.trace = append(t.trace, line)
	return d
}

// RoundTrip implements http.RoundTripper with the fault schedule
// applied.
func (t *Transport) RoundTrip(req *http.Request) (*http.Response, error) {
	d := t.check(req)
	if d.fault == nil {
		return t.inner().RoundTrip(req)
	}
	switch d.fault.Mode {
	case ModeRefuse:
		closeBody(req)
		return nil, ErrRefused
	case ModeStatus:
		closeBody(req)
		return synthesize(req, d.fault), nil
	case ModeCutRequest:
		if req.Body == nil {
			// No body to cut: the connection dies before the response.
			return nil, ErrRequestCut
		}
		wrapped := req.Clone(req.Context())
		wrapped.Body = &cutReader{rc: req.Body, remaining: d.cut, err: ErrRequestCut}
		// A body that errors mid-send aborts the exchange; the server
		// sees the truncation, the client sees the wrapped error.
		resp, err := t.inner().RoundTrip(wrapped)
		if err != nil {
			return nil, fmt.Errorf("%w (transport: %v)", ErrRequestCut, err)
		}
		// The server answered from the truncated prefix alone (it never
		// needed the rest); pass its verdict through.
		return resp, nil
	case ModeCutResponse:
		resp, err := t.inner().RoundTrip(req)
		if err != nil {
			return nil, err
		}
		resp.Body = &cutReader{rc: resp.Body, remaining: d.cut, err: ErrResponseCut}
		return resp, nil
	default:
		closeBody(req)
		return nil, ErrInjected
	}
}

// inner returns the real transport.
func (t *Transport) inner() http.RoundTripper {
	if t.Inner != nil {
		return t.Inner
	}
	return http.DefaultTransport
}

// closeBody releases a request body the fault never sent.
func closeBody(req *http.Request) {
	if req.Body != nil {
		// The exchange is already the injected failure; a close error
		// on the unsent body has nothing to add.
		_ = req.Body.Close()
	}
}

// synthesize builds a ModeStatus response: a bare text body, not the
// daemon's structured JSON — what a load balancer or proxy would emit.
func synthesize(req *http.Request, f *Fault) *http.Response {
	body := "netfault: injected " + strconv.Itoa(f.Status)
	h := http.Header{"Content-Type": []string{"text/plain"}}
	if f.RetryAfterSec > 0 {
		h.Set("Retry-After", strconv.Itoa(f.RetryAfterSec))
	}
	return &http.Response{
		Status:        strconv.Itoa(f.Status) + " " + http.StatusText(f.Status),
		StatusCode:    f.Status,
		Proto:         "HTTP/1.1",
		ProtoMajor:    1,
		ProtoMinor:    1,
		Header:        h,
		Body:          io.NopCloser(strings.NewReader(body)),
		ContentLength: int64(len(body)),
		Request:       req,
	}
}

// cutReader delivers a byte-limited prefix of an underlying body, then
// fails with the scheduled error — a connection severed mid-stream.
type cutReader struct {
	rc        io.ReadCloser
	remaining int64
	err       error
	closed    bool
}

// Read implements io.Reader: bytes flow until the budget is spent,
// then every read fails with the cut error.
func (c *cutReader) Read(p []byte) (int, error) {
	if c.remaining <= 0 {
		// Sever the underlying stream too, so a retrying caller cannot
		// accidentally keep draining the doomed connection.
		c.close()
		return 0, c.err
	}
	if int64(len(p)) > c.remaining {
		p = p[:c.remaining]
	}
	n, err := c.rc.Read(p)
	c.remaining -= int64(n)
	if err != nil && !errors.Is(err, io.EOF) {
		return n, err
	}
	if errors.Is(err, io.EOF) {
		// The body ended inside the budget: the cut never happened.
		return n, io.EOF
	}
	return n, nil
}

// Close implements io.Closer.
func (c *cutReader) Close() error {
	c.close()
	return nil
}

// close closes the underlying body once.
func (c *cutReader) close() {
	if c.closed {
		return
	}
	c.closed = true
	// The stream is being abandoned mid-flight; the close error adds
	// nothing to the injected failure.
	_ = c.rc.Close()
}
