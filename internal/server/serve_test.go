package server

import (
	"bytes"
	"context"
	"errors"
	"math"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"numarck/internal/checkpoint"
	"numarck/internal/chunk"
	"numarck/internal/core"
)

// testOptions are the daemon defaults every serve test runs with;
// the byte-identity checks re-run the library pipeline with exactly
// these.
func testOptions(t *testing.T) core.Options {
	t.Helper()
	strategy, err := core.ParseStrategy("clustering")
	if err != nil {
		t.Fatal(err)
	}
	return core.Options{ErrorBound: 0.001, IndexBits: 8, Strategy: strategy}
}

// testChunkConfig keeps chunks small so a few thousand points span
// several pipeline chunks.
func testChunkConfig() chunk.Config {
	return chunk.Config{ChunkPoints: 512, Workers: 2}
}

// newTestServer builds a Server over a temp root and mounts it on an
// httptest listener.
func newTestServer(t *testing.T, capacity int64, admitWait time.Duration) (*Server, *httptest.Server) {
	t.Helper()
	s, err := New(Config{
		Root:          t.TempDir(),
		Opt:           testOptions(t),
		Chunk:         testChunkConfig(),
		CapacityBytes: capacity,
		AdmitWait:     admitWait,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

// seriesValues is the deterministic simulation state at one iteration:
// a smooth field drifting a little each step, with a few points moving
// far outside the error bound so every delta carries exact values too.
func seriesValues(iter, n int) []float64 {
	vals := make([]float64, n)
	for i := range vals {
		vals[i] = 100*math.Sin(float64(i)*0.01) + 0.05*float64(iter)
		if i%97 == 0 {
			vals[i] *= 1 + 0.5*float64(iter)
		}
	}
	return vals
}

// floatBytes renders values as the wire format: raw little-endian f64.
func floatBytes(vals []float64) []byte {
	buf := make([]byte, 8*len(vals))
	for i, v := range vals {
		bits := math.Float64bits(v)
		for b := 0; b < 8; b++ {
			buf[8*i+b] = byte(bits >> (8 * b))
		}
	}
	return buf
}

// bitsEqual compares two float slices for exact bit identity.
func bitsEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestServeSmoke drives the acceptance scenario end to end over real
// HTTP: a 3-delta chain pushed as raw values, byte-identity of every
// committed file against the library pipeline run locally, bit-exact
// reconstructions back out, /metrics reconciling with the on-disk
// store, and ?recover=1 salvaging injected corruption.
func TestServeSmoke(t *testing.T) {
	s, ts := newTestServer(t, 0, 0)
	c := &Client{Base: ts.URL, Tenant: "sim0"}
	const series, n, iters = "dens", 4096, 4
	opt, err := testOptions(t).Validate()
	if err != nil {
		t.Fatal(err)
	}
	cfg := testChunkConfig()

	// Push the chain and mirror it locally: wantRaw[i] is what the
	// daemon should have committed for iteration i, rec[i] the
	// reconstruction a reader should get back.
	wantRaw := make([][]byte, iters)
	rec := make([][]float64, iters)
	for i := 0; i < iters; i++ {
		vals := seriesValues(i, n)
		cr, err := c.Push(series, i, bytes.NewReader(floatBytes(vals)), nil)
		if err != nil {
			t.Fatalf("push %d: %v", i, err)
		}
		if i == 0 {
			if cr.Kind != "full" {
				t.Fatalf("iteration 0 committed as %q, want full", cr.Kind)
			}
			wantRaw[i], err = checkpoint.MarshalFull(series, i, vals)
			if err != nil {
				t.Fatal(err)
			}
			rec[i] = vals
		} else {
			if cr.Kind != "delta" {
				t.Fatalf("iteration %d committed as %q, want auto delta", i, cr.Kind)
			}
			var buf bytes.Buffer
			if _, err := chunk.EncodeDeltaV2(&buf, series, i, chunk.SliceSource(rec[i-1]), chunk.SliceSource(vals), opt, cfg); err != nil {
				t.Fatalf("local encode %d: %v", i, err)
			}
			wantRaw[i] = buf.Bytes()
			d, err := checkpoint.OpenDeltaV2(bytes.NewReader(wantRaw[i]), int64(len(wantRaw[i])))
			if err != nil {
				t.Fatal(err)
			}
			rec[i], err = d.Decode(rec[i-1], 1)
			if err != nil {
				t.Fatal(err)
			}
		}
		if cr.FileBytes != int64(len(wantRaw[i])) {
			t.Errorf("iteration %d: commit reported %d bytes, local pipeline wrote %d", i, cr.FileBytes, len(wantRaw[i]))
		}
	}

	// Byte identity: the daemon's committed files are exactly what the
	// library path produces.
	for i := 0; i < iters; i++ {
		raw, kind, err := c.FetchRaw(series, i)
		if err != nil {
			t.Fatalf("fetch raw %d: %v", i, err)
		}
		wantKind := "delta"
		if i == 0 {
			wantKind = "full"
		}
		if kind != wantKind {
			t.Errorf("iteration %d kind = %q, want %q", i, kind, wantKind)
		}
		if !bytes.Equal(raw, wantRaw[i]) {
			t.Errorf("iteration %d: wire bytes differ from library pipeline (%d vs %d bytes)", i, len(raw), len(wantRaw[i]))
		}
	}

	// Reconstructions come back bit-exact against the local replay.
	for i := 0; i < iters; i++ {
		var got bytes.Buffer
		points, partial, err := c.Fetch(series, i, &got, false)
		if err != nil {
			t.Fatalf("fetch %d: %v", i, err)
		}
		if partial != nil {
			t.Fatalf("fetch %d reported damage on a healthy store", i)
		}
		if points != n {
			t.Fatalf("fetch %d: %d points, want %d", i, points, n)
		}
		if !bytes.Equal(got.Bytes(), floatBytes(rec[i])) {
			t.Errorf("iteration %d: reconstruction differs from library decode", i)
		}
	}

	// Chain report: four entries whose journaled sizes match the files,
	// a fresh index, and a clean deep verify.
	sc, err := c.SeriesChain(series, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(sc.Entries) != iters || sc.LatestRestorable != iters-1 {
		t.Fatalf("chain: %d entries latest %d, want %d / %d", len(sc.Entries), sc.LatestRestorable, iters, iters-1)
	}
	if !sc.Verified || len(sc.Issues) != 0 {
		t.Fatalf("deep verify on healthy store: verified=%v issues=%v", sc.Verified, sc.Issues)
	}
	tenantDir := filepath.Join(s.cfg.Root, "sim0")
	var onDisk int64
	for i, e := range sc.Entries {
		fi, err := os.Stat(filepath.Join(tenantDir, e.Name))
		if err != nil {
			t.Fatal(err)
		}
		if fi.Size() != e.Bytes || e.Bytes != int64(len(wantRaw[i])) {
			t.Errorf("entry %d: journal %d bytes, disk %d, pipeline %d", i, e.Bytes, fi.Size(), len(wantRaw[i]))
		}
		onDisk += fi.Size()
	}

	// /metrics reconciliation: the tenant's bytes_written counter is
	// exactly the bytes sitting in its chain on disk.
	mr, err := c.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	snap, ok := mr.Tenants["sim0"]
	if !ok {
		t.Fatal("metrics missing tenant sim0")
	}
	if got := snap.Counters["bytes_written"]; got != onDisk {
		t.Errorf("tenant bytes_written = %d, on-disk chain = %d", got, onDisk)
	}
	if got := mr.Process.Counters["bytes_written"]; got != onDisk {
		t.Errorf("process bytes_written = %d, on-disk chain = %d", got, onDisk)
	}

	// Restart points a resuming application at the newest iteration.
	rr, err := c.RestartPoint(series)
	if err != nil {
		t.Fatal(err)
	}
	if rr.Iteration != iters-1 {
		t.Fatalf("restart point = %d, want %d", rr.Iteration, iters-1)
	}

	// Raw commit path: replaying iteration 0's exact file bytes into a
	// second series round-trips bit-exact.
	if _, err := c.PushRaw("dens2", 0, bytes.Replace(wantRaw[0], []byte(series), []byte("den2"), 1)); err == nil {
		t.Fatal("raw commit with mismatched embedded variable should be rejected")
	}
	full2, err := checkpoint.MarshalFull("dens2", 0, rec[0])
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.PushRaw("dens2", 0, full2); err != nil {
		t.Fatalf("raw commit: %v", err)
	}
	var got2 bytes.Buffer
	if _, _, err := c.Fetch("dens2", 0, &got2, false); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got2.Bytes(), floatBytes(rec[0])) {
		t.Error("raw-committed full does not round-trip")
	}

	// Inject silent corruption into the newest delta, the same way the
	// storage tests model media rot, and salvage it over the wire.
	last := sc.Entries[iters-1]
	path := filepath.Join(tenantDir, last.Name)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)*3/5] ^= 0x10
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	// Fail-closed read refuses with the corrupt-store class.
	var apiErr *APIError
	if _, _, err := c.Fetch(series, iters-1, &bytes.Buffer{}, false); !errors.As(err, &apiErr) || apiErr.Class != "corrupt_store" {
		t.Fatalf("read over corruption = %v, want corrupt_store", err)
	}

	// ?verify=1 surfaces the damage in the chain report.
	sc2, err := c.SeriesChain(series, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(sc2.Issues) == 0 {
		t.Error("deep verify missed injected corruption")
	}

	// ?recover=1 salvages: healthy chunks decode to the true values,
	// lost ranges keep the previous iteration's, and the losses are
	// reported exactly.
	var salvaged bytes.Buffer
	points, partial, err := c.Fetch(series, iters-1, &salvaged, true)
	if err != nil {
		t.Fatalf("salvage fetch: %v", err)
	}
	if partial == nil || partial.LostPoints == 0 || len(partial.Lost) == 0 {
		t.Fatalf("salvage reported no damage: %+v", partial)
	}
	if points != n {
		t.Fatalf("salvage returned %d points, want %d", points, n)
	}
	gotVals := make([]float64, n)
	for i := range gotVals {
		var bits uint64
		for b := 0; b < 8; b++ {
			bits |= uint64(salvaged.Bytes()[8*i+b]) << (8 * b)
		}
		gotVals[i] = math.Float64frombits(bits)
	}
	lost := make([]bool, n)
	for _, lr := range partial.Lost {
		for i := lr.Lo; i < lr.Hi && i < n; i++ {
			lost[i] = true
		}
	}
	for i := range gotVals {
		want := rec[iters-1][i]
		if lost[i] {
			want = rec[iters-2][i]
		}
		if math.Float64bits(gotVals[i]) != math.Float64bits(want) {
			t.Fatalf("salvaged point %d (lost=%v) = %v, want %v", i, lost[i], gotVals[i], want)
		}
	}
}

// TestServeAdmission exercises the memory governor over the wire: a
// full governor answers 429 + Retry-After instead of queueing forever,
// releasing capacity lets the same request through, and requests
// heavier than total capacity get a permanent 413.
func TestServeAdmission(t *testing.T) {
	const capacity = 4096
	s, ts := newTestServer(t, capacity, 50*time.Millisecond)
	c := &Client{Base: ts.URL, Tenant: "sim0"}
	vals := seriesValues(0, 64) // full-commit weight 2*512+64 = 1088

	// Occupy the whole governor, then push: the request must be turned
	// away with the over-capacity class and a retry hint, not held.
	hold, err := s.Governor().Acquire(context.Background(), capacity)
	if err != nil {
		t.Fatal(err)
	}
	var apiErr *APIError
	_, err = c.Push("dens", 0, bytes.NewReader(floatBytes(vals)), nil)
	if !errors.As(err, &apiErr) || apiErr.Status != 429 || apiErr.Class != "over_capacity" {
		t.Fatalf("push against a full governor = %v, want 429 over_capacity", err)
	}
	if apiErr.RetryAfterSec <= 0 {
		t.Error("429 carried no retry hint")
	}
	hold()

	// Same request after release succeeds.
	if _, err := c.Push("dens", 0, bytes.NewReader(floatBytes(vals)), nil); err != nil {
		t.Fatalf("push after release: %v", err)
	}

	// A body whose admission weight exceeds total capacity can never be
	// admitted: 413, not 429.
	big := seriesValues(1, 1024) // full-commit weight 2*8192+64 > 4096
	q := url.Values{}
	q.Set("kind", "full")
	_, err = c.Push("dens", 1, bytes.NewReader(floatBytes(big)), q)
	if !errors.As(err, &apiErr) || apiErr.Status != 413 || apiErr.Class != "too_large" {
		t.Fatalf("oversized push = %v, want 413 too_large", err)
	}
}

// TestServeLocked checks the 423 path: when another process holds a
// tenant's writer lock, commits are refused with the holder's PID and
// lock age, and succeed once the lock is released.
func TestServeLocked(t *testing.T) {
	s, ts := newTestServer(t, 0, 0)
	c := &Client{Base: ts.URL, Tenant: "sim0"}
	if _, err := c.Push("dens", 0, bytes.NewReader(floatBytes(seriesValues(0, 64))), nil); err != nil {
		t.Fatal(err)
	}

	// The test process takes the writer lock, standing in for a
	// sidecar CLI run against the same store.
	st, err := checkpoint.Open(filepath.Join(s.cfg.Root, "sim0"))
	if err != nil {
		t.Fatal(err)
	}
	var apiErr *APIError
	_, err = c.Push("dens", 1, bytes.NewReader(floatBytes(seriesValues(1, 64))), nil)
	if !errors.As(err, &apiErr) || apiErr.Status != 423 || apiErr.Class != "store_locked" {
		t.Fatalf("push against held lock = %v, want 423 store_locked", err)
	}
	if apiErr.HolderPID != os.Getpid() {
		t.Errorf("holder pid = %d, want this process %d", apiErr.HolderPID, os.Getpid())
	}
	if apiErr.HolderAgeMs < 0 {
		t.Errorf("holder age = %dms", apiErr.HolderAgeMs)
	}

	// Reads stay lock-free while the writer lock is held.
	if _, _, err := c.Fetch("dens", 0, &bytes.Buffer{}, false); err != nil {
		t.Fatalf("lock-free read under held lock: %v", err)
	}

	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Push("dens", 1, bytes.NewReader(floatBytes(seriesValues(1, 64))), nil); err != nil {
		t.Fatalf("push after lock release: %v", err)
	}
}

// TestServeDrain checks the HTTP half of graceful shutdown: after
// StartDrain, readiness flips and new API work is refused with 503
// while liveness stays green.
func TestServeDrain(t *testing.T) {
	s, ts := newTestServer(t, 0, 0)
	c := &Client{Base: ts.URL, Tenant: "sim0"}
	if _, err := c.Push("dens", 0, bytes.NewReader(floatBytes(seriesValues(0, 64))), nil); err != nil {
		t.Fatal(err)
	}

	s.StartDrain()
	resp, err := ts.Client().Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	//lint:ignore errcheck test response body; status is the signal
	resp.Body.Close()
	if resp.StatusCode != 503 {
		t.Fatalf("/readyz while draining = %d, want 503", resp.StatusCode)
	}
	resp, err = ts.Client().Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	//lint:ignore errcheck test response body; status is the signal
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("/healthz while draining = %d, want 200", resp.StatusCode)
	}
	var apiErr *APIError
	_, err = c.Push("dens", 1, bytes.NewReader(floatBytes(seriesValues(1, 64))), nil)
	if !errors.As(err, &apiErr) || apiErr.Status != 503 || apiErr.Class != "draining" {
		t.Fatalf("push while draining = %v, want 503 draining", err)
	}
	mr, err := c.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	if !mr.Draining {
		t.Error("metrics does not report draining")
	}
}

// TestServeValidation checks the 400/404 edges of the API surface.
func TestServeValidation(t *testing.T) {
	_, ts := newTestServer(t, 0, 0)
	c := &Client{Base: ts.URL, Tenant: "sim0"}
	var apiErr *APIError

	// A body that is not a whole float64 array.
	_, err := c.Push("dens", 0, bytes.NewReader([]byte{1, 2, 3}), nil)
	if !errors.As(err, &apiErr) || apiErr.Status != 400 {
		t.Fatalf("ragged body = %v, want 400", err)
	}

	// An invalid series name (escaped, so it survives mux path
	// cleaning and reaches the store's naming rules).
	_, err = c.Push("has space", 0, bytes.NewReader(floatBytes(seriesValues(0, 8))), nil)
	if !errors.As(err, &apiErr) || apiErr.Status != 400 {
		t.Fatalf("bad series = %v, want 400", err)
	}

	// An invalid tenant name.
	bad := &Client{Base: ts.URL, Tenant: ".hidden"}
	_, err = bad.Push("dens", 0, bytes.NewReader(floatBytes(seriesValues(0, 8))), nil)
	if !errors.As(err, &apiErr) || apiErr.Status != 400 {
		t.Fatalf("bad tenant = %v, want 400", err)
	}

	// A read from a series that was never written.
	_, _, err = c.Fetch("ghost", 7, &bytes.Buffer{}, false)
	if !errors.As(err, &apiErr) || apiErr.Status != 404 || apiErr.Class != "not_found" {
		t.Fatalf("missing checkpoint = %v, want 404 not_found", err)
	}

	// A delta that would leave a chain gap.
	if _, err := c.Push("dens", 0, bytes.NewReader(floatBytes(seriesValues(0, 64))), nil); err != nil {
		t.Fatal(err)
	}
	q := url.Values{}
	q.Set("kind", "delta")
	_, err = c.Push("dens", 5, bytes.NewReader(floatBytes(seriesValues(5, 64))), q)
	if !errors.As(err, &apiErr) || apiErr.Status == 201 {
		t.Fatalf("gapped delta = %v, want error", err)
	}
}

// TestRawCommitRejectsMalformed pins that a ?raw=1 body the store
// cannot take is the client's fault: a truncated NMRKD2 file and a body
// that is no checkpoint at all each get 400 bad_request carrying the
// parse error, after exactly one attempt of a retrying client.
func TestRawCommitRejectsMalformed(t *testing.T) {
	_, ts := newTestServer(t, 0, 0)
	src := &Client{Base: ts.URL, Tenant: "src"}
	for i := 0; i < 2; i++ {
		if _, err := src.Push("v", i, bytes.NewReader(floatBytes(seriesValues(i, 2048))), nil); err != nil {
			t.Fatal(err)
		}
	}
	delta, kind, err := src.FetchRaw("v", 1)
	if err != nil || kind != "delta" {
		t.Fatalf("fetch raw delta: kind %q, %v", kind, err)
	}

	sleeps := 0
	c := &Client{Base: ts.URL, Tenant: "dst", Retry: RetryPolicy{MaxAttempts: 4, Sleep: func(time.Duration) { sleeps++ }}}
	for name, body := range map[string][]byte{
		"truncated NMRKD2": delta[:len(delta)-7],
		"garbage":          []byte("this is not a checkpoint file"),
	} {
		sleeps = 0
		_, err := c.PushRaw("v", 1, body)
		var apiErr *APIError
		if !errors.As(err, &apiErr) || apiErr.Status != 400 || apiErr.Class != "bad_request" {
			t.Fatalf("%s: raw push = %v, want 400 bad_request", name, err)
		}
		if !strings.Contains(apiErr.Detail, "raw checkpoint rejected") {
			t.Errorf("%s: detail %q lost the parse error", name, apiErr.Detail)
		}
		if sleeps != 0 {
			t.Errorf("%s: client retried %d times, want one attempt", name, sleeps)
		}
	}
}

// TestNonFiniteDeltaRejected pins that a delta body holding NaN is the
// client's fault: 400 bad_request naming the point, after exactly one
// attempt of a retrying client. A full push of the same body is still
// stored as it is.
func TestNonFiniteDeltaRejected(t *testing.T) {
	_, ts := newTestServer(t, 0, 0)
	sleeps := 0
	c := &Client{Base: ts.URL, Tenant: "sim0", Retry: RetryPolicy{MaxAttempts: 3, Sleep: func(time.Duration) { sleeps++ }}}
	if _, err := c.Push("v", 0, bytes.NewReader(floatBytes(seriesValues(0, 2048))), nil); err != nil {
		t.Fatal(err)
	}
	bad := seriesValues(1, 2048)
	bad[1500] = math.NaN()
	_, err := c.Push("v", 1, bytes.NewReader(floatBytes(bad)), nil)
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.Status != 400 || apiErr.Class != "bad_request" || !strings.Contains(apiErr.Detail, "point 1500 ") {
		t.Fatalf("NaN delta push = %v, want 400 bad_request naming point 1500", err)
	}
	if sleeps != 0 {
		t.Errorf("client retried %d times, want one attempt", sleeps)
	}
	if _, err := c.Push("v", 1, bytes.NewReader(floatBytes(bad)), url.Values{"kind": {"full"}}); err != nil {
		t.Fatalf("NaN full push: %v", err)
	}
}

// TestServeRefusesUnreadParams pins that an endpoint refuses any query
// parameter it does not read, naming it: an encode option a request
// carries would otherwise be silently ignored.
func TestServeRefusesUnreadParams(t *testing.T) {
	_, ts := newTestServer(t, 0, 0)
	c := &Client{Base: ts.URL, Tenant: "sim0"}
	body := floatBytes(seriesValues(0, 64))
	// Values a daemon used to accept as per-request overrides.
	for name, val := range map[string]string{
		"e": "0.01", "b": "12", "strategy": "log-scale", "chunk": "512", "workers": "1", "budget": "1048576",
	} {
		_, err := c.Push("dens", 0, bytes.NewReader(body), url.Values{name: {val}})
		var apiErr *APIError
		if !errors.As(err, &apiErr) || apiErr.Status != 400 || !strings.Contains(apiErr.Detail, strconv.Quote(name)) {
			t.Fatalf("push with %s= = %v, want 400 naming %q", name, err, name)
		}
		_, err = c.PushResumable("dens", 0, bytes.NewReader(body), int64(len(body)), 0, url.Values{name: {val}})
		if !errors.As(err, &apiErr) || apiErr.Status != 400 || !strings.Contains(apiErr.Detail, strconv.Quote(name)) {
			t.Fatalf("upload with %s= = %v, want 400 naming %q", name, err, name)
		}
	}
	// The parameters the endpoints do read still work.
	if _, err := c.Push("dens", 0, bytes.NewReader(body), url.Values{"kind": {"full"}}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.PushResumable("dens", 1, bytes.NewReader(body), int64(len(body)), 0, url.Values{"kind": {"full"}}); err != nil {
		t.Fatal(err)
	}
}

// TestTenantKeepsStoreOptions pins that a tenant's series is encoded
// with the options its store was created with: a daemon restarted on
// the same root with another error bound creates new tenants with it,
// but the existing tenant's next delta is still at the old one.
func TestTenantKeepsStoreOptions(t *testing.T) {
	root := t.TempDir()
	start := func(opt core.Options) *Client {
		s, err := New(Config{Root: root, Opt: opt, Chunk: testChunkConfig()})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(s.Handler())
		t.Cleanup(ts.Close)
		return &Client{Base: ts.URL, Tenant: "sim0"}
	}
	push := func(c *Client, iter int) {
		t.Helper()
		if _, err := c.Push("dens", iter, bytes.NewReader(floatBytes(seriesValues(iter, 2048))), nil); err != nil {
			t.Fatalf("push %d: %v", iter, err)
		}
	}
	deltaOpt := func(c *Client, iter int) core.Options {
		t.Helper()
		raw, kind, err := c.FetchRaw("dens", iter)
		if err != nil || kind != "delta" {
			t.Fatalf("fetch raw %d: kind %q, %v", iter, kind, err)
		}
		d, err := checkpoint.OpenDelta(bytes.NewReader(raw), int64(len(raw)))
		if err != nil {
			t.Fatal(err)
		}
		return d.Meta().Opt
	}

	first := testOptions(t)
	c := start(first)
	push(c, 0)
	push(c, 1)

	restarted := first
	restarted.ErrorBound = 0.01
	c = start(restarted)
	push(c, 2)

	view, err := checkpoint.OpenReadOnly(filepath.Join(root, "sim0"))
	if err != nil {
		t.Fatal(err)
	}
	manifest := view.Options()
	if manifest.ErrorBound != first.ErrorBound {
		t.Fatalf("manifest E = %v, want the creating daemon's %v", manifest.ErrorBound, first.ErrorBound)
	}
	for _, iter := range []int{1, 2} {
		got := deltaOpt(c, iter)
		if got.ErrorBound != manifest.ErrorBound || got.IndexBits != manifest.IndexBits || got.Strategy != manifest.Strategy {
			t.Errorf("delta %d encoded at E=%v B=%d %v, manifest says E=%v B=%d %v",
				iter, got.ErrorBound, got.IndexBits, got.Strategy, manifest.ErrorBound, manifest.IndexBits, manifest.Strategy)
		}
	}
}
