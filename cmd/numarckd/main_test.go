package main

import (
	"bytes"
	"context"
	"errors"
	"io"
	"math"
	"net/http"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"numarck/internal/checkpoint"
	"numarck/internal/server"
)

// startDaemon runs the daemon lifecycle in a goroutine against a temp
// root and returns its bound address, the cancel that stands in for
// SIGTERM, and a wait that returns run's error.
func startDaemon(t *testing.T, root string, extra ...string) (addr string, sigterm func(), wait func() error) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	args := append([]string{"-addr", "127.0.0.1:0", "-root", root}, extra...)
	ready := make(chan string, 1)
	errc := make(chan error, 1)
	var out bytes.Buffer
	var mu sync.Mutex
	w := writerFunc(func(p []byte) (int, error) {
		mu.Lock()
		defer mu.Unlock()
		return out.Write(p)
	})
	go func() { errc <- run(ctx, args, w, w, ready) }()
	select {
	case addr = <-ready:
	case err := <-errc:
		t.Fatalf("daemon exited before ready: %v", err)
	case <-time.After(10 * time.Second):
		t.Fatal("daemon never became ready")
	}
	t.Cleanup(cancel)
	return addr, cancel, func() error {
		select {
		case err := <-errc:
			mu.Lock()
			defer mu.Unlock()
			if !strings.Contains(out.String(), "draining") {
				t.Errorf("daemon log missing drain notice:\n%s", out.String())
			}
			return err
		case <-time.After(10 * time.Second):
			t.Fatal("daemon never exited after signal")
			return nil
		}
	}
}

// writerFunc adapts a function to io.Writer for capturing daemon logs.
type writerFunc func(p []byte) (int, error)

func (f writerFunc) Write(p []byte) (int, error) { return f(p) }

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

func testVals(iter, n int) []float64 {
	vals := make([]float64, n)
	for i := range vals {
		vals[i] = math.Cos(float64(i)*0.02) + 0.01*float64(iter)
	}
	return vals
}

// TestDaemonGracefulDrain drives the full lifecycle: serve a commit,
// signal shutdown while another commit is in flight, and require that
// after run returns the store reopens cleanly with a complete chain —
// every accepted write fully committed, nothing torn.
func TestDaemonGracefulDrain(t *testing.T) {
	root := t.TempDir()
	addr, sigterm, wait := startDaemon(t, root)
	c := &server.Client{Base: "http://" + addr, Tenant: "sim0"}

	const n = 65536
	if _, err := c.Push("dens", 0, bytes.NewReader(floatBytes(testVals(0, n))), nil); err != nil {
		t.Fatal(err)
	}

	// Start a delta commit whose body trickles in, then signal while it
	// is in flight: drain must let it finish (or refuse it whole), never
	// half-commit.
	pr, pw := io.Pipe()
	pushErr := make(chan error, 1)
	go func() {
		_, err := c.Push("dens", 1, pr, nil)
		pushErr <- err
	}()
	body := floatBytes(testVals(1, n))
	if _, err := pw.Write(body[:len(body)/2]); err != nil {
		t.Fatal(err)
	}
	sigterm()
	time.Sleep(50 * time.Millisecond) // let drain flip while the body is still open
	// The write or close can fail if the daemon concluded the request
	// early (e.g. refused it whole); the push error below is the truth.
	if _, err := pw.Write(body[len(body)/2:]); err != nil {
		t.Logf("tail write: %v", err)
	}
	//lint:ignore errcheck early-concluded request also closes the pipe; pushErr carries the outcome
	pw.Close()
	inFlightErr := <-pushErr
	t.Logf("in-flight push outcome: %v", inFlightErr)

	if err := wait(); err != nil {
		t.Fatalf("run returned %v", err)
	}

	// New work is refused once the daemon is gone.
	if _, err := c.Push("dens", 2, bytes.NewReader(floatBytes(testVals(2, n))), nil); err == nil {
		t.Fatal("push succeeded after shutdown")
	}

	// The store must reopen clean: lock free, chain complete up to the
	// last acknowledged iteration, deep verify silent.
	st, err := checkpoint.Open(filepath.Join(root, "sim0"))
	if err != nil {
		t.Fatalf("store did not reopen cleanly after drain: %v", err)
	}
	defer func() {
		//lint:ignore errcheck test store teardown
		st.Close()
	}()
	issues, err := st.Verify()
	if err != nil {
		t.Fatal(err)
	}
	if len(issues) != 0 {
		t.Fatalf("store has issues after drain: %v", issues)
	}
	latest, err := st.LatestRestorable("dens")
	if err != nil {
		t.Fatal(err)
	}
	if inFlightErr == nil {
		// The in-flight commit was acknowledged: it must be durable.
		if latest != 1 {
			t.Fatalf("acknowledged iteration 1 lost: latest restorable = %d", latest)
		}
	} else if latest != 0 {
		// Refused whole: the pre-signal state stands untouched.
		t.Fatalf("refused commit left residue: latest restorable = %d", latest)
	}
	vals, err := st.Restart("dens", latest)
	if err != nil {
		t.Fatal(err)
	}
	if len(vals) != n {
		t.Fatalf("restart returned %d points, want %d", len(vals), n)
	}
}

// TestDaemonReadyzFlip checks the probe contract around drain:
// /readyz answers 200 while serving and flips to 503 once the signal
// lands (or the listener is already gone), while /healthz answers 200
// for as long as the daemon answers at all.
func TestDaemonReadyzFlip(t *testing.T) {
	addr, sigterm, wait := startDaemon(t, t.TempDir())
	get := func(path string) int {
		resp, err := http.Get("http://" + addr + path)
		if err != nil {
			return -1
		}
		//lint:ignore errcheck probe body; status is the signal
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := get("/readyz"); code != 200 {
		t.Fatalf("/readyz while serving = %d", code)
	}
	if code := get("/healthz"); code != 200 {
		t.Fatalf("/healthz while serving = %d", code)
	}
	sigterm()
	// The signal is delivered asynchronously: the daemon may answer a
	// few more 200s before it starts draining. Poll until the flip —
	// 503, or connection refused once Shutdown has closed the idle
	// listener — and require liveness to stay green up to it.
	deadline := time.Now().Add(10 * time.Second)
	for {
		if code := get("/healthz"); code != 200 && code != -1 {
			t.Fatalf("/healthz after signal = %d, want 200 or connection refused", code)
		}
		code := get("/readyz")
		if code == 503 || code == -1 {
			break
		}
		if code != 200 {
			t.Fatalf("/readyz after signal = %d, want 200, 503 or connection refused", code)
		}
		if time.Now().After(deadline) {
			t.Fatal("/readyz never flipped after the signal")
		}
		time.Sleep(time.Millisecond)
	}
	if err := wait(); err != nil {
		t.Fatal(err)
	}
}

// TestDaemonFlagErrors checks the daemon refuses to start without a
// root and with malformed options.
func TestDaemonFlagErrors(t *testing.T) {
	var sink bytes.Buffer
	if err := run(context.Background(), nil, &sink, &sink, nil); err == nil {
		t.Fatal("run without -root succeeded")
	}
	err := run(context.Background(), []string{"-root", t.TempDir(), "-strategy", "nope"}, &sink, &sink, nil)
	if err == nil {
		t.Fatal("run with unknown strategy succeeded")
	}
	err = run(context.Background(), []string{"-root", t.TempDir(), "-e", "-1"}, &sink, &sink, nil)
	if err == nil {
		t.Fatal("run with negative error bound succeeded")
	}
	if errors.Is(err, context.Canceled) {
		t.Fatalf("wrong error: %v", err)
	}
}
