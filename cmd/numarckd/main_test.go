package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
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

// openFDs counts the process's open file descriptors, or reports
// false where /proc/self/fd does not exist.
func openFDs(t *testing.T) (int, bool) {
	t.Helper()
	des, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		return 0, false
	}
	return len(des), true
}

// TestDaemonGracefulDrain drives the full lifecycle: serve a
// two-client burst on one tenant (the writes that keep its store open
// for each other) and a commit, signal shutdown while another commit
// is in flight, and require that after run returns no tenant LOCK
// remains, the process's open file descriptors are back to their
// pre-serve count, and the store reopens cleanly with a complete chain
// — every accepted write fully committed, nothing torn.
func TestDaemonGracefulDrain(t *testing.T) {
	// The runtime's network poller opens its descriptors on first use
	// and keeps them: take that first use before the baseline.
	warm, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if err := warm.Close(); err != nil {
		t.Fatal(err)
	}
	baseline, haveFDs := openFDs(t)

	root := t.TempDir()
	addr, sigterm, wait := startDaemon(t, root)
	tr := &http.Transport{}
	c := &server.Client{Base: "http://" + addr, Tenant: "sim0", HTTP: &http.Client{Transport: tr}}

	const n = 65536
	var wg sync.WaitGroup
	burstErrs := make([]error, 2)
	for k := range burstErrs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			series := []string{"u", "v"}[k]
			for iter := 0; iter < 6 && burstErrs[k] == nil; iter++ {
				_, burstErrs[k] = c.Push(series, iter, bytes.NewReader(floatBytes(testVals(iter+k, n/8))), nil)
			}
		}()
	}
	wg.Wait()
	for _, err := range burstErrs {
		if err != nil {
			t.Fatalf("burst: %v", err)
		}
	}
	if _, err := c.Push("dens", 0, bytes.NewReader(floatBytes(testVals(0, n))), nil); err != nil {
		t.Fatal(err)
	}

	// Start a delta commit whose body trickles in, then signal while it
	// is in flight: drain must let it finish (or refuse it whole), never
	// half-commit. It is a raw POST: Client.Push would spool the pipe to
	// compute its payload CRC and send only after the signal.
	pr, pw := io.Pipe()
	pushErr := make(chan error, 1)
	go func() {
		resp, err := (&http.Client{Transport: tr}).Post("http://"+addr+"/v1/sim0/dens/checkpoints?iter=1", "application/octet-stream", pr)
		if err == nil {
			if resp.StatusCode != http.StatusCreated {
				err = fmt.Errorf("status %d", resp.StatusCode)
			}
			//lint:ignore errcheck the status is the outcome; the body is only drained
			io.Copy(io.Discard, resp.Body)
			if cerr := resp.Body.Close(); err == nil {
				err = cerr
			}
		}
		pushErr <- err
	}()
	body := floatBytes(testVals(1, n))
	if _, err := pw.Write(body[:len(body)/2]); err != nil {
		t.Fatal(err)
	}
	// The handler is in flight once it has created its spool file; the
	// burst's spools are gone, since every one of its requests returned.
	spooled := filepath.Join(root, ".spool", "body-*")
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		if m, _ := filepath.Glob(spooled); len(m) > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the trickling push never reached the handler")
		}
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

	// Drain left no writer lock behind, in any tenant.
	if locks, err := filepath.Glob(filepath.Join(root, "*", "LOCK")); err != nil || len(locks) != 0 {
		t.Fatalf("LOCK files after drain: %v (%v)", locks, err)
	}
	// Nor any descriptor: the stores, spools and connections the
	// daemon opened are closed once the client lets go of its side.
	tr.CloseIdleConnections()
	if haveFDs {
		for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(10 * time.Millisecond) {
			fds, _ := openFDs(t)
			if fds <= baseline {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("%d file descriptors open after drain, %d before serving", fds, baseline)
			}
		}
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

// TestDaemonLeavesNoGoroutines: when drain times out with a request
// still open, run returns the drain error without receiving the serve
// loop's result — and every goroutine run started must still exit. A
// serve loop that blocks forever on its result channel is the leak
// this pins.
func TestDaemonLeavesNoGoroutines(t *testing.T) {
	root := t.TempDir()
	addr, sigterm, wait := startDaemon(t, root, "-drain-timeout", "20ms")

	// A raw POST whose body stays open keeps the connection active past
	// the drain timeout. (Client.Push would spool the body first.)
	pr, pw := io.Pipe()
	posted := make(chan error, 1)
	go func() {
		resp, err := http.Post("http://"+addr+"/v1/sim0/dens/checkpoints?iter=0", "application/octet-stream", pr)
		if err == nil {
			err = resp.Body.Close()
		}
		posted <- err
	}()
	if _, err := pw.Write(floatBytes(testVals(0, 1024))); err != nil {
		t.Fatal(err)
	}
	// The handler is in flight once it has created its spool file.
	spooled := filepath.Join(root, ".spool", "body-*")
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		if m, _ := filepath.Glob(spooled); len(m) > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the held request never reached the handler")
		}
	}

	sigterm()
	if err := wait(); err == nil || !strings.HasPrefix(err.Error(), "drain:") {
		t.Fatalf("run returned %v, want the drain timeout", err)
	}
	if err := pw.Close(); err != nil {
		t.Fatal(err)
	}
	if err := <-posted; err != nil {
		t.Logf("held request outcome: %v", err)
	}

	buf := make([]byte, 1<<20)
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(10 * time.Millisecond) {
		stacks := string(buf[:runtime.Stack(buf, true)])
		// Matches run's own frames, its closures and "created by" lines.
		if !strings.Contains(stacks, "cmd/numarckd.run") {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines started by run outlived it:\n%s", stacks)
		}
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
