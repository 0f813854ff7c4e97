// Command numarckd is the NUMARCK checkpoint service daemon: a
// multi-tenant HTTP front end over per-tenant checkpoint stores and
// the out-of-core codec pipeline (see internal/server).
//
// Usage:
//
//	numarckd -root /var/lib/numarck [-addr :8377] [-capacity bytes]
//	         [-budget bytes] [-chunk points] [-workers n]
//	         [-e 0.001] [-b 8] [-strategy clustering]
//	         [-admit-wait 2s] [-drain-timeout 30s]
//	         [-janitor-interval 1m] [-spool-ttl 1h] [-session-ttl 24h]
//
// Each tenant's store lives at root/<tenant>; stores are created
// lazily on a tenant's first commit, and -e/-b/-strategy are the
// options a new store is created with. From then on the store's
// manifest decides how its series are encoded, so restarting the
// daemon with other options leaves existing tenants as they were.
// -chunk/-workers/-budget shape every delta encode: -budget caps each
// single pipeline's buffer memory (the chunk resolver shrinks workers
// and chunk size to fit); -capacity caps the sum across concurrent
// requests — when it is exhausted, requests queue up to -admit-wait
// and are then refused with 429 + Retry-After rather than OOMing the
// daemon. The series heads the daemon keeps between pushes (8 bytes
// per point per series) count against -capacity too, and give way to
// any request that needs their room; without -capacity every series
// keeps its head. A request cannot override any of these.
//
// A self-healing janitor sweeps every -janitor-interval: spool scratch
// files and resumable upload sessions idle past their TTLs are reaped,
// with the tallies published under /metrics as janitor counters. A
// stale writer lock left by a crashed process is taken over by the next
// write to its tenant, counted as that tenant's lock_takeovers.
//
// On SIGTERM or SIGINT the daemon drains: /readyz flips to 503, new
// API requests get 503, and in-flight commits run to completion —
// releasing their store locks — before the listener closes. A second
// signal, or -drain-timeout expiring, abandons the wait.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"numarck/internal/chunk"
	"numarck/internal/core"
	"numarck/internal/server"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, syscall.SIGINT)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout, os.Stderr, nil); err != nil {
		fmt.Fprintf(os.Stderr, "numarckd: %v\n", err)
		os.Exit(1)
	}
}

// run is the daemon's whole lifecycle, factored out of main so tests
// can drive it: parse flags, build the server, serve until ctx is
// done, then drain. If ready is non-nil it receives the bound listen
// address once the daemon is accepting connections.
func run(ctx context.Context, args []string, stdout, stderr io.Writer, ready chan<- string) error {
	fs := flag.NewFlagSet("numarckd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	addr := fs.String("addr", ":8377", "listen address")
	root := fs.String("root", "", "tenant store root directory (required)")
	capacity := fs.Int64("capacity", 0, "memory governor: total admitted bytes across concurrent requests and kept series heads (0 = ungoverned)")
	budget := fs.Int64("budget", 0, "per-pipeline memory budget in bytes (0 = no cap)")
	chunkPoints := fs.Int("chunk", 0, "points per chunk for delta encodes (0 = default)")
	workers := fs.Int("workers", 0, "concurrent chunks per pipeline (0 = GOMAXPROCS)")
	e := fs.Float64("e", 0.001, "error bound E (a fraction) new tenant stores are created with")
	b := fs.Int("b", 8, "index bits B new tenant stores are created with")
	strategyName := fs.String("strategy", "clustering", "strategy new tenant stores are created with: equal-width | log-scale | clustering")
	admitWait := fs.Duration("admit-wait", 2*time.Second, "how long a request may wait for governor admission before 429")
	drainTimeout := fs.Duration("drain-timeout", 30*time.Second, "how long drain waits for in-flight requests")
	janitorInterval := fs.Duration("janitor-interval", time.Minute, "how often the self-healing janitor sweeps (0 disables it)")
	spoolTTL := fs.Duration("spool-ttl", time.Hour, "janitor: reap spool scratch files idle longer than this")
	sessionTTL := fs.Duration("session-ttl", 24*time.Hour, "janitor: reap upload sessions idle longer than this")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *root == "" {
		fs.Usage()
		return fmt.Errorf("-root is required")
	}
	strategy, err := core.ParseStrategy(*strategyName)
	if err != nil {
		return err
	}
	cfg := server.Config{
		Root:          *root,
		Opt:           core.Options{ErrorBound: *e, IndexBits: *b, Strategy: strategy},
		Chunk:         chunk.Config{ChunkPoints: *chunkPoints, Workers: *workers, BudgetBytes: *budget},
		CapacityBytes: *capacity,
		AdmitWait:     *admitWait,
	}
	srv, err := server.New(cfg)
	if err != nil {
		return err
	}
	resolved, err := chunk.ResolveConfig(cfg.Chunk)
	if err != nil {
		return err
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	hs := &http.Server{Handler: srv.Handler()}
	fmt.Fprintf(stdout, "numarckd: listening on %s, root %s\n", ln.Addr(), *root)
	fmt.Fprintf(stdout, "numarckd: pipeline plan: %d workers x %d-point chunks, peak %d bytes/pipeline; governor capacity %d bytes\n",
		resolved.Config.Workers, resolved.Config.ChunkPoints, resolved.PeakBufferBytes, *capacity)
	if ready != nil {
		ready <- ln.Addr().String()
	}

	if *janitorInterval > 0 {
		go srv.RunJanitor(ctx, server.JanitorConfig{
			Interval: *janitorInterval, SpoolTTL: *spoolTTL, SessionTTL: *sessionTTL,
		})
	}

	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()

	select {
	case err := <-serveErr:
		return err
	case <-ctx.Done():
	}

	// Drain: stop admitting (readyz 503, API 503), then let in-flight
	// commits finish and release their store locks before the
	// listener closes.
	fmt.Fprintln(stdout, "numarckd: draining")
	srv.StartDrain()
	sctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := hs.Shutdown(sctx); err != nil {
		return fmt.Errorf("drain: %w", err)
	}
	if err := <-serveErr; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	fmt.Fprintln(stdout, "numarckd: stopped")
	return nil
}
