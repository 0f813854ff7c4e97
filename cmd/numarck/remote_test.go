package main

import (
	"math"
	"net/http/httptest"
	"path/filepath"
	"strconv"
	"testing"

	"numarck/internal/core"
	"numarck/internal/rawio"
	"numarck/internal/server"
)

// startRemoteDaemon mounts a daemon handler on an httptest listener.
func startRemoteDaemon(t *testing.T) string {
	t.Helper()
	strategy, err := core.ParseStrategy("clustering")
	if err != nil {
		t.Fatal(err)
	}
	s, err := server.New(server.Config{
		Root: t.TempDir(),
		Opt:  core.Options{ErrorBound: 0.001, IndexBits: 8, Strategy: strategy},
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return ts.URL
}

// TestRemoteRoundTrip drives the CLI's daemon client mode end to end:
// compress two iterations against a daemon and decompress them back —
// all through the command functions the flag layer dispatches to.
func TestRemoteRoundTrip(t *testing.T) {
	addr := startRemoteDaemon(t)
	dir := t.TempDir()
	n := 2048
	vals := func(iter int) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = math.Sin(float64(i)*0.03) + 0.01*float64(iter)
		}
		return out
	}
	for i := 0; i < 2; i++ {
		curPath := filepath.Join(dir, "cur.f64")
		if err := rawio.WriteFile(curPath, vals(i)); err != nil {
			t.Fatal(err)
		}
		if err := cmdCompress([]string{"-addr", addr, "-tenant", "sim", "-var", "dens", "-iter", strconv.Itoa(i), "-cur", curPath}); err != nil {
			t.Fatalf("remote compress %d: %v", i, err)
		}
	}
	outPath := filepath.Join(dir, "rec.f64")
	if err := cmdDecompress([]string{"-addr", addr, "-tenant", "sim", "-var", "dens", "-iter", "1", "-out", outPath}); err != nil {
		t.Fatalf("remote decompress: %v", err)
	}
	got, err := rawio.ReadFile(outPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != n {
		t.Fatalf("reconstructed %d points, want %d", len(got), n)
	}
	// The codec bounds the reconstruction error relative to the
	// previous iteration's magnitude (the change-ratio quantization).
	want, prev := vals(1), vals(0)
	for i := range got {
		tol := 0.0011*math.Max(math.Abs(prev[i]), math.Abs(want[i])) + 1e-12
		if math.Abs(got[i]-want[i]) > tol {
			t.Fatalf("point %d: %v vs %v outside error bound", i, got[i], want[i])
		}
	}
	// A structured daemon error surfaces as a typed APIError.
	err = cmdDecompress([]string{"-addr", addr, "-tenant", "sim", "-var", "ghost", "-iter", "0", "-out", outPath})
	if err == nil {
		t.Fatal("remote decompress of missing series succeeded")
	}
}

// TestCompressPlan checks -plan prints the resolved pipeline without
// needing inputs.
func TestCompressPlan(t *testing.T) {
	if err := cmdCompress([]string{"-plan", "-chunk", "4096", "-workers", "2"}); err != nil {
		t.Fatalf("compress -plan: %v", err)
	}
	if err := cmdCompress([]string{"-plan", "-budget", "1"}); err == nil {
		t.Fatal("compress -plan with an unfittable budget succeeded")
	}
}
