package main

import (
	"bytes"
	"math"
	"net/http/httptest"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"numarck/internal/checkpoint"
	"numarck/internal/core"
	"numarck/internal/rawio"
	"numarck/internal/server"
)

// startRemoteDaemon mounts a daemon handler whose new tenants get opt
// on an httptest listener, and returns its URL and store root.
func startRemoteDaemon(t *testing.T, opt core.Options) (addr, root string) {
	t.Helper()
	root = t.TempDir()
	s, err := server.New(server.Config{Root: root, Opt: opt})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return ts.URL, root
}

// TestRemoteRoundTrip drives the CLI's daemon client mode end to end:
// compress two iterations against a daemon and decompress them back —
// all through the command functions the flag layer dispatches to.
func TestRemoteRoundTrip(t *testing.T) {
	addr, _ := startRemoteDaemon(t, core.Options{ErrorBound: 0.001, IndexBits: 8, Strategy: core.Clustering})
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

// TestRemoteCompressUsesStoreOptions checks that compress -addr leaves
// the encode to the tenant's store: against a daemon whose tenants are
// created at E=0.01, B=12, log-scale, the committed delta carries
// exactly the manifest's options, and an explicit encode or pipeline
// flag alongside -addr is an error rather than silently dropped.
func TestRemoteCompressUsesStoreOptions(t *testing.T) {
	addr, root := startRemoteDaemon(t, core.Options{ErrorBound: 0.01, IndexBits: 12, Strategy: core.LogScale})
	dir := t.TempDir()
	for i := 0; i < 2; i++ {
		vals := make([]float64, 4096)
		for j := range vals {
			vals[j] = 10 + math.Sin(float64(j)*0.01) + 0.05*float64(i)
		}
		curPath := filepath.Join(dir, "cur.f64")
		if err := rawio.WriteFile(curPath, vals); err != nil {
			t.Fatal(err)
		}
		if err := cmdCompress([]string{"-addr", addr, "-tenant", "sim", "-var", "dens", "-iter", strconv.Itoa(i), "-cur", curPath}); err != nil {
			t.Fatalf("remote compress %d: %v", i, err)
		}
	}
	view, err := checkpoint.OpenReadOnly(filepath.Join(root, "sim"))
	if err != nil {
		t.Fatal(err)
	}
	want := view.Options()
	raw, kind, err := (&server.Client{Base: addr, Tenant: "sim"}).FetchRaw("dens", 1)
	if err != nil || kind != "delta" {
		t.Fatalf("fetch raw delta: kind %q, %v", kind, err)
	}
	d, err := checkpoint.OpenDelta(bytes.NewReader(raw), int64(len(raw)))
	if err != nil {
		t.Fatal(err)
	}
	got := d.Meta().Opt
	if got.ErrorBound != want.ErrorBound || got.IndexBits != want.IndexBits || got.Strategy != want.Strategy {
		t.Fatalf("delta encoded at E=%v B=%d %v, manifest says E=%v B=%d %v",
			got.ErrorBound, got.IndexBits, got.Strategy, want.ErrorBound, want.IndexBits, want.Strategy)
	}

	for _, flag := range []string{"-e", "-b", "-strategy", "-chunk", "-workers", "-budget"} {
		val := "1"
		if flag == "-strategy" {
			val = "log-scale"
		}
		err := cmdCompress([]string{"-addr", addr, "-tenant", "sim", "-var", "dens", "-iter", "2", "-cur", filepath.Join(dir, "cur.f64"), flag, val})
		if err == nil || !strings.Contains(err.Error(), flag) {
			t.Errorf("compress -addr %s %s = %v, want an error naming %s", flag, val, err, flag)
		}
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
