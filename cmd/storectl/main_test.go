package main

import (
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"numarck/internal/checkpoint"
	"numarck/internal/core"
)

func buildStore(t *testing.T) string {
	t.Helper()
	dir := filepath.Join(t.TempDir(), "ck")
	st, err := checkpoint.Create(dir, core.Options{ErrorBound: 0.001, IndexBits: 8, Strategy: core.Clustering})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	data := make([]float64, 500)
	for i := range data {
		data[i] = 10 + rng.Float64()
	}
	w := checkpoint.NewWriter(st, 3)
	for it := 0; it < 6; it++ {
		if it > 0 {
			for i := range data {
				data[i] *= 1 + rng.NormFloat64()*0.001
			}
		}
		if _, err := w.Append(it, map[string][]float64{"v": data}); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	return dir
}

func TestVerifyStatsLatestGC(t *testing.T) {
	dir := buildStore(t)
	if err := cmdVerify([]string{"-dir", dir}); err != nil {
		t.Errorf("verify: %v", err)
	}
	if err := cmdStats([]string{"-dir", dir}); err != nil {
		t.Errorf("stats: %v", err)
	}
	if err := cmdLatest([]string{"-dir", dir}); err != nil {
		t.Errorf("latest: %v", err)
	}
	if err := cmdGC([]string{"-dir", dir, "-keep", "5"}); err != nil {
		t.Errorf("gc: %v", err)
	}
	// Still verifies clean after GC.
	if err := cmdVerify([]string{"-dir", dir}); err != nil {
		t.Errorf("verify after gc: %v", err)
	}
}

// captureStdout runs f with os.Stdout redirected and returns what it
// printed.
func captureStdout(t *testing.T, f func() error) (string, error) {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	stdout := os.Stdout
	os.Stdout = w
	printed := make(chan string)
	go func() {
		out, _ := io.ReadAll(r)
		printed <- string(out)
	}()
	ferr := f()
	os.Stdout = stdout
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return <-printed, ferr
}

// TestVerifyReportsRepairedStore: verify opens the store as a writer, so
// the recovery scan quarantines a delta torn by one byte before the deep
// pass runs, and the chain simply ends one iteration earlier. verify
// must report the repair by file name and fail, not call the store
// clean.
func TestVerifyReportsRepairedStore(t *testing.T) {
	dir := buildStore(t)
	const name = "v.delta.000005.nmk"
	path := filepath.Join(dir, name)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, raw[:len(raw)-1], 0o644); err != nil {
		t.Fatal(err)
	}
	out, err := captureStdout(t, func() error { return cmdVerify([]string{"-dir", dir}) })
	if err == nil {
		t.Fatalf("verify of a repaired store succeeded:\n%s", out)
	}
	if !strings.Contains(out, "quarantined: "+name) {
		t.Errorf("report does not name the torn file:\n%s", out)
	}
	if !strings.Contains(out, "v: restorable through iteration 4") {
		t.Errorf("report does not show where the chain now ends:\n%s", out)
	}
}

func TestMissingFlags(t *testing.T) {
	if err := cmdVerify([]string{}); err == nil {
		t.Error("verify without -dir accepted")
	}
	dir := buildStore(t)
	if err := cmdGC([]string{"-dir", dir}); err == nil {
		t.Error("gc without -keep accepted")
	}
	if err := cmdVerify([]string{"-dir", filepath.Join(dir, "missing")}); err == nil {
		t.Error("missing store accepted")
	}
}
