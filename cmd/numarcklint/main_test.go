package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeModule lays out a throwaway module for the driver to analyze.
func writeModule(t *testing.T, files map[string]string) string {
	t.Helper()
	dir := t.TempDir()
	for name, src := range files {
		path := filepath.Join(dir, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

const goMod = "module tinymod\n\ngo 1.22\n"

// TestRunFindsAndSuppresses drives the binary end to end on a module
// with one real finding per comparison plus one suppressed finding:
// exit 1, the finding printed with position, the suppression counted.
func TestRunFindsAndSuppresses(t *testing.T) {
	dir := writeModule(t, map[string]string{
		"go.mod": goMod,
		"pkg/pkg.go": `// Package pkg exercises the driver end to end.
package pkg

func equal(a, b float64) bool { return a == b }

func suppressed(a, b float64) bool {
	//lint:ignore floatcmp exactness is the contract under test
	return a == b
}
`,
	})
	var stdout, stderr bytes.Buffer
	code := run([]string{"-dir", dir, "./..."}, &stdout, &stderr)
	if code != 1 {
		t.Fatalf("exit = %d, want 1\nstdout: %s\nstderr: %s", code, &stdout, &stderr)
	}
	out := stdout.String()
	if !strings.Contains(out, "pkg.go:4:") || !strings.Contains(out, "floatcmp") {
		t.Errorf("finding missing position or analyzer name:\n%s", out)
	}
	if strings.Contains(out, "pkg.go:9") {
		t.Errorf("suppressed finding leaked into output:\n%s", out)
	}
	if !strings.Contains(stderr.String(), "1 finding(s), 1 suppressed") {
		t.Errorf("summary = %q", stderr.String())
	}
}

// TestRunCleanModule: a module with no findings exits 0.
func TestRunCleanModule(t *testing.T) {
	dir := writeModule(t, map[string]string{
		"go.mod": goMod,
		"pkg/pkg.go": `// Package pkg is finding-free.
package pkg

func add(a, b int) int { return a + b }
`,
	})
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-dir", dir}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit = %d, want 0\nstderr: %s", code, &stderr)
	}
}

// TestRunDroppedCheckpointError: the errcheck analyzer fires across
// package boundaries inside the analyzed module, mirroring the
// internal/checkpoint contract in the real repo.
func TestRunDroppedCheckpointError(t *testing.T) {
	dir := writeModule(t, map[string]string{
		"go.mod": goMod,
		"store/store.go": `// Package store drops an error on purpose.
package store

import "os"

func drop(f *os.File) {
	f.Close()
}
`,
	})
	var stdout, stderr bytes.Buffer
	code := run([]string{"-dir", dir, "./store"}, &stdout, &stderr)
	if code != 1 {
		t.Fatalf("exit = %d, want 1\nstderr: %s", code, &stderr)
	}
	if !strings.Contains(stdout.String(), "errcheck") {
		t.Errorf("expected an errcheck finding:\n%s", &stdout)
	}
}

// TestRunJSONAndList: -json is gone (findings are text only), so it is
// a usage error; -list names exactly the seven analyzers.
func TestRunJSONAndList(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-json", "./..."}, &stdout, &stderr); code != 2 {
		t.Fatalf("-json exit = %d, want 2 (unknown flag)", code)
	}

	stdout.Reset()
	if code := run([]string{"-list"}, &stdout, &stderr); code != 0 {
		t.Fatalf("-list exit = %d, want 0", code)
	}
	want := []string{"floatcmp", "waitgroup", "errcheck", "doccomment", "fsseam", "errwrap", "obsstage"}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	if len(lines) != len(want) {
		t.Fatalf("-list printed %d analyzers, want %d:\n%s", len(lines), len(want), &stdout)
	}
	for i, name := range want {
		if f := strings.Fields(lines[i]); len(f) == 0 || f[0] != name {
			t.Errorf("-list line %d = %q, want analyzer %s", i, lines[i], name)
		}
	}
}

// TestRunOnlyList: -only takes a comma-separated analyzer list; unknown
// names are usage errors.
func TestRunOnlyList(t *testing.T) {
	dir := writeModule(t, map[string]string{
		"go.mod": goMod,
		"pkg/pkg.go": `// Package pkg has one floatcmp and one errcheck finding.
package pkg

import "os"

func equal(a, b float64) bool { return a == b }

func drop(f *os.File) { f.Close() }
`,
	})
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-dir", dir, "-only", "floatcmp", "./..."}, &stdout, &stderr); code != 1 {
		t.Fatalf("-only floatcmp exit = %d, want 1\nstderr: %s", code, &stderr)
	}
	if out := stdout.String(); !strings.Contains(out, "floatcmp") || strings.Contains(out, "errcheck") {
		t.Errorf("-only floatcmp should report floatcmp findings only:\n%s", out)
	}

	stdout.Reset()
	stderr.Reset()
	if code := run([]string{"-dir", dir, "-only", "floatcmp, errcheck", "./..."}, &stdout, &stderr); code != 1 {
		t.Fatalf("-only floatcmp,errcheck exit = %d, want 1\nstderr: %s", code, &stderr)
	}
	if out := stdout.String(); !strings.Contains(out, "floatcmp") || !strings.Contains(out, "errcheck") {
		t.Errorf("-only floatcmp,errcheck should report both:\n%s", out)
	}

	stdout.Reset()
	stderr.Reset()
	if code := run([]string{"-dir", dir, "-only", "floatcmp,nosuch", "./..."}, &stdout, &stderr); code != 2 {
		t.Fatalf("-only with unknown name exit = %d, want 2", code)
	}
	if !strings.Contains(stderr.String(), `unknown analyzer "nosuch"`) {
		t.Errorf("stderr = %q", stderr.String())
	}
}

// TestRunBadUsage: unknown flags and unmatched patterns exit 2.
func TestRunBadUsage(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-nosuchflag"}, &stdout, &stderr); code != 2 {
		t.Fatalf("bad flag exit = %d, want 2", code)
	}
	dir := writeModule(t, map[string]string{
		"go.mod":   goMod,
		"p/p.go":   "package p\n",
		"p/doc.go": "package p\n",
	})
	if code := run([]string{"-dir", dir, "./nonexistent"}, &stdout, &stderr); code != 2 {
		t.Fatalf("unmatched pattern exit = %d, want 2", code)
	}
}
