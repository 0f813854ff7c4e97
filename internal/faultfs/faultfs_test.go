package faultfs

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"
)

func TestOSRoundTrip(t *testing.T) {
	fsys := OS()
	dir := t.TempDir()
	path := filepath.Join(dir, "a.bin")
	f, err := fsys.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("hello")); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFile(fsys, path)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "hello" {
		t.Fatalf("read %q", got)
	}
	info, err := fsys.Stat(path)
	if err != nil || info.Size() != 5 {
		t.Fatalf("stat: %v size %d", err, info.Size())
	}
}

func TestOSAppend(t *testing.T) {
	fsys := OS()
	path := filepath.Join(t.TempDir(), "log")
	for _, chunk := range []string{"one\n", "two\n"} {
		f, err := fsys.Append(path)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.Write([]byte(chunk)); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
	}
	got, err := ReadFile(fsys, path)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "one\ntwo\n" {
		t.Fatalf("appended file = %q", got)
	}
}

func TestWriteFileAtomic(t *testing.T) {
	fsys := OS()
	dir := t.TempDir()
	path := filepath.Join(dir, "data.bin")
	payload := bytes.Repeat([]byte("x"), 1024)
	if err := WriteFileAtomic(fsys, dir, path, payload); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFile(fsys, path)
	if err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("read back: %v, %d bytes", err, len(got))
	}
	// No temporary left behind.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, de := range entries {
		if filepath.Ext(de.Name()) == ".tmp" {
			t.Fatalf("leftover temp %s", de.Name())
		}
	}
}

func TestInjectorPassthroughCountsOps(t *testing.T) {
	dir := t.TempDir()
	in := NewInjector(OS(), 1)
	path := filepath.Join(dir, "f")
	if err := WriteFileAtomic(in, dir, path, []byte("abc")); err != nil {
		t.Fatal(err)
	}
	// create + write + sync + rename + syncdir = 5 mutating ops.
	if got := in.MutatingOps(); got != 5 {
		t.Fatalf("MutatingOps = %d, want 5 (trace: %v)", got, in.Trace())
	}
	if in.Crashed() {
		t.Fatal("no crash was armed")
	}
}

func TestInjectorNthFault(t *testing.T) {
	dir := t.TempDir()
	in := NewInjector(OS(), 1)
	in.AddFault(Fault{Op: OpSync, Nth: 2})
	mk := func(name string) error {
		f, err := in.Create(filepath.Join(dir, name))
		if err != nil {
			return err
		}
		if _, err := f.Write([]byte("x")); err != nil {
			return err
		}
		if err := f.Sync(); err != nil {
			return err
		}
		return f.Close()
	}
	if err := mk("first"); err != nil {
		t.Fatalf("first sync should pass: %v", err)
	}
	if err := mk("second"); !errors.Is(err, ErrInjected) {
		t.Fatalf("second sync should fail injected, got %v", err)
	}
	if err := mk("third"); err != nil {
		t.Fatalf("third sync should pass again: %v", err)
	}
}

func TestInjectorPathMatch(t *testing.T) {
	dir := t.TempDir()
	in := NewInjector(OS(), 1)
	in.AddFault(Fault{Op: OpCreate, Path: "special", Nth: 1})
	if _, err := in.Create(filepath.Join(dir, "ordinary")); err != nil {
		t.Fatalf("non-matching path failed: %v", err)
	}
	if _, err := in.Create(filepath.Join(dir, "special.bin")); !errors.Is(err, ErrInjected) {
		t.Fatalf("matching path should fail, got %v", err)
	}
}

func TestInjectorTornWrite(t *testing.T) {
	dir := t.TempDir()
	in := NewInjector(OS(), 1)
	in.AddFault(Fault{Op: OpWrite, Nth: 1, Mode: ModeTorn, TornBytes: 3})
	path := filepath.Join(dir, "torn")
	f, err := in.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	n, err := f.Write([]byte("abcdef"))
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("write error = %v", err)
	}
	if n != 3 {
		t.Fatalf("torn write reported %d bytes", n)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil || string(got) != "abc" {
		t.Fatalf("on disk %q, %v", got, err)
	}
}

func TestInjectorCrashSchedule(t *testing.T) {
	dir := t.TempDir()
	in := NewInjector(OS(), 1)
	in.SetCrashAt(1)                             // the second mutating op dies
	f, err := in.Create(filepath.Join(dir, "a")) // op 0: fine
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("payload")); !errors.Is(err, ErrCrashed) { // op 1: crash
		t.Fatalf("write at crash point = %v", err)
	}
	if !in.Crashed() {
		t.Fatal("injector should report crashed")
	}
	// Everything after the crash fails too, including reads.
	if _, err := in.Create(filepath.Join(dir, "b")); !errors.Is(err, ErrCrashed) {
		t.Fatalf("post-crash create = %v", err)
	}
	if _, err := in.Stat(filepath.Join(dir, "a")); !errors.Is(err, ErrCrashed) {
		t.Fatalf("post-crash stat = %v", err)
	}
}

func TestInjectorCrashTornWriteDeterministic(t *testing.T) {
	run := func(seed int64) []byte {
		dir := t.TempDir()
		in := NewInjector(OS(), seed)
		in.SetCrashAt(1)
		path := filepath.Join(dir, "f")
		f, err := in.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		_, werr := f.Write(bytes.Repeat([]byte("Z"), 100))
		if !errors.Is(werr, ErrCrashed) {
			t.Fatalf("write = %v", werr)
		}
		_ = f.Close()
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return raw
	}
	a, b := run(42), run(42)
	if !bytes.Equal(a, b) {
		t.Fatalf("same seed gave different torn prefixes: %d vs %d bytes", len(a), len(b))
	}
	if len(a) >= 100 {
		t.Fatalf("crash write let the full buffer through (%d bytes)", len(a))
	}
}

// TestReadFileInto pins the sized read: it reads into the caller's
// buffer when that holds one byte more than the recorded size, into a
// fresh one when not, and always to EOF, so a file longer or shorter
// than the size it was read under comes back at its true length.
func TestReadFileInto(t *testing.T) {
	fsys := OS()
	path := filepath.Join(t.TempDir(), "f.bin")
	data := bytes.Repeat([]byte("0123456789"), 100)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name    string
		size    int64
		bufCap  int
		aliases bool
	}{
		{"exact size, roomy buffer", 1000, 1024, true},
		{"exact size, buffer one byte over", 1000, 1001, true},
		{"exact size, buffer of the size alone", 1000, 1000, false},
		{"nil buffer", 1000, 0, false},
		{"file longer than recorded, in the buffer", 900, 1024, true},
		{"file longer than the buffer", 900, 901, false},
		{"file shorter than recorded", 1010, 1024, true},
	} {
		buf := make([]byte, 7, max(c.bufCap, 7)) // stale bytes the read must not keep
		if c.bufCap == 0 {
			buf = nil
		}
		got, err := ReadFileInto(fsys, path, c.size, buf)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if !bytes.Equal(got, data) {
			t.Errorf("%s: read %d bytes, want the file's %d", c.name, len(got), len(data))
		}
		if aliases := buf != nil && cap(got) > 0 && &got[:1][0] == &buf[:1][0]; aliases != c.aliases {
			t.Errorf("%s: result in the caller's buffer %v, want %v", c.name, aliases, c.aliases)
		}
	}
	if _, err := ReadFileInto(fsys, filepath.Join(t.TempDir(), "none"), 10, nil); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("missing file: err = %v, want ErrNotExist", err)
	}
}
