// Package faultfs abstracts the handful of filesystem operations the
// checkpoint store needs for crash-safe writes (open, create, append,
// rename, remove, sync, directory sync) behind a small FS interface,
// with two implementations: OS, the real filesystem, and Injector, a
// wrapper that fails operations on a deterministic seeded schedule so
// tests can drive every crash point of the write path — the Nth write,
// a torn write that truncates mid-buffer, an error on read, sync or
// rename, or a full crash after which nothing succeeds.
package faultfs

import (
	"fmt"
	"io"
	"io/fs"
	"os"
)

// File is the open-file surface the store uses: sequential and random
// reads, writes, durability (Sync), and metadata.
type File interface {
	io.Reader
	io.ReaderAt
	io.Writer
	io.Closer
	// Sync flushes the file's contents to stable storage.
	Sync() error
	// Stat returns the file's metadata.
	Stat() (fs.FileInfo, error)
}

// FS is the filesystem surface of the checkpoint store. Every
// store-side disk access goes through it, so a test can substitute an
// Injector and observe exactly which operation sequence a store write
// performs — and fail any prefix of it.
type FS interface {
	// Open opens an existing file for reading.
	Open(name string) (File, error)
	// Create creates or truncates a file for writing.
	Create(name string) (File, error)
	// CreateExclusive creates a file for writing, failing with an error
	// matching fs.ErrExist if it already exists (O_EXCL semantics): the
	// create either claims the name atomically or observes the current
	// claimant. Note the claimed name is observable empty before its
	// first write — claims that must appear fully formed stage their
	// payload elsewhere and publish it with Link instead.
	CreateExclusive(name string) (File, error)
	// Append opens a file for appending, creating it if absent.
	Append(name string) (File, error)
	// Rename atomically replaces newpath with oldpath.
	Rename(oldpath, newpath string) error
	// Link creates newpath as a hard link to oldpath, failing with an
	// error matching fs.ErrExist if newpath already exists. It is the
	// store's atomic-publication primitive for fixed names that must
	// never be observable incomplete and must not clobber an existing
	// claimant (the writer LOCK): the complete payload is staged at a
	// scratch name first, then linked into place in one atomic step.
	Link(oldpath, newpath string) error
	// Remove deletes a file.
	Remove(name string) error
	// MkdirAll creates a directory and any missing parents.
	MkdirAll(name string, perm fs.FileMode) error
	// ReadDir lists a directory.
	ReadDir(name string) ([]fs.DirEntry, error)
	// Stat returns file metadata.
	Stat(name string) (fs.FileInfo, error)
	// SyncDir fsyncs a directory, making preceding renames and removes
	// in it durable.
	SyncDir(name string) error
}

// osFS is the real filesystem.
type osFS struct{}

// OS returns the real filesystem: every method maps 1:1 onto the os
// package, and SyncDir opens the directory and fsyncs it.
func OS() FS { return osFS{} }

func (osFS) Open(name string) (File, error)   { return os.Open(name) }
func (osFS) Create(name string) (File, error) { return os.Create(name) }

func (osFS) CreateExclusive(name string) (File, error) {
	return os.OpenFile(name, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
}

func (osFS) Append(name string) (File, error) {
	return os.OpenFile(name, os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644)
}

func (osFS) Rename(oldpath, newpath string) error         { return os.Rename(oldpath, newpath) }
func (osFS) Link(oldpath, newpath string) error           { return os.Link(oldpath, newpath) }
func (osFS) Remove(name string) error                     { return os.Remove(name) }
func (osFS) MkdirAll(name string, perm fs.FileMode) error { return os.MkdirAll(name, perm) }
func (osFS) ReadDir(name string) ([]fs.DirEntry, error)   { return os.ReadDir(name) }
func (osFS) Stat(name string) (fs.FileInfo, error)        { return os.Stat(name) }

func (osFS) SyncDir(name string) error {
	d, err := os.Open(name)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// ReadFile reads a whole file through fsys, into a buffer sized from
// the open file's Stat.
func ReadFile(fsys FS, name string) ([]byte, error) {
	return readFile(fsys, name, -1, nil)
}

// ReadFileInto is ReadFile for a caller that already knows how long
// the file should be (a journal recorded it), reading into buf's
// backing array when it holds size+1 bytes: the file is not stat'ed,
// and a caller that keeps its buffers reads without allocating. The
// file is still read to its end, so a result whose length is not size
// means the file is not the one that was recorded — the caller's to
// report, never a silent short read. The result aliases buf unless buf
// was too small or the file turned out longer. A nil buf is a fresh one
// sized from size.
func ReadFileInto(fsys FS, name string, size int64, buf []byte) ([]byte, error) {
	return readFile(fsys, name, max(size, 0), buf)
}

// readFile reads name to EOF into buf[:0], or, when buf cannot hold one
// byte more than the expected size (the open file's, when size is
// negative), into a new buffer of that capacity — so the common case is
// one read that fills it short of that byte and one that reports EOF:
// no doubling from a small buffer, no copy. It still grows if the file
// turns out longer.
func readFile(fsys FS, name string, size int64, buf []byte) ([]byte, error) {
	f, err := fsys.Open(name)
	if err != nil {
		return nil, err
	}
	if size < 0 {
		size = 0
		if info, err := f.Stat(); err == nil {
			size = info.Size() // a failed Stat only costs the sizing
		}
	}
	data := buf[:0]
	if int64(cap(buf)) <= size {
		data = make([]byte, 0, max(size+1, 512))
	}
	for err == nil {
		if len(data) == cap(data) {
			data = append(data, 0)[:len(data)]
		}
		var n int
		n, err = f.Read(data[len(data):cap(data)])
		data = data[:len(data)+n]
	}
	if err == io.EOF {
		err = nil
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, fmt.Errorf("faultfs: read %s: %w", name, err)
	}
	return data, nil
}

// WriteFileAtomic writes data to name crash-safely: it writes to
// name+".tmp" in the same directory, fsyncs the file, renames it over
// name, and fsyncs the parent directory dir. After a crash at any point
// the destination holds either its old contents or the complete new
// ones, never a torn mix; at worst a stale .tmp file is left behind.
func WriteFileAtomic(fsys FS, dir, name string, data []byte) error {
	if err := ReplaceFile(fsys, name, data); err != nil {
		return err
	}
	if err := fsys.SyncDir(dir); err != nil {
		return fmt.Errorf("faultfs: sync dir %s: %w", dir, err)
	}
	return nil
}

// ReplaceFile is WriteFileAtomic without the directory sync: the temp
// is written, fsynced and renamed over name, but the rename is durable
// only once the caller fsyncs the parent directory — which lets a
// caller replacing several files in one directory pay for one
// directory sync instead of one per file.
func ReplaceFile(fsys FS, name string, data []byte) error {
	tmp := name + ".tmp"
	f, err := fsys.Create(tmp)
	if err != nil {
		return fmt.Errorf("faultfs: create %s: %w", tmp, err)
	}
	_, werr := f.Write(data)
	if werr == nil {
		werr = f.Sync()
	}
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		// Best-effort cleanup; the recovery scan removes survivors.
		_ = fsys.Remove(tmp)
		return fmt.Errorf("faultfs: write %s: %w", tmp, werr)
	}
	if err := fsys.Rename(tmp, name); err != nil {
		_ = fsys.Remove(tmp)
		return fmt.Errorf("faultfs: rename %s: %w", name, err)
	}
	return nil
}
