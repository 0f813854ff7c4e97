package main

import (
	"io/fs"
	"time"

	"numarck/internal/faultfs"
)

// noSyncFS is the fixture filesystem: the real one with Sync and
// SyncDir turned into no-ops. Fixtures (hundreds of commits that exist
// only to give the measured ops a realistic chain) are built through it
// so that set-up is CPU-bound and repeats; the store is then closed,
// flushed once, and reopened on faultfs.OS() for every measured op.
type noSyncFS struct {
	faultfs.FS
}

func (n noSyncFS) wrap(f faultfs.File, err error) (faultfs.File, error) {
	if err != nil {
		return nil, err
	}
	return noSyncFile{f}, nil
}

func (n noSyncFS) Create(name string) (faultfs.File, error) { return n.wrap(n.FS.Create(name)) }
func (n noSyncFS) Append(name string) (faultfs.File, error) { return n.wrap(n.FS.Append(name)) }
func (n noSyncFS) CreateExclusive(name string) (faultfs.File, error) {
	return n.wrap(n.FS.CreateExclusive(name))
}
func (n noSyncFS) SyncDir(string) error { return nil }

// noSyncFile is a file whose Sync does nothing.
type noSyncFile struct {
	faultfs.File
}

func (noSyncFile) Sync() error { return nil }

// fsCounts is what the counting filesystem has seen since its last
// reset. With one caller the counts repeat exactly from run to run.
type fsCounts struct {
	// Syncs and DirSyncs count File.Sync and FS.SyncDir calls.
	Syncs, DirSyncs int64
	// Opened counts files opened for reading; Created counts files
	// created or opened for appending.
	Opened, Created int64
	// Renames counts FS.Rename calls.
	Renames int64
	// BytesWritten and BytesRead count bytes through File.Write and
	// File.Read/ReadAt.
	BytesWritten, BytesRead int64
	// SyncNs is the time spent inside Sync and SyncDir.
	SyncNs int64
}

// add returns c + o, field by field.
func (c fsCounts) add(o fsCounts) fsCounts {
	return fsCounts{
		Syncs: c.Syncs + o.Syncs, DirSyncs: c.DirSyncs + o.DirSyncs,
		Opened: c.Opened + o.Opened, Created: c.Created + o.Created,
		Renames:      c.Renames + o.Renames,
		BytesWritten: c.BytesWritten + o.BytesWritten, BytesRead: c.BytesRead + o.BytesRead,
		SyncNs: c.SyncNs + o.SyncNs,
	}
}

// sub returns c - o, field by field.
func (c fsCounts) sub(o fsCounts) fsCounts {
	return fsCounts{
		Syncs: c.Syncs - o.Syncs, DirSyncs: c.DirSyncs - o.DirSyncs,
		Opened: c.Opened - o.Opened, Created: c.Created - o.Created,
		Renames:      c.Renames - o.Renames,
		BytesWritten: c.BytesWritten - o.BytesWritten, BytesRead: c.BytesRead - o.BytesRead,
		SyncNs: c.SyncNs - o.SyncNs,
	}
}

// countingFS is the traced run's device seam: the real filesystem with
// a count and a span around every call the store makes. It is handed to
// checkpoint.OpenFS / OpenReadOnlyFS by one goroutine at a time, so it
// needs no lock; parent is the span of the layer call in progress.
type countingFS struct {
	faultfs.FS
	n      fsCounts
	tr     *tracer
	parent *span
}

// newCountingFS wraps the real filesystem. It only counts until a traced
// op sets tr.
func newCountingFS() *countingFS {
	return &countingFS{FS: faultfs.OS()}
}

// spanned runs fn inside a faultfs span and returns its duration.
func (c *countingFS) spanned(name string, fn func()) time.Duration {
	sp := c.tr.start(c.parent, "faultfs", name)
	t0 := time.Now()
	fn()
	d := time.Since(t0)
	sp.end()
	return d
}

func (c *countingFS) wrap(f faultfs.File, err error) (faultfs.File, error) {
	if err != nil {
		return nil, err
	}
	return &countingFile{File: f, c: c}, nil
}

func (c *countingFS) Open(name string) (f faultfs.File, err error) {
	c.n.Opened++
	c.spanned("open", func() { f, err = c.wrap(c.FS.Open(name)) })
	return f, err
}

func (c *countingFS) Create(name string) (f faultfs.File, err error) {
	c.n.Created++
	c.spanned("create", func() { f, err = c.wrap(c.FS.Create(name)) })
	return f, err
}

func (c *countingFS) CreateExclusive(name string) (f faultfs.File, err error) {
	c.n.Created++
	c.spanned("create", func() { f, err = c.wrap(c.FS.CreateExclusive(name)) })
	return f, err
}

func (c *countingFS) Append(name string) (f faultfs.File, err error) {
	c.n.Created++
	c.spanned("create", func() { f, err = c.wrap(c.FS.Append(name)) })
	return f, err
}

func (c *countingFS) Rename(oldpath, newpath string) (err error) {
	c.n.Renames++
	c.spanned("rename", func() { err = c.FS.Rename(oldpath, newpath) })
	return err
}

func (c *countingFS) Stat(name string) (fi fs.FileInfo, err error) {
	c.spanned("stat", func() { fi, err = c.FS.Stat(name) })
	return fi, err
}

func (c *countingFS) SyncDir(name string) (err error) {
	c.n.DirSyncs++
	c.n.SyncNs += int64(c.spanned("syncdir", func() { err = c.FS.SyncDir(name) }))
	return err
}

// countingFile counts and spans the calls on one open file.
type countingFile struct {
	faultfs.File
	c *countingFS
}

func (f *countingFile) Read(p []byte) (n int, err error) {
	f.c.spanned("read", func() { n, err = f.File.Read(p) })
	f.c.n.BytesRead += int64(n)
	return n, err
}

func (f *countingFile) ReadAt(p []byte, off int64) (n int, err error) {
	f.c.spanned("read", func() { n, err = f.File.ReadAt(p, off) })
	f.c.n.BytesRead += int64(n)
	return n, err
}

func (f *countingFile) Write(p []byte) (n int, err error) {
	f.c.spanned("write", func() { n, err = f.File.Write(p) })
	f.c.n.BytesWritten += int64(n)
	return n, err
}

func (f *countingFile) Sync() (err error) {
	f.c.n.Syncs++
	f.c.n.SyncNs += int64(f.c.spanned("sync", func() { err = f.File.Sync() }))
	return err
}

func (f *countingFile) Close() (err error) {
	f.c.spanned("close", func() { err = f.File.Close() })
	return err
}
