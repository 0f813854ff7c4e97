package faultfs

import (
	"errors"
	"fmt"
	"io/fs"
	"math/rand"
	"strings"
	"sync"
)

// ErrInjected is the error returned by a scheduled fault.
var ErrInjected = errors.New("faultfs: injected fault")

// ErrCrashed is the error every operation returns once the injector's
// crash point has fired: the simulated process is dead and nothing else
// reaches the disk.
var ErrCrashed = errors.New("faultfs: crashed")

// Op classifies filesystem operations for fault matching and crash
// scheduling.
type Op uint8

// The operation classes. OpCreate through OpSyncDir (the "mutating"
// ops) advance the crash schedule; OpOpen and OpRead never mutate and
// only participate in explicit faults.
const (
	OpOpen Op = iota
	OpRead
	OpCreate
	OpAppend
	OpWrite
	OpSync
	OpRename
	OpRemove
	OpSyncDir
	OpLink

	numOps
)

// opNames must match the Op constant order above.
var opNames = [numOps]string{
	"open", "read", "create", "append", "write", "sync", "rename", "remove", "syncdir", "link",
}

// String returns the operation class name.
func (o Op) String() string {
	if int(o) < len(opNames) {
		return opNames[o]
	}
	return "unknown"
}

// mutating reports whether the op advances the crash schedule.
func (o Op) mutating() bool { return o >= OpCreate }

// Mode selects how a matched fault manifests.
type Mode uint8

// The fault modes.
const (
	// ModeError fails the operation outright with Fault.Err (default
	// ErrInjected).
	ModeError Mode = iota
	// ModeTorn applies to writes: the first TornBytes bytes reach the
	// file, then the write fails — the signature of a mid-write crash.
	ModeTorn
)

// Fault is one scheduled failure: the Nth operation of class Op whose
// path contains Path (empty matches all paths) manifests per Mode.
type Fault struct {
	Op   Op
	Path string // substring match; "" matches every path
	Nth  int    // 1-based among matching operations
	Mode Mode
	// TornBytes is the byte prefix a ModeTorn write lets through.
	TornBytes int
	// Err overrides the returned error (ModeError and ModeTorn).
	Err error

	seen int // matching operations observed so far
}

// Injector wraps an FS with deterministic fault injection. The zero
// schedule (no faults, no crash point) passes every operation through
// unchanged while still counting them, so a first uninstrumented run
// measures how many mutating operations a code path performs and a
// second run can crash at each of them in turn.
type Injector struct {
	fs      FS
	mu      sync.Mutex
	rng     *rand.Rand
	ops     int // mutating operations observed
	crashAt int
	crashed bool
	faults  []*Fault
	trace   []string
}

// NewInjector wraps fsys. seed makes torn-write offsets reproducible.
func NewInjector(fsys FS, seed int64) *Injector {
	return &Injector{fs: fsys, rng: rand.New(rand.NewSource(seed)), crashAt: -1}
}

// AddFault schedules a fault. Faults are matched in the order added.
func (in *Injector) AddFault(f Fault) {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.faults = append(in.faults, &f)
}

// SetCrashAt arms the crash point: the k-th mutating operation
// (0-based) and every operation after it fail with ErrCrashed. If the
// k-th operation is a write, a seeded prefix of its buffer reaches the
// file first — a torn write. k < 0 disarms.
func (in *Injector) SetCrashAt(k int) {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.crashAt = k
}

// MutatingOps returns how many mutating operations have been observed
// (attempted, whether or not they were failed).
func (in *Injector) MutatingOps() int {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.ops
}

// Crashed reports whether the crash point has fired.
func (in *Injector) Crashed() bool {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.crashed
}

// Trace returns the recorded operation log, one "op path" line per
// observed operation.
func (in *Injector) Trace() []string {
	in.mu.Lock()
	defer in.mu.Unlock()
	return append([]string(nil), in.trace...)
}

// injDecision is what check tells the call site to do.
type injDecision struct {
	err       error // fail with this error (nil: proceed)
	tornBytes int   // for writes failing with err: bytes to let through first (-1: none)
}

// check records one operation and decides its fate.
func (in *Injector) check(op Op, path string, size int) injDecision {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.trace = append(in.trace, fmt.Sprintf("%s %s", op, path))
	if in.crashed {
		return injDecision{err: ErrCrashed, tornBytes: -1}
	}
	if op.mutating() {
		idx := in.ops
		in.ops++
		if in.crashAt >= 0 && idx >= in.crashAt {
			in.crashed = true
			d := injDecision{err: ErrCrashed, tornBytes: -1}
			if op == OpWrite && size > 0 {
				d.tornBytes = in.rng.Intn(size)
			}
			return d
		}
	}
	for _, f := range in.faults {
		if f.Op != op || (f.Path != "" && !strings.Contains(path, f.Path)) {
			continue
		}
		f.seen++
		if f.seen != f.Nth {
			continue
		}
		err := f.Err
		if err == nil {
			err = ErrInjected
		}
		if f.Mode == ModeTorn {
			return injDecision{err: err, tornBytes: min(f.TornBytes, size)}
		}
		return injDecision{err: err, tornBytes: -1}
	}
	return injDecision{tornBytes: -1}
}

// Open implements FS.
func (in *Injector) Open(name string) (File, error) {
	if d := in.check(OpOpen, name, 0); d.err != nil {
		return nil, d.err
	}
	f, err := in.fs.Open(name)
	if err != nil {
		return nil, err
	}
	return &injFile{in: in, f: f, name: name}, nil
}

// Create implements FS.
func (in *Injector) Create(name string) (File, error) {
	if d := in.check(OpCreate, name, 0); d.err != nil {
		return nil, d.err
	}
	f, err := in.fs.Create(name)
	if err != nil {
		return nil, err
	}
	return &injFile{in: in, f: f, name: name}, nil
}

// CreateExclusive implements FS. It shares the OpCreate class with
// Create, so crash schedules and create faults cover lock acquisition
// the same way they cover atomic-write temporaries.
func (in *Injector) CreateExclusive(name string) (File, error) {
	if d := in.check(OpCreate, name, 0); d.err != nil {
		return nil, d.err
	}
	f, err := in.fs.CreateExclusive(name)
	if err != nil {
		return nil, err
	}
	return &injFile{in: in, f: f, name: name}, nil
}

// Append implements FS.
func (in *Injector) Append(name string) (File, error) {
	if d := in.check(OpAppend, name, 0); d.err != nil {
		return nil, d.err
	}
	f, err := in.fs.Append(name)
	if err != nil {
		return nil, err
	}
	return &injFile{in: in, f: f, name: name}, nil
}

// Rename implements FS.
func (in *Injector) Rename(oldpath, newpath string) error {
	if d := in.check(OpRename, newpath, 0); d.err != nil {
		return d.err
	}
	return in.fs.Rename(oldpath, newpath)
}

// Link implements FS. The fault path matches on newpath, the name the
// link publishes.
func (in *Injector) Link(oldpath, newpath string) error {
	if d := in.check(OpLink, newpath, 0); d.err != nil {
		return d.err
	}
	return in.fs.Link(oldpath, newpath)
}

// Remove implements FS.
func (in *Injector) Remove(name string) error {
	if d := in.check(OpRemove, name, 0); d.err != nil {
		return d.err
	}
	return in.fs.Remove(name)
}

// MkdirAll implements FS. Directory creation is not a scheduled crash
// point (the store only creates directories at Create time).
func (in *Injector) MkdirAll(name string, perm fs.FileMode) error {
	return in.fs.MkdirAll(name, perm)
}

// ReadDir implements FS.
func (in *Injector) ReadDir(name string) ([]fs.DirEntry, error) {
	if in.Crashed() {
		return nil, ErrCrashed
	}
	return in.fs.ReadDir(name)
}

// Stat implements FS.
func (in *Injector) Stat(name string) (fs.FileInfo, error) {
	if in.Crashed() {
		return nil, ErrCrashed
	}
	return in.fs.Stat(name)
}

// SyncDir implements FS.
func (in *Injector) SyncDir(name string) error {
	if d := in.check(OpSyncDir, name, 0); d.err != nil {
		return d.err
	}
	return in.fs.SyncDir(name)
}

// injFile routes a File's reads, writes, and syncs back through the
// injector's schedule.
type injFile struct {
	in   *Injector
	f    File
	name string
}

// Read implements io.Reader with OpRead fault matching.
func (jf *injFile) Read(p []byte) (int, error) {
	if d := jf.in.check(OpRead, jf.name, len(p)); d.err != nil {
		return 0, d.err
	}
	return jf.f.Read(p)
}

// ReadAt implements io.ReaderAt with OpRead fault matching.
func (jf *injFile) ReadAt(p []byte, off int64) (int, error) {
	if d := jf.in.check(OpRead, jf.name, len(p)); d.err != nil {
		return 0, d.err
	}
	return jf.f.ReadAt(p, off)
}

// Write implements io.Writer with OpWrite fault matching; a failing
// write may first let a torn prefix through to the underlying file.
func (jf *injFile) Write(p []byte) (int, error) {
	d := jf.in.check(OpWrite, jf.name, len(p))
	if d.err != nil {
		n := 0
		if d.tornBytes > 0 {
			n, _ = jf.f.Write(p[:d.tornBytes])
		}
		return n, d.err
	}
	return jf.f.Write(p)
}

// Sync implements File with OpSync fault matching.
func (jf *injFile) Sync() error {
	if d := jf.in.check(OpSync, jf.name, 0); d.err != nil {
		return d.err
	}
	return jf.f.Sync()
}

// Close always closes the underlying file (a crashed process's
// descriptors close too) but reports ErrCrashed after the crash point.
func (jf *injFile) Close() error {
	err := jf.f.Close()
	if jf.in.Crashed() {
		return ErrCrashed
	}
	return err
}

// Stat implements File.
func (jf *injFile) Stat() (fs.FileInfo, error) {
	if jf.in.Crashed() {
		return nil, ErrCrashed
	}
	return jf.f.Stat()
}
