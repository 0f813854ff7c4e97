package checkpoint

import (
	"bytes"
	crand "crypto/rand"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io/fs"
	"os"
	"path/filepath"
	"syscall"
	"time"

	"numarck/internal/faultfs"
	"numarck/internal/obs"
)

// The on-disk writer lock. A writer (Create or a read-write Open)
// claims the store by publishing LOCK through the faultfs seam, so
// exactly one process-level writer exists per store directory; readers
// (OpenReadOnly) never touch it. The file records the owner's PID and
// a random per-acquisition nonce so a second writer can report who
// holds the store and a takeover can verify the lock it is breaking is
// the one it examined.
//
// Publication is atomic: the complete payload is staged at a scratch
// name, fsynced, and hard-linked to LOCK, so any observable LOCK is
// the full 32 bytes — a racer can never read an empty or half-written
// lock and mistake a live acquisition for a stale one.
//
// Byte layout (32 bytes, all integers little-endian; see FORMAT.md):
//
//	magic "NMRKL1" | version u16 | pid u32 | nonce u64
//	| acquired unix-nanos i64 | CRC32-IEEE of bytes [0,28)
//
// A lock whose bytes do not parse cannot have been published by this
// layout (media corruption, or a foreign writer); it is treated as
// stale only after a grace re-read shows the bytes have settled. A
// parsed lock is stale when its owner process is provably dead;
// liveness probing is injectable for tests via LockOwner.Alive.
const lockName = "LOCK"

// lockMagic starts every lock file.
var lockMagic = []byte("NMRKL1")

// lockVersion is the current lock-file layout version.
const lockVersion = 1

// lockFileSize is the fixed byte length of a complete lock file.
const lockFileSize = 32

// ErrLocked matches, via errors.Is, the failure of a writer Open or
// Create against a store whose writer lock is held by a live owner.
var ErrLocked = errors.New("checkpoint: store locked by another writer")

// LockHeldError reports the current holder of a store's writer lock.
// It wraps ErrLocked.
type LockHeldError struct {
	// Dir is the store directory.
	Dir string
	// PID is the holder's process ID as recorded in the lock file.
	PID int
	// Nonce is the holder's acquisition nonce.
	Nonce uint64
	// Acquired is when the holder claimed the lock, in Unix
	// nanoseconds as recorded in the lock file (0 when unknown).
	Acquired int64
}

// Age reports how long the holder has held the lock as of now, or 0
// when the lock file did not record an acquisition time.
func (e *LockHeldError) Age() time.Duration {
	if e.Acquired <= 0 {
		return 0
	}
	return time.Duration(time.Now().UnixNano() - e.Acquired)
}

// Error implements error.
func (e *LockHeldError) Error() string {
	return fmt.Sprintf("checkpoint: store %s locked by writer pid %d (nonce %016x)", e.Dir, e.PID, e.Nonce)
}

// Unwrap makes errors.Is(err, ErrLocked) match.
func (e *LockHeldError) Unwrap() error { return ErrLocked }

// LockOwner identifies the writer acquiring a store lock and how to
// probe a competing owner's liveness. The zero value means "this
// process, probed with the real process table" and is what the
// production entry points use; tests substitute a fake PID and probe to
// drive the stale-takeover and held paths deterministically.
type LockOwner struct {
	// PID is recorded in the lock file as the owner. 0 means
	// os.Getpid().
	PID int
	// Alive reports whether the process that owns an existing lock is
	// still running. Nil means the default probe: the calling process
	// is alive, PID 0 or negative is dead, and other PIDs are
	// signal-0 probed (unknown outcomes count as alive, so the default
	// fails fast rather than stealing a lock it cannot prove stale).
	Alive func(pid int) bool
}

// pid returns the effective owner PID.
func (o LockOwner) pid() int {
	if o.PID != 0 {
		return o.PID
	}
	return os.Getpid()
}

// alive returns the effective liveness probe.
func (o LockOwner) alive() func(pid int) bool {
	if o.Alive != nil {
		return o.Alive
	}
	return processAlive
}

// processAlive is the default liveness probe: signal 0 to the PID. An
// EPERM answer means the process exists under another user — alive. An
// unrecognized failure counts as alive: the cost of a false "alive" is
// a fail-fast open, the cost of a false "dead" is two live writers.
func processAlive(pid int) bool {
	if pid <= 0 {
		return false
	}
	if pid == os.Getpid() {
		return true
	}
	proc, err := os.FindProcess(pid)
	if err != nil {
		return false
	}
	err = proc.Signal(syscall.Signal(0))
	switch {
	case err == nil:
		return true
	case errors.Is(err, os.ErrProcessDone), errors.Is(err, syscall.ESRCH):
		return false
	case errors.Is(err, syscall.EPERM):
		return true
	default:
		return true
	}
}

// storeLock is a held writer lock.
type storeLock struct {
	fs    faultfs.FS
	dir   string
	path  string
	nonce uint64
}

// lockInfo is the parsed content of a lock file.
type lockInfo struct {
	PID      int
	Nonce    uint64
	Acquired int64 // unix nanoseconds
}

// marshalLock renders the fixed 32-byte lock file.
func marshalLock(li lockInfo) []byte {
	buf := make([]byte, lockFileSize)
	copy(buf, lockMagic)
	binary.LittleEndian.PutUint16(buf[6:], lockVersion)
	// PIDs are small positive integers
	binary.LittleEndian.PutUint32(buf[8:], uint32(li.PID))
	binary.LittleEndian.PutUint64(buf[12:], li.Nonce)
	binary.LittleEndian.PutUint64(buf[20:], uint64(li.Acquired))
	binary.LittleEndian.PutUint32(buf[28:], crc32.ChecksumIEEE(buf[:28]))
	return buf
}

// parseLock decodes a lock file. Any structural violation — short
// file, bad magic, unsupported version, CRC mismatch — is an error;
// callers treat an unparsable lock as stale (the signature of a crash
// mid-acquire).
func parseLock(raw []byte) (lockInfo, error) {
	var li lockInfo
	if len(raw) != lockFileSize {
		return li, fmt.Errorf("%w: lock file is %d bytes, want %d", ErrCorrupt, len(raw), lockFileSize)
	}
	if string(raw[:6]) != string(lockMagic) {
		return li, fmt.Errorf("%w: lock magic %q", ErrCorrupt, raw[:6])
	}
	if v := binary.LittleEndian.Uint16(raw[6:]); v != lockVersion {
		return li, fmt.Errorf("%w: lock version %d", ErrCorrupt, v)
	}
	if crc := crc32.ChecksumIEEE(raw[:28]); crc != binary.LittleEndian.Uint32(raw[28:]) {
		return li, fmt.Errorf("%w: lock CRC mismatch", ErrCorrupt)
	}
	li.PID = int(binary.LittleEndian.Uint32(raw[8:]))
	li.Nonce = binary.LittleEndian.Uint64(raw[12:])
	li.Acquired = int64(binary.LittleEndian.Uint64(raw[20:]))
	return li, nil
}

// lockGrace is how long acquisition waits before declaring an
// unparsable LOCK settled. Atomic publication means this layout never
// produces an unparsable lock, so the wait only costs time when the
// bytes are genuine corruption or a foreign writer is mid-acquire —
// and in the latter case the re-read sees the bytes change and backs
// off instead of stealing.
const lockGrace = 100 * time.Millisecond

// acquireLock claims the store's writer lock for owner, taking over a
// stale one (dead owner, or settled-unparsable bytes). A live holder
// is a *LockHeldError. Every filesystem step goes through the seam, so
// the crash matrix can kill acquisition at each mutating operation; a
// kill leaves either no LOCK, a complete LOCK whose recorded owner the
// next acquirer probes, or scratch files the recovery scan's temp
// sweep collects — never a torn LOCK, because LOCK is only ever
// published by linking an already-complete payload into place.
func acquireLock(fsys faultfs.FS, dir string, owner LockOwner, rec *obs.Recorder) (*storeLock, error) {
	path := filepath.Join(dir, lockName)
	nonce := lockNonce()
	payload := marshalLock(lockInfo{PID: owner.pid(), Nonce: nonce, Acquired: time.Now().UnixNano()})
	// Stage the complete payload at a nonce-unique scratch name and
	// make it durable; publication below is then a single Link, so an
	// observable LOCK is always whole — never the empty file a racer
	// could read between an exclusive create and its write, never a
	// torn one from a crash mid-write.
	claim := fmt.Sprintf("%s.%016x.claim.tmp", path, nonce)
	f, err := fsys.Create(claim)
	if err != nil {
		return nil, pathErr("stage lock", claim, err)
	}
	if werr := writeLockFile(f, payload); werr != nil {
		_ = fsys.Remove(claim)
		return nil, pathErr("stage lock", claim, werr)
	}
	// The LOCK link, not the scratch file, keeps an acquired lock
	// alive; the scratch is garbage either way once we return.
	defer func() { _ = fsys.Remove(claim) }()

	// Each attempt either claims the name, fails fast on a live
	// holder, or breaks one verified-stale lock; the bound covers
	// repeated takeover races.
	for attempt := 0; attempt < 4; attempt++ {
		err := fsys.Link(claim, path)
		if err == nil {
			return &storeLock{fs: fsys, dir: dir, path: path, nonce: nonce}, nil
		}
		if !errors.Is(err, fs.ErrExist) {
			return nil, pathErr("lock", path, err)
		}
		probed, rerr := faultfs.ReadFile(fsys, path)
		if rerr != nil {
			// The holder released (or was taken over) between our link
			// and read; retry the link.
			continue
		}
		li, perr := parseLock(probed)
		if perr == nil && owner.alive()(li.PID) {
			return nil, &LockHeldError{Dir: dir, PID: li.PID, Nonce: li.Nonce, Acquired: li.Acquired}
		}
		if perr != nil {
			// Unparsable bytes under a name this layout only publishes
			// whole: media corruption, or a foreign writer caught
			// mid-acquire. Grace-wait and re-read; only bytes that stay
			// identical are settled garbage safe to break.
			time.Sleep(lockGrace)
			again, rerr := faultfs.ReadFile(fsys, path)
			if rerr != nil {
				continue // vanished during the grace wait
			}
			if !bytes.Equal(again, probed) {
				continue // someone is acting on it; re-examine fresh state
			}
		}
		broke, err := breakStaleLock(fsys, path, probed, nonce, attempt)
		if err != nil {
			return nil, err
		}
		if broke {
			rec.Add(obs.CounterLockTakeovers, 1)
		}
	}
	return nil, pathErr("lock", path, fmt.Errorf("gave up after repeated takeover races"))
}

// breakStaleLock removes a stale LOCK without ever destroying a live
// racer's claim. A remove-by-name would race: between the probe and
// the remove another acquirer can break the same stale lock and
// publish its own fresh one, which the blind remove would then destroy
// — two live writers. Instead the lock is renamed to a breaker-unique
// scratch name (the rename atomically captures whatever is at LOCK;
// of two racing breakers one gets ErrNotExist and re-examines) and the
// captured bytes are compared to the probed ones. A match is the stale
// lock we examined: discard it and report the takeover. A mismatch
// means a racer's fresh claim was captured by mistake; it is restored
// bit-identically by linking it back. Only if that restore finds a
// third acquirer already in place is the displaced claim unrecoverable
// — the inherent residue of breakable advisory lock files — and the
// acquisition surfaces an error rather than proceeding.
func breakStaleLock(fsys faultfs.FS, path string, probed []byte, nonce uint64, attempt int) (bool, error) {
	aside := fmt.Sprintf("%s.%016x.%d.stale.tmp", path, nonce, attempt)
	if err := fsys.Rename(path, aside); err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return false, nil // another acquirer broke it first
		}
		return false, pathErr("break stale lock", path, err)
	}
	got, err := faultfs.ReadFile(fsys, aside)
	if err != nil {
		return false, pathErr("verify broken lock", aside, err)
	}
	if bytes.Equal(got, probed) {
		// Best-effort discard: a stray aside is scratch the recovery
		// scan's temp sweep collects.
		_ = fsys.Remove(aside)
		return true, nil
	}
	lerr := fsys.Link(aside, path)
	if lerr != nil && !errors.Is(lerr, fs.ErrExist) {
		return false, pathErr("restore raced lock", path, lerr)
	}
	_ = fsys.Remove(aside)
	if errors.Is(lerr, fs.ErrExist) {
		return false, pathErr("break stale lock", path,
			fmt.Errorf("lost a nested takeover race and displaced another writer's fresh lock"))
	}
	return false, nil
}

// writeLockFile writes, syncs, and closes the staged lock payload.
func writeLockFile(f faultfs.File, payload []byte) error {
	_, err := f.Write(payload)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// release removes the lock if it is still ours: after a (buggy or
// raced) takeover the file may carry someone else's nonce, and removing
// their claim would let two writers in.
func (l *storeLock) release() error {
	if !l.held() {
		return nil // already gone, or not ours anymore
	}
	if err := l.fs.Remove(l.path); err != nil && !errors.Is(err, fs.ErrNotExist) {
		return pathErr("unlock", l.path, err)
	}
	return nil
}

// held reports whether LOCK still carries this acquisition's nonce: one
// read of the 32-byte record.
func (l *storeLock) held() bool {
	if l == nil {
		return false
	}
	raw, err := faultfs.ReadFile(l.fs, l.path)
	if err != nil {
		return false
	}
	li, err := parseLock(raw)
	return err == nil && li.Nonce == l.nonce
}

// lockNonce draws a random acquisition nonce, so two acquisitions are
// distinguishable even when the same process releases and reacquires
// within one coarse clock tick — the case a clock-derived nonce would
// collide on, voiding release()'s nonce-ownership check. Only if the
// system entropy source fails does it fall back to a clock/PID mix.
func lockNonce() uint64 {
	var b [8]byte
	if _, err := crand.Read(b[:]); err == nil {
		return binary.LittleEndian.Uint64(b[:])
	}
	return uint64(time.Now().UnixNano())*2654435761 ^ uint64(os.Getpid())<<32
}
