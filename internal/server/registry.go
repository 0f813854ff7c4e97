package server

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"

	"numarck/internal/checkpoint"
	"numarck/internal/core"
	"numarck/internal/faultfs"
	"numarck/internal/obs"
)

// Registry lazily opens per-tenant checkpoint stores under one root
// directory. A tenant's store directory is root/<tenant>; tenant names
// obey the same rules as variable names (checkpoint.ValidateVariable),
// which also makes them single safe path components and keeps them
// from colliding with the daemon's root/.spool scratch directory.
//
// The registry never holds a store's single-writer lock at rest. A
// write opens the store inside WithStore and commits through it; the
// store stays open, LOCK held, only while another write of the same
// tenant is in flight, and the last write of a burst closes it. So the
// on-disk LOCK exists only while the tenant has write traffic, and an
// operator CLI can take the writer role in any gap in it. Reads go
// through a cached lock-free ReadView.
type Registry struct {
	root string
	opt  core.Options
	// gov is the daemon's memory governor: it admits requests and
	// charges the tenants' series heads. Nil or ungoverned, it admits
	// everything and keeps one head per series, uncharged.
	gov *Governor
	// draining is set once drain begins: from then on no write leaves
	// its store open for the next.
	draining atomic.Bool

	mu      sync.Mutex
	tenants map[string]*Tenant
}

// Tenant is one tenant's handle: its store directory, the write
// section serializing this process's commits to it and the store a
// write may leave open there, a cached lock-free read view, the heads
// of its series, and the tenant's metrics recorder.
type Tenant struct {
	name string
	dir  string
	opt  core.Options
	rec  *obs.Recorder
	rg   *Registry

	// writeMu serializes this daemon's write operations per tenant, so
	// concurrent POSTs queue instead of failing on the on-disk writer
	// lock they would otherwise race for. It guards held.
	writeMu sync.Mutex
	// held is the store a write left open because another write of the
	// tenant was in flight (the writer lease); nil at rest.
	held *checkpoint.Store
	// writes counts the tenant's writes in flight, from commitSpooled's
	// entry to its return.
	writes atomic.Int32

	viewMu sync.Mutex
	view   *checkpoint.ReadView

	headMu sync.Mutex
	heads  map[string]*seriesHead
}

// NewRegistry builds a registry rooted at root, creating the directory
// if needed, and pre-registers any existing tenant store directories
// so /metrics and drain accounting see them before their first
// request. opt is the manifest written when a tenant's store is
// created on first write.
func NewRegistry(root string, opt core.Options) (*Registry, error) {
	if root == "" {
		return nil, fmt.Errorf("server: registry needs a root directory")
	}
	if err := os.MkdirAll(root, 0o755); err != nil {
		return nil, fmt.Errorf("server: create root: %w", err)
	}
	rg := &Registry{root: root, opt: opt, tenants: map[string]*Tenant{}}
	des, err := os.ReadDir(root)
	if err != nil {
		return nil, fmt.Errorf("server: scan root: %w", err)
	}
	for _, de := range des {
		if de.IsDir() && checkpoint.ValidateVariable(de.Name()) == nil {
			if _, err := rg.Tenant(de.Name()); err != nil {
				return nil, err
			}
		}
	}
	return rg, nil
}

// Root returns the registry's root directory.
func (rg *Registry) Root() string { return rg.root }

// Tenant returns the handle for a tenant name, creating it on first
// use. The name is validated; the store directory is not touched until
// the first write.
func (rg *Registry) Tenant(name string) (*Tenant, error) {
	if err := checkpoint.ValidateVariable(name); err != nil {
		return nil, fmt.Errorf("server: tenant name: %w", err)
	}
	rg.mu.Lock()
	defer rg.mu.Unlock()
	t := rg.tenants[name]
	if t == nil {
		t = &Tenant{name: name, dir: filepath.Join(rg.root, name), opt: rg.opt, rec: obs.NewRecorder(), rg: rg, heads: map[string]*seriesHead{}}
		rg.tenants[name] = t
	}
	return t, nil
}

// Tenants returns every known tenant handle, sorted by name.
func (rg *Registry) Tenants() []*Tenant {
	rg.mu.Lock()
	defer rg.mu.Unlock()
	out := make([]*Tenant, 0, len(rg.tenants))
	for _, t := range rg.tenants {
		out = append(out, t)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// Name returns the tenant's name.
func (t *Tenant) Name() string { return t.name }

// Dir returns the tenant's store directory.
func (t *Tenant) Dir() string { return t.dir }

// Recorder returns the tenant's metrics recorder.
func (t *Tenant) Recorder() *obs.Recorder { return t.rec }

// WithStore runs one write operation against the tenant's store inside
// the tenant's write section, which serializes this daemon's writers so
// they queue here instead of colliding on the lock file. The store is
// the one the previous write left open, if its LOCK still carries that
// open's nonce, and is otherwise opened (created on first write). After
// fn returns, the store stays open only if fn succeeded, another write
// of the tenant is in flight and drain has not begun; otherwise it is
// closed, releasing the on-disk LOCK, before WithStore returns or
// unwinds. The close is deferred because a LOCK left behind by a
// panicking fn (net/http recovers handler panics) names this daemon's
// own live PID and would lock the tenant out until the daemon
// restarts. A store left open is closed by the last write of the
// tenant to finish (beginWrite). A writer outside this process (an
// operator CLI) still surfaces as ErrLocked/LockHeldError, which the
// HTTP layer maps to 423.
func (t *Tenant) WithStore(fn func(st *checkpoint.Store) error) (err error) {
	wait := t.rec.Start()
	t.writeMu.Lock()
	wait.Stop(obs.StageWriteWait)
	defer t.writeMu.Unlock()
	st, err := t.openLocked()
	if err != nil {
		return err
	}
	keep := false
	defer func() {
		if keep {
			t.held = st
		} else if cerr := st.Close(); err == nil {
			err = cerr
		}
	}()
	if err = fn(st); err != nil {
		return err
	}
	keep = t.writes.Load() > 1 && !t.rg.draining.Load()
	return nil
}

// openLocked returns the store a write goes through: the held one if
// its LOCK is still ours, otherwise a fresh open. A held store whose
// LOCK is gone or another writer's is dropped without a Close, which
// could only ever remove a LOCK of ours. Called with writeMu held.
func (t *Tenant) openLocked() (*checkpoint.Store, error) {
	if st := t.held; st != nil {
		t.held = nil
		if st.HoldsLock() {
			t.rec.Add(obs.CounterLeaseReuses, 1)
			return st, nil
		}
	}
	// The tenant's recorder sees the open: a stale LOCK taken over here
	// counts as the tenant's lock_takeovers.
	st, err := checkpoint.OpenFS(t.dir, faultfs.OS(), t.rec)
	if errors.Is(err, checkpoint.ErrNotFound) {
		st, err = checkpoint.Create(t.dir, t.opt)
	}
	if err != nil {
		return nil, err
	}
	st.SetRecorder(t.rec)
	return st, nil
}

// beginWrite counts one write of the tenant in flight and returns its
// end, which the caller must call exactly once, whether the write
// committed or failed. The last write to end closes a store left open,
// so that no LOCK outlives the tenant's write traffic.
func (t *Tenant) beginWrite() (end func()) {
	t.writes.Add(1)
	return func() {
		if t.writes.Add(-1) > 0 {
			return
		}
		t.writeMu.Lock()
		defer t.writeMu.Unlock()
		// A write that began since has its own end to come.
		if t.writes.Load() == 0 && t.held != nil {
			// A release that fails leaves a LOCK naming this live
			// process; the next open reports it as held, never loses data.
			_ = t.held.Close()
			t.held = nil
		}
	}
}

// View returns the tenant's cached lock-free read view, opening it on
// first use. A missing store is not cached as a failure: the next call
// retries, so a tenant becomes readable as soon as its first write
// commits.
func (t *Tenant) View() (*checkpoint.ReadView, error) {
	t.viewMu.Lock()
	defer t.viewMu.Unlock()
	if t.view != nil {
		return t.view, nil
	}
	rv, err := checkpoint.OpenReadOnly(t.dir)
	if err != nil {
		return nil, err
	}
	t.view = rv
	return rv, nil
}
