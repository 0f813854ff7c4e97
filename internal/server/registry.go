package server

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"

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
// The registry never holds a store's single-writer lock at rest: each
// write operation opens the store, commits, and closes it again inside
// WithStore, so the on-disk LOCK exists only while a write is in
// flight and an operator CLI can take the writer role between
// requests. Reads go through a cached lock-free ReadView.
type Registry struct {
	root string
	opt  core.Options

	mu      sync.Mutex
	tenants map[string]*Tenant
}

// Tenant is one tenant's handle: its store directory, a mutex
// serializing this process's writes to it, a cached lock-free read
// view, and the tenant's metrics recorder.
type Tenant struct {
	name string
	dir  string
	opt  core.Options
	rec  *obs.Recorder

	// writeMu serializes this daemon's write operations per tenant, so
	// concurrent POSTs queue instead of failing on the on-disk writer
	// lock they would otherwise race for.
	writeMu sync.Mutex

	viewMu sync.Mutex
	view   *checkpoint.ReadView
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
		t = &Tenant{name: name, dir: filepath.Join(rg.root, name), opt: rg.opt, rec: obs.NewRecorder()}
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

// WithStore runs one write operation against the tenant's store,
// holding the single-writer lock only for the duration of fn: the
// store is opened (created on first write), fn commits through it, and
// it is closed — releasing the on-disk LOCK — before WithStore
// returns, or unwinds: the close is deferred, because a LOCK left
// behind by a panicking fn (net/http recovers handler panics) names
// this daemon's own live PID and would lock the tenant out until the
// daemon restarts. The per-tenant write mutex serializes this daemon's
// writers so they queue here instead of colliding on the lock file; a
// writer outside this process (an operator CLI) still surfaces as
// ErrLocked/LockHeldError, which the HTTP layer maps to 423.
func (t *Tenant) WithStore(fn func(st *checkpoint.Store) error) (err error) {
	t.writeMu.Lock()
	defer t.writeMu.Unlock()
	// The tenant's recorder sees the open: a stale LOCK taken over here
	// counts as the tenant's lock_takeovers.
	st, err := checkpoint.OpenFS(t.dir, faultfs.OS(), t.rec)
	if errors.Is(err, checkpoint.ErrNotFound) {
		st, err = checkpoint.Create(t.dir, t.opt)
	}
	if err != nil {
		return err
	}
	defer func() {
		if cerr := st.Close(); err == nil {
			err = cerr
		}
	}()
	st.SetRecorder(t.rec)
	return fn(st)
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
