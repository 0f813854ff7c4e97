package server

// The self-healing janitor: a periodic sweep that undoes what crashes
// leave behind. A daemon killed mid-request strands spool scratch files
// and resumable upload sessions. Neither blocks correctness, but both
// accumulate: spools eat disk, expired sessions eat disk and table
// entries. The janitor reaps both on a clock and publishes what it did
// as counters (spools_reaped, sessions_reaped) under /metrics, so "the
// daemon healed itself" is observable, not folklore. (A stale writer
// LOCK left by a dead process needs no sweep: the next write to the
// tenant takes it over when it opens the store, counted as the
// tenant's lock_takeovers.)

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"numarck/internal/obs"
)

// JanitorConfig tunes the self-healing sweep.
type JanitorConfig struct {
	// Interval is RunJanitor's sweep period (default 1m).
	Interval time.Duration
	// SpoolTTL is how old (by mtime) a spool scratch file must be
	// before it is considered orphaned. RunJanitor defaults it to 1h;
	// Sweep treats zero as "reap everything", which tests use.
	SpoolTTL time.Duration
	// SessionTTL is how long an upload session may sit idle (by its
	// meta.json mtime) before it is reaped, finalized or not.
	// RunJanitor defaults it to 24h; zero in Sweep reaps everything.
	SessionTTL time.Duration
	// Now overrides the clock (tests); nil uses time.Now.
	Now func() time.Time
}

// JanitorReport is one sweep's tally.
type JanitorReport struct {
	// SpoolsReaped counts orphaned spool scratch files removed.
	SpoolsReaped int
	// SessionsReaped counts upload sessions removed.
	SessionsReaped int
}

// Sweep runs one janitor pass: reap orphaned spool files older than
// SpoolTTL and upload sessions idle longer than SessionTTL. Items it
// cannot judge (unreadable, owned by a live request) are left alone;
// per-item failures are collected, not fatal, so one bad entry never
// shields the rest from cleaning.
func (s *Server) Sweep(cfg JanitorConfig) (JanitorReport, error) {
	now := time.Now
	if cfg.Now != nil {
		now = cfg.Now
	}
	var rep JanitorReport
	var errs []error

	rep.SpoolsReaped, errs = s.sweepSpools(now(), cfg.SpoolTTL, errs)
	rep.SessionsReaped, errs = s.sweepSessions(now(), cfg.SessionTTL, errs)

	s.jrec.Add(obs.CounterSpoolsReaped, int64(rep.SpoolsReaped))
	s.jrec.Add(obs.CounterSessionsReaped, int64(rep.SessionsReaped))
	return rep, errors.Join(errs...)
}

// sweepSpools removes spool scratch files whose mtime is older than
// ttl. The uploads directory under the spool root is session state,
// not scratch — sweepSessions owns it.
func (s *Server) sweepSpools(now time.Time, ttl time.Duration, errs []error) (int, []error) {
	des, err := os.ReadDir(s.spoolDir)
	if err != nil {
		return 0, append(errs, fmt.Errorf("janitor: scan spool: %w", err))
	}
	reaped := 0
	for _, de := range des {
		if de.Name() == uploadDirName {
			continue
		}
		path := filepath.Join(s.spoolDir, de.Name())
		if s.spoolInUse(path) {
			// A live request still needs these bytes — a slow upload or a
			// long governor wait can hold a spool past any TTL. Age means
			// nothing against ownership.
			continue
		}
		fi, err := de.Info()
		if err != nil {
			// Raced with the request that owns it; it is gone either way.
			continue
		}
		if now.Sub(fi.ModTime()) < ttl {
			continue
		}
		if err := os.RemoveAll(path); err != nil {
			errs = append(errs, fmt.Errorf("janitor: reap spool %s: %w", de.Name(), err))
			continue
		}
		reaped++
	}
	return reaped, errs
}

// sweepSessions removes upload sessions whose meta.json has not been
// touched within ttl — meta is rewritten on every accepted range, so
// its mtime is the session's last sign of life. A live session's mutex
// is held across removal so a racing range PUT serializes against the
// reap instead of appending into a deleted directory.
func (s *Server) sweepSessions(now time.Time, ttl time.Duration, errs []error) (int, []error) {
	dir := s.uploads.dir
	des, err := os.ReadDir(dir)
	if err != nil {
		return 0, append(errs, fmt.Errorf("janitor: scan sessions: %w", err))
	}
	reaped := 0
	for _, de := range des {
		id := de.Name()
		path := filepath.Join(dir, id)
		fi, err := os.Stat(filepath.Join(path, "meta.json"))
		if err != nil {
			// No meta.json: either a session mid-creation (between
			// handleCreateUpload's MkdirAll and the first meta rename) or
			// debris from a crashed create. Judge it by the directory's
			// own mtime so an in-flight create is never reaped out from
			// under its handler; real debris ages past the TTL like any
			// other orphan.
			if fi, err = os.Stat(path); err != nil {
				// Vanished between ReadDir and Stat.
				continue
			}
		}
		if now.Sub(fi.ModTime()) < ttl {
			continue
		}
		if u, gerr := s.uploads.get(id); gerr == nil {
			u.mu.Lock()
			err = os.RemoveAll(path)
			u.mu.Unlock()
		} else {
			// Not a loadable session (malformed ID, corrupt meta):
			// still disk to reclaim.
			err = os.RemoveAll(path)
		}
		if err != nil {
			errs = append(errs, fmt.Errorf("janitor: reap session %s: %w", id, err))
			continue
		}
		s.uploads.remove(id)
		reaped++
	}
	return reaped, errs
}

// RunJanitor sweeps immediately and then every cfg.Interval until ctx
// is done, with production defaults applied to zero fields (1m
// interval, 1h spool TTL, 24h session TTL). The daemon binary runs it
// as a background goroutine; sweep failures are reported through the
// janitor counters staying flat, never by killing the loop.
func (s *Server) RunJanitor(ctx context.Context, cfg JanitorConfig) {
	if cfg.Interval <= 0 {
		cfg.Interval = time.Minute
	}
	if cfg.SpoolTTL <= 0 {
		cfg.SpoolTTL = time.Hour
	}
	if cfg.SessionTTL <= 0 {
		cfg.SessionTTL = 24 * time.Hour
	}
	tick := time.NewTicker(cfg.Interval)
	defer tick.Stop()
	for {
		// Per-item sweep errors are advisory; the loop must outlive them.
		_, _ = s.Sweep(cfg)
		select {
		case <-ctx.Done():
			return
		case <-tick.C:
		}
	}
}
