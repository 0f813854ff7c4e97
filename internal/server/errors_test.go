package server

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"numarck/internal/checkpoint"
)

// TestClassifyTable pins the typed-error → HTTP mapping: every
// sentinel the storage and pipeline layers can surface has a stable
// status and machine-readable class, including when wrapped.
func TestClassifyTable(t *testing.T) {
	cases := []struct {
		name   string
		err    error
		status int
		class  string
	}{
		{"bad request", errBadRequest, http.StatusBadRequest, "bad_request"},
		{"bad variable", checkpoint.ErrBadVariable, http.StatusBadRequest, "bad_request"},
		{"not found", checkpoint.ErrNotFound, http.StatusNotFound, "not_found"},
		{"chain conflict", checkpoint.ErrChain, http.StatusConflict, "chain_conflict"},
		{"too large", ErrTooLarge, http.StatusRequestEntityTooLarge, "too_large"},
		{"over capacity", ErrOverCapacity, http.StatusTooManyRequests, "over_capacity"},
		{"locked", checkpoint.ErrLocked, http.StatusLocked, "store_locked"},
		{"draining", ErrDraining, http.StatusServiceUnavailable, "draining"},
		{"closed store", checkpoint.ErrClosed, http.StatusServiceUnavailable, "draining"},
		{"corrupt", checkpoint.ErrCorrupt, http.StatusInternalServerError, "corrupt_store"},
		{"truncated", checkpoint.ErrTruncated, http.StatusInternalServerError, "corrupt_store"},
		{"canceled", context.Canceled, http.StatusServiceUnavailable, "canceled"},
		{"deadline", context.DeadlineExceeded, http.StatusServiceUnavailable, "canceled"},
		{"unknown", errors.New("boom"), http.StatusInternalServerError, "internal"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for _, err := range []error{tc.err, fmt.Errorf("outer: %w", tc.err)} {
				ae := classify(err)
				if ae.Status != tc.status || ae.Class != tc.class {
					t.Errorf("classify(%v) = %d %s, want %d %s", err, ae.Status, ae.Class, tc.status, tc.class)
				}
				if ae.Detail == "" {
					t.Errorf("classify(%v) lost the error text", err)
				}
			}
		})
	}
}

// TestClassifyLockHolder checks that a LockHeldError anywhere in the
// chain carries the holder's PID and lock age onto the 423.
func TestClassifyLockHolder(t *testing.T) {
	lh := &checkpoint.LockHeldError{
		Dir: "/store", PID: 4242,
		Acquired: time.Now().Add(-3 * time.Second).UnixNano(),
	}
	ae := classify(fmt.Errorf("open store: %w", lh))
	if ae.Status != http.StatusLocked || ae.Class != "store_locked" {
		t.Fatalf("LockHeldError mapped to %d %s", ae.Status, ae.Class)
	}
	if ae.HolderPID != 4242 {
		t.Errorf("holder pid = %d, want 4242", ae.HolderPID)
	}
	if ae.HolderAgeMs < 2000 {
		t.Errorf("holder age = %dms, want ~3000", ae.HolderAgeMs)
	}
	if ae.RetryAfterSec <= 0 {
		t.Error("423 carried no retry hint")
	}
}

// TestWriteErrorHeaders checks the rendered response: mapped status,
// JSON body, and a Retry-After header whenever the class hints one.
func TestWriteErrorHeaders(t *testing.T) {
	s, _ := newTestServer(t, 0, 0)
	rr := httptest.NewRecorder()
	s.writeError(rr, ErrOverCapacity)
	if rr.Code != http.StatusTooManyRequests {
		t.Fatalf("status = %d", rr.Code)
	}
	if rr.Header().Get("Retry-After") == "" {
		t.Error("429 without Retry-After header")
	}
	if ct := rr.Header().Get("Content-Type"); ct != "application/json" {
		t.Errorf("content type = %q", ct)
	}

	rr = httptest.NewRecorder()
	s.writeError(rr, checkpoint.ErrNotFound)
	if rr.Code != http.StatusNotFound {
		t.Fatalf("status = %d", rr.Code)
	}
	if rr.Header().Get("Retry-After") != "" {
		t.Error("404 should not hint a retry")
	}
}

// TestErrorDetailHidesRoot pins that an error body names the file that
// failed but not the daemon's filesystem layout: a fetch over a flipped
// byte of the series' full checkpoint answers corrupt_store with a
// detail relative to the registry root.
func TestErrorDetailHidesRoot(t *testing.T) {
	s, ts := newTestServer(t, 0, 0)
	c := &Client{Base: ts.URL, Tenant: "hf"}
	for iter := 0; iter <= 1; iter++ {
		if _, err := c.Push("v", iter, bytes.NewReader(floatBytes(seriesValues(iter, 4096))), nil); err != nil {
			t.Fatal(err)
		}
	}
	path := filepath.Join(s.Registry().Root(), "hf", "v.full.000000.nmk")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)*3/5] ^= 0x10
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	var apiErr *APIError
	if _, _, err := c.Fetch("v", 1, &bytes.Buffer{}, false); !errors.As(err, &apiErr) || apiErr.Class != "corrupt_store" {
		t.Fatalf("fetch over a flipped byte = %v, want corrupt_store", err)
	}
	if !strings.Contains(apiErr.Detail, "v.full.000000.nmk") || strings.Contains(apiErr.Detail, s.Registry().Root()) || strings.Contains(apiErr.Detail, string(filepath.Separator)+"hf") {
		t.Errorf("detail %q: want the file's name without the daemon's path to it", apiErr.Detail)
	}
}
