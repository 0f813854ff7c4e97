package server

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"net/http"
	"os"
	"path/filepath"
	"testing"

	"numarck/internal/checkpoint"
	"numarck/internal/core"
	"numarck/internal/obs"
)

// TestWithStorePanicReleasesLock pins that a panic inside a write
// operation does not wedge the tenant: net/http recovers handler
// panics, so the daemon lives on, and a LOCK left behind would name its
// own live PID — every later write would get 423 until a restart. The
// store must be closed on the way out of the panic, and the next write
// must commit.
func TestWithStorePanicReleasesLock(t *testing.T) {
	rg, err := NewRegistry(t.TempDir(), core.Options{ErrorBound: 0.001, IndexBits: 8, Strategy: core.EqualWidth})
	if err != nil {
		t.Fatal(err)
	}
	tn, err := rg.Tenant("t")
	if err != nil {
		t.Fatal(err)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("fn's panic did not propagate")
			}
		}()
		_ = tn.WithStore(func(*checkpoint.Store) error { panic("handler bug") })
	}()
	err = tn.WithStore(func(st *checkpoint.Store) error {
		return st.WriteFull("dens", 0, []float64{1, 2, 3})
	})
	if err != nil {
		t.Fatalf("write after a panicked write: %v", err)
	}
}

// plantDeadLock writes the LOCK a writer leaves when it dies holding
// the store (FORMAT.md, "LOCK — the writer lock"): a complete record
// whose PID is above the kernel's pid ceiling, so every liveness probe
// reports it dead.
func plantDeadLock(t *testing.T, dir string) {
	t.Helper()
	raw := make([]byte, 32)
	copy(raw, "NMRKL1")
	binary.LittleEndian.PutUint16(raw[6:], 1)
	binary.LittleEndian.PutUint32(raw[8:], 1999999999)
	binary.LittleEndian.PutUint64(raw[12:], 0xdead)
	binary.LittleEndian.PutUint64(raw[20:], 1)
	binary.LittleEndian.PutUint32(raw[28:], crc32.ChecksumIEEE(raw[:28]))
	if err := os.WriteFile(filepath.Join(dir, "LOCK"), raw, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestPushTakesOverDeadLock pins the one stale-lock path: a LOCK left by
// a dead writer does not block the tenant — the next push takes it over
// when it opens the store, commits, and the takeover shows in the
// tenant's /metrics as lock_takeovers.
func TestPushTakesOverDeadLock(t *testing.T) {
	s, ts := newTestServer(t, 0, 0)
	c := &Client{Base: ts.URL, Tenant: "lt"}
	if _, err := c.Push("v", 0, bytes.NewReader(floatBytes(seriesValues(0, 64))), nil); err != nil {
		t.Fatal(err)
	}
	plantDeadLock(t, filepath.Join(s.Registry().Root(), "lt"))
	resp, err := http.Post(ts.URL+"/v1/lt/v/checkpoints?iter=1", "application/octet-stream", bytes.NewReader(floatBytes(seriesValues(1, 64))))
	if err != nil {
		t.Fatal(err)
	}
	if err := resp.Body.Close(); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("push over a dead writer's LOCK: status %d, want 201", resp.StatusCode)
	}
	mr, err := c.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	if got := mr.Tenants["lt"].Counters[obs.CounterLockTakeovers.String()]; got != 1 {
		t.Errorf("tenant lock_takeovers = %d, want 1", got)
	}
}
