package server

import (
	"testing"

	"numarck/internal/checkpoint"
	"numarck/internal/core"
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
