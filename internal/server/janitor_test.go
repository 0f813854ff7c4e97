package server

// Janitor tests: the self-healing sweep reaps orphaned spool files and
// expired upload sessions, publishes both counters through /metrics,
// and respects TTLs for live state.

import (
	"bytes"
	"net/http"
	"os"
	"path/filepath"
	"testing"
	"time"

	"numarck/internal/obs"
)

// plantOrphans leaves one orphaned spool file and one idle upload
// session on tenant name.
func plantOrphans(t *testing.T, s *Server, ts string, name string) {
	t.Helper()
	// A spool file whose request died before commit.
	if err := os.WriteFile(filepath.Join(s.spoolDir, "ckpt-orphan"), []byte("half a payload"), 0o644); err != nil {
		t.Fatal(err)
	}
	// An upload session nobody will ever finalize.
	h := &uploadHarness{t: t, base: ts, http: http.DefaultClient, payload: floatBytes(seriesValues(0, 16))}
	resp := h.do("POST", ts+"/v1/"+name+"/v/uploads?iter=5&size=128", nil, nil)
	h.decode(resp, 201)
}

// TestJanitorSweep plants both kinds of orphan, sweeps with zero TTLs,
// and checks the report and the /metrics counters.
func TestJanitorSweep(t *testing.T) {
	s, ts := newTestServer(t, 0, 0)
	plantOrphans(t, s, ts.URL, "jt")

	rep, err := s.Sweep(JanitorConfig{})
	if err != nil {
		t.Fatalf("sweep: %v", err)
	}
	if rep.SpoolsReaped != 1 || rep.SessionsReaped != 1 {
		t.Fatalf("report = %+v, want one of each", rep)
	}

	// The counters surface in the metrics endpoint's janitor section.
	c := &Client{Base: ts.URL, Tenant: "jt"}
	mr, err := c.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	for counter, want := range map[string]int64{
		obs.CounterSpoolsReaped.String():   1,
		obs.CounterSessionsReaped.String(): 1,
	} {
		if got := mr.Janitor.Counters[counter]; got != want {
			t.Errorf("metrics janitor counter %s = %d, want %d", counter, got, want)
		}
	}
}

// TestJanitorRespectsTTLs checks fresh state survives a sweep with
// nonzero TTLs: a young spool file, a live session, and a healthy
// (dead-free) store must all be left alone.
func TestJanitorRespectsTTLs(t *testing.T) {
	s, ts := newTestServer(t, 0, 0)
	if err := os.WriteFile(filepath.Join(s.spoolDir, "ckpt-live"), []byte("in flight"), 0o644); err != nil {
		t.Fatal(err)
	}
	h := &uploadHarness{t: t, base: ts.URL, http: http.DefaultClient, payload: floatBytes(seriesValues(0, 16))}
	ur := h.decode(h.do("POST", ts.URL+"/v1/t0/v/uploads?iter=0&size=128", nil, nil), 201)
	c := &Client{Base: ts.URL, Tenant: "t0"}
	if _, err := c.Push("w", 0, bytes.NewReader(floatBytes(seriesValues(0, 64))), nil); err != nil {
		t.Fatal(err)
	}

	rep, err := s.Sweep(JanitorConfig{SpoolTTL: time.Hour, SessionTTL: time.Hour})
	if err != nil {
		t.Fatalf("sweep: %v", err)
	}
	if rep.SpoolsReaped != 0 || rep.SessionsReaped != 0 {
		t.Fatalf("report = %+v, want nothing reaped", rep)
	}
	if _, err := os.Stat(filepath.Join(s.spoolDir, "ckpt-live")); err != nil {
		t.Fatalf("young spool file reaped: %v", err)
	}
	h.id = ur.ID
	if got := h.received(); got != 0 {
		t.Fatalf("live session received = %d, want 0 (and alive)", got)
	}
}

// TestJanitorSparesMidCreateSession pins the create/sweep race: a
// session directory that exists without meta.json is the window inside
// handleCreateUpload between MkdirAll and the first meta rename, not
// automatically debris. The sweep must judge it by the directory's own
// mtime against the TTL — sparing an in-flight create, still reaping a
// crashed create once it ages out.
func TestJanitorSparesMidCreateSession(t *testing.T) {
	s, _ := newTestServer(t, 0, 0)
	dir := filepath.Join(s.uploads.dir, "0123456789abcdef0123456789abcdef")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}

	rep, err := s.Sweep(JanitorConfig{SpoolTTL: time.Hour, SessionTTL: time.Hour})
	if err != nil {
		t.Fatalf("sweep: %v", err)
	}
	if rep.SessionsReaped != 0 {
		t.Fatalf("reaped %d sessions, want the mid-create dir spared", rep.SessionsReaped)
	}
	if _, err := os.Stat(dir); err != nil {
		t.Fatalf("mid-create session dir reaped: %v", err)
	}

	// Aged past the TTL it is debris from a crashed create: reaped.
	old := time.Now().Add(-2 * time.Hour)
	if err := os.Chtimes(dir, old, old); err != nil {
		t.Fatal(err)
	}
	if rep, err = s.Sweep(JanitorConfig{SpoolTTL: time.Hour, SessionTTL: time.Hour}); err != nil {
		t.Fatalf("sweep: %v", err)
	}
	if rep.SessionsReaped != 1 {
		t.Fatalf("reaped %d sessions, want the aged debris gone", rep.SessionsReaped)
	}
	if _, err := os.Stat(dir); !os.IsNotExist(err) {
		t.Fatalf("aged debris dir survived the sweep: %v", err)
	}
}

// TestJanitorSparesInFlightSpool pins the spool ownership rule: a
// spool file older than any TTL but still owned by a live request (a
// slow upload, a long governor wait) survives the sweep, and is reaped
// only once its request releases it.
func TestJanitorSparesInFlightSpool(t *testing.T) {
	s, _ := newTestServer(t, 0, 0)
	path := filepath.Join(s.spoolDir, "body-busy")
	if err := os.WriteFile(path, []byte("still streaming"), 0o644); err != nil {
		t.Fatal(err)
	}
	old := time.Now().Add(-24 * time.Hour)
	if err := os.Chtimes(path, old, old); err != nil {
		t.Fatal(err)
	}
	s.markSpool(path)

	rep, err := s.Sweep(JanitorConfig{})
	if err != nil {
		t.Fatalf("sweep: %v", err)
	}
	if rep.SpoolsReaped != 0 {
		t.Fatalf("reaped %d spools, want the in-flight one spared", rep.SpoolsReaped)
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("in-flight spool reaped: %v", err)
	}

	s.releaseSpool(path)
	if rep, err = s.Sweep(JanitorConfig{}); err != nil {
		t.Fatalf("sweep: %v", err)
	}
	if rep.SpoolsReaped != 1 {
		t.Fatalf("reaped %d spools after release, want 1", rep.SpoolsReaped)
	}
}
