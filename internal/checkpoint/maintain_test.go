package checkpoint

import (
	"errors"
	"os"
	"path/filepath"
	"testing"
)

// buildStore writes a small two-variable store: fulls at 0 and 3,
// deltas at 1, 2, 4, 5.
func buildStore(t *testing.T) (*Store, [][]float64) {
	t.Helper()
	st, err := Create(filepath.Join(t.TempDir(), "ck"), opts())
	if err != nil {
		t.Fatal(err)
	}
	series := genSeries(500, 6, 21)
	w := NewWriter(st, 3)
	for i, data := range series {
		if _, err := w.Append(i, map[string][]float64{"a": data, "b": data}); err != nil {
			t.Fatal(err)
		}
	}
	return st, series
}

func TestVerifyCleanStore(t *testing.T) {
	st, _ := buildStore(t)
	issues, err := st.Verify()
	if err != nil {
		t.Fatal(err)
	}
	if len(issues) != 0 {
		t.Errorf("clean store has issues: %v", issues)
	}
}

func TestVerifyDetectsCorruption(t *testing.T) {
	st, _ := buildStore(t)
	path := st.path("a", "delta", 2)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-1] ^= 0xFF
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	issues, err := st.Verify()
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, is := range issues {
		if is.Variable == "a" && is.Iteration == 2 && errors.Is(is.Err, ErrCorrupt) {
			found = true
		}
		if is.String() == "" {
			t.Error("empty issue string")
		}
	}
	if !found {
		t.Errorf("corruption not reported: %v", issues)
	}
}

func TestVerifyDetectsChainGap(t *testing.T) {
	st, _ := buildStore(t)
	if err := os.Remove(st.path("b", "delta", 4)); err != nil {
		t.Fatal(err)
	}
	issues, err := st.Verify()
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, is := range issues {
		if is.Variable == "b" && is.Iteration == 5 && errors.Is(is.Err, ErrChain) {
			found = true
		}
	}
	if !found {
		t.Errorf("chain gap not reported: %v", issues)
	}
}

func TestVerifyDetectsOrphanDelta(t *testing.T) {
	st, err := Create(filepath.Join(t.TempDir(), "ck"), opts())
	if err != nil {
		t.Fatal(err)
	}
	series := genSeries(100, 2, 22)
	if err := writeDelta(st, "v", 1, series[0], series[1]); err != nil {
		t.Fatal(err)
	}
	issues, err := st.Verify()
	if err != nil {
		t.Fatal(err)
	}
	if len(issues) != 1 || !errors.Is(issues[0].Err, ErrChain) {
		t.Errorf("orphan delta: %v", issues)
	}
}

func TestStats(t *testing.T) {
	st, _ := buildStore(t)
	stats, err := st.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if len(stats) != 2 {
		t.Fatalf("%d variables", len(stats))
	}
	for _, s := range stats {
		if s.Fulls != 2 || s.Deltas != 4 {
			t.Errorf("%s: %d fulls, %d deltas", s.Variable, s.Fulls, s.Deltas)
		}
		if s.FirstIter != 0 || s.LastIter != 5 {
			t.Errorf("%s: iter range [%d,%d]", s.Variable, s.FirstIter, s.LastIter)
		}
		if s.FullBytes <= 0 || s.DeltaBytes <= 0 || s.TotalBytes() != s.FullBytes+s.DeltaBytes {
			t.Errorf("%s: byte accounting %+v", s.Variable, s)
		}
	}
	if stats[0].Variable != "a" || stats[1].Variable != "b" {
		t.Errorf("not sorted: %v, %v", stats[0].Variable, stats[1].Variable)
	}
}

func TestGC(t *testing.T) {
	st, series := buildStore(t)
	// Keep restartability from iteration 4: the base full is at 3, so
	// iterations 0-2 (full@0 + 2 deltas, per variable) are removable.
	removed, err := st.GC(4)
	if err != nil {
		t.Fatal(err)
	}
	if removed != 6 { // (1 full + 2 deltas) x 2 variables
		t.Errorf("removed %d files, want 6", removed)
	}
	// Iterations >= 3 still restart fine.
	for _, iter := range []int{3, 4, 5} {
		rec, err := st.Restart("a", iter)
		if err != nil {
			t.Fatalf("restart %d after GC: %v", iter, err)
		}
		if len(rec) != len(series[iter]) {
			t.Fatalf("restart %d wrong size", iter)
		}
	}
	// Earlier iterations are gone.
	if _, err := st.Restart("a", 1); !errors.Is(err, ErrNotFound) {
		t.Errorf("restart 1 after GC: %v", err)
	}
	// A clean store verifies after GC.
	issues, err := st.Verify()
	if err != nil {
		t.Fatal(err)
	}
	if len(issues) != 0 {
		t.Errorf("post-GC issues: %v", issues)
	}
}

func TestGCNothingToRetain(t *testing.T) {
	st, _ := buildStore(t)
	// keepFrom before the first full of variable "a"? Full exists at 0,
	// so keepFrom=-1 has no full at or before it.
	if _, err := st.GC(-1); !errors.Is(err, ErrNothingToGC) {
		t.Errorf("GC(-1): %v", err)
	}
}

func TestGCIdempotent(t *testing.T) {
	st, _ := buildStore(t)
	if _, err := st.GC(5); err != nil {
		t.Fatal(err)
	}
	removed, err := st.GC(5)
	if err != nil {
		t.Fatal(err)
	}
	if removed != 0 {
		t.Errorf("second GC removed %d files", removed)
	}
}

// TestGCWithQuarantinedBase checks retention safety when recovery has
// quarantined a base full checkpoint: pruning must fall back to the
// last good base and never delete it, keeping the surviving prefix of
// the chain restorable.
func TestGCWithQuarantinedBase(t *testing.T) {
	st, _ := buildStore(t)
	// Tear variable a's full@3; the reopen quarantines it, leaving
	// full@0 as a's only (and last good) base.
	path := st.path("a", "full", 3)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, raw[:len(raw)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	st2, err := Open(st.Dir())
	if err != nil {
		t.Fatal(err)
	}
	if len(st2.Recovery().Quarantined) != 1 {
		t.Fatalf("recovery = %s, want one quarantined file", st2.Recovery())
	}
	// GC(4): variable b prunes up to its full@3, but variable a's last
	// good base is full@0, which must survive along with its chain.
	if _, err := st2.GC(4); err != nil {
		t.Fatal(err)
	}
	for _, iter := range []int{0, 1, 2} {
		if _, err := st2.Restart("a", iter); err != nil {
			t.Fatalf("restart a@%d after GC with quarantined base: %v", iter, err)
		}
	}
	latest, err := st2.LatestRestorable("a")
	if err != nil || latest != 2 {
		t.Fatalf("LatestRestorable(a) = %d, %v; want 2", latest, err)
	}
	// Variable b, whose base is intact, pruned normally.
	if _, err := st2.Restart("b", 1); !errors.Is(err, ErrNotFound) {
		t.Fatalf("restart b@1 after GC: %v", err)
	}
	if _, err := st2.Restart("b", 4); err != nil {
		t.Fatalf("restart b@4 after GC: %v", err)
	}
	// Verify still reports a's chain gap honestly (deltas 4-5 lost
	// their base to quarantine), and nothing else: GC kept the journal
	// in sync with the directory.
	issues, err := st2.Verify()
	if err != nil {
		t.Fatal(err)
	}
	for _, is := range issues {
		if is.Variable != "a" || !errors.Is(is.Err, ErrChain) {
			t.Fatalf("unexpected post-GC issue: %v", is)
		}
	}
	if len(issues) == 0 {
		t.Fatal("Verify hid the chain gap behind the quarantined base")
	}
}
