package checkpoint

import (
	"bytes"
	"errors"
	"math"
	"os"
	"path/filepath"
	"testing"

	"numarck/internal/core"
	"numarck/internal/faultfs"
)

// deadOwner is the lock identity crash tests give stores they are
// about to kill: the recorded PID is far beyond any real pid_max, so
// the LOCK file a simulated crash leaves behind reads as stale and a
// plain reopen takes it over — exactly what a real reboot would see.
var deadOwner = LockOwner{PID: 1 << 30, Alive: func(int) bool { return false }}

// copyDir clones the flat store directory (and quarantine/ if present)
// so each crash-matrix iteration starts from an identical pre-state.
// The LOCK file is deliberately not cloned: a pre-state is the disk
// image of a store nobody holds.
func copyDir(t *testing.T, src, dst string) {
	t.Helper()
	if err := os.MkdirAll(dst, 0o755); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, de := range entries {
		if de.IsDir() {
			copyDir(t, filepath.Join(src, de.Name()), filepath.Join(dst, de.Name()))
			continue
		}
		if de.Name() == lockName {
			continue
		}
		raw, err := os.ReadFile(filepath.Join(src, de.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, de.Name()), raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// writeDeltaAs encodes prev → cur with the store's options and commits
// it as a delta in the given file format through WriteRawDelta: 1 as
// marshalV1 bytes, the read-only layout older stores hold, 2 as
// MarshalDeltaV2 bytes at the given chunking, the layout every writer
// emits. Both end in the same commit, so the crash matrices see the
// same mutating ops on either axis.
func writeDeltaAs(st *Store, format, chunkPoints int, variable string, iteration int, prev, cur []float64) error {
	enc, err := core.Encode(prev, cur, st.Options())
	if err != nil {
		return err
	}
	var raw []byte
	if format == 1 {
		raw, err = marshalV1(variable, iteration, enc)
	} else {
		raw, err = MarshalDeltaV2(variable, iteration, enc, chunkPoints)
	}
	if err != nil {
		return err
	}
	return st.WriteRawDelta(variable, iteration, raw)
}

// seedStore builds the crash-matrix pre-state: full@0, delta@1, delta@2
// for one variable, plus the iteration data for later writes.
func seedStore(t *testing.T, dir string, format int) [][]float64 {
	t.Helper()
	series := genSeries(3000, 5, 99)
	st, err := Create(dir, opts())
	if err != nil {
		t.Fatal(err)
	}
	if err := st.WriteFull("dens", 0, series[0]); err != nil {
		t.Fatal(err)
	}
	prev := series[0]
	for i := 1; i <= 2; i++ {
		if err := writeDeltaAs(st, format, 512, "dens", i, prev, series[i]); err != nil {
			t.Fatal(err)
		}
		// Restart so the next delta encodes against the decoded values,
		// like the Writer does.
		var err error
		if prev, err = st.Restart("dens", i); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	return series
}

// bitsEqual compares two float slices exactly.
func bitsEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestCrashMatrixWrite is the systematic crash-consistency test: it
// counts the mutating filesystem operations one checkpoint write
// performs, then for every k kills the simulated process at operation k
// and reopens the store on the clean filesystem. The invariant at every
// crash point: the store opens, its recovery scan absorbs all damage,
// the chain verifies clean, the pre-existing data restarts
// byte-identically, and the interrupted checkpoint is either fully
// present or fully absent — never torn.
func TestCrashMatrixWrite(t *testing.T) {
	for _, format := range []int{1, 2} {
		base := t.TempDir()
		series := seedStore(t, base, format)

		// Baseline: the pre-state's restart values, and the op count of
		// the next write measured with a passthrough injector.
		stBase, err := Open(base)
		if err != nil {
			t.Fatal(err)
		}
		want2, err := stBase.Restart("dens", 2)
		if err != nil {
			t.Fatal(err)
		}
		if err := stBase.Close(); err != nil {
			t.Fatal(err)
		}
		probeDir := t.TempDir()
		copyDir(t, base, probeDir)
		probe := faultfs.NewInjector(faultfs.OS(), 1)
		stProbe, err := OpenFS(probeDir, probe, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := writeDeltaAs(stProbe, format, 512, "dens", 3, want2, series[3]); err != nil {
			t.Fatal(err)
		}
		want3, err := stProbe.Restart("dens", 3)
		if err != nil {
			t.Fatal(err)
		}
		m := probe.MutatingOps()
		if m < 5 {
			t.Fatalf("format %d: write path performed only %d mutating ops", format, m)
		}

		for k := 0; k < m; k++ {
			dir := t.TempDir()
			copyDir(t, base, dir)
			inj := faultfs.NewInjector(faultfs.OS(), int64(1000+k))
			// The crashing store records a dead owner so the post-crash
			// reopen sees a stale lock and takes it over, like a reboot.
			st, err := openFSOwner(dir, inj, nil, deadOwner)
			if err != nil {
				t.Fatalf("format %d k=%d: open pre-crash: %v", format, k, err)
			}
			inj.SetCrashAt(k)
			if err := writeDeltaAs(st, format, 512, "dens", 3, want2, series[3]); !errors.Is(err, faultfs.ErrCrashed) {
				t.Fatalf("format %d k=%d: write survived the crash point: %v", format, k, err)
			}

			// "Reboot": reopen on the clean filesystem.
			st2, err := Open(dir)
			if err != nil {
				t.Fatalf("format %d k=%d: reopen after crash: %v", format, k, err)
			}
			issues, err := st2.Verify()
			if err != nil {
				t.Fatalf("format %d k=%d: verify: %v", format, k, err)
			}
			if len(issues) > 0 {
				t.Fatalf("format %d k=%d: chain not clean after recovery: %v (report %s)",
					format, k, issues, st2.Recovery())
			}
			got2, err := st2.Restart("dens", 2)
			if err != nil {
				t.Fatalf("format %d k=%d: pre-existing chain broken: %v", format, k, err)
			}
			if !bitsEqual(got2, want2) {
				t.Fatalf("format %d k=%d: pre-existing data changed", format, k)
			}
			// Complete-or-absent for the interrupted checkpoint.
			entries, err := st2.List("dens")
			if err != nil {
				t.Fatal(err)
			}
			has3 := false
			for _, e := range entries {
				if e.Kind == "delta" && e.Iteration == 3 {
					has3 = true
				}
			}
			if has3 {
				got3, err := st2.Restart("dens", 3)
				if err != nil {
					t.Fatalf("format %d k=%d: delta@3 present but unreadable: %v", format, k, err)
				}
				if !bitsEqual(got3, want3) {
					t.Fatalf("format %d k=%d: delta@3 present but wrong", format, k)
				}
			}
		}
	}
}

// TestCrashMatrixAppend is the crash matrix of a commit group: a
// 3-variable Writer.Append is killed at every mutating op k of its one
// group commit — inside any of the three file writes, between renames,
// before the directory sync, mid journal append, during the index
// republish. After a reboot the store must open and verify clean, the
// earlier iterations restart bit-identically, each variable's
// iteration-i file is on disk byte-identical to the fault-free run's or
// not at all (and in the chain exactly when on disk), LatestConsistent
// is i-1 or i (i only if all three survived), and a Writer resumed
// there converges to the fault-free run's files. The iteration is a
// group of deltas, then of fulls.
func TestCrashMatrixAppend(t *testing.T) {
	const i, last = 3, 4
	names := []string{"dens", "pres", "temp"}
	series := map[string][][]float64{}
	for j, v := range names {
		series[v] = genSeries(600, last+1, int64(61+j))
	}
	vars := func(it int) map[string][]float64 {
		m := map[string][]float64{}
		for v, s := range series {
			m[v] = s[it]
		}
		return m
	}
	for _, fullEvery := range []int{0, i} {
		appendRange := func(w *Writer, from, to int) {
			t.Helper()
			for it := from; it <= to; it++ {
				if _, err := w.Append(it, vars(it)); err != nil {
					t.Fatalf("fullEvery %d: append %d: %v", fullEvery, it, err)
				}
			}
		}
		resume := func(st *Store, at int) *Writer {
			t.Helper()
			state := map[string][]float64{}
			for _, v := range names {
				var err error
				if state[v], err = st.Restart(v, at); err != nil {
					t.Fatalf("fullEvery %d: restart %s@%d: %v", fullEvery, v, at, err)
				}
			}
			return NewWriterAt(st, fullEvery, at, state)
		}

		// The fault-free run, and the pre-state: iterations before i.
		cleanDir := t.TempDir()
		clean, err := Create(cleanDir, opts())
		if err != nil {
			t.Fatal(err)
		}
		appendRange(NewWriter(clean, fullEvery), 0, last)
		want := checkpointFiles(t, cleanDir)
		wantState := map[string][][]float64{}
		for _, v := range names {
			for it := 0; it <= i; it++ {
				x, err := clean.Restart(v, it)
				if err != nil {
					t.Fatal(err)
				}
				wantState[v] = append(wantState[v], x)
			}
		}
		if err := clean.Close(); err != nil {
			t.Fatal(err)
		}
		base := t.TempDir()
		pre, err := Create(base, opts())
		if err != nil {
			t.Fatal(err)
		}
		appendRange(NewWriter(pre, fullEvery), 0, i-1)
		if err := pre.Close(); err != nil {
			t.Fatal(err)
		}
		kind := "delta"
		if fullEvery == i {
			kind = "full"
		}

		probeDir := t.TempDir()
		copyDir(t, base, probeDir)
		probe := faultfs.NewInjector(faultfs.OS(), 1)
		stProbe, err := OpenFS(probeDir, probe, nil)
		if err != nil {
			t.Fatal(err)
		}
		w := resume(stProbe, i-1)
		opened := probe.MutatingOps()
		appendRange(w, i, i)
		m := probe.MutatingOps() - opened
		if err := stProbe.Close(); err != nil {
			t.Fatal(err)
		}
		if m < 4*len(names)+4 {
			t.Fatalf("fullEvery %d: a %d-variable Append performed only %d mutating ops", fullEvery, len(names), m)
		}

		whole := 0 // crash points after which all of iteration i survived
		for k := 0; k < m; k++ {
			dir := t.TempDir()
			copyDir(t, base, dir)
			inj := faultfs.NewInjector(faultfs.OS(), int64(3000+k))
			st, err := openFSOwner(dir, inj, nil, deadOwner)
			if err != nil {
				t.Fatalf("fullEvery %d k=%d: open pre-crash: %v", fullEvery, k, err)
			}
			w := resume(st, i-1)
			inj.SetCrashAt(inj.MutatingOps() + k)
			if _, err := w.Append(i, vars(i)); !errors.Is(err, faultfs.ErrCrashed) {
				t.Fatalf("fullEvery %d k=%d: append survived the crash point: %v", fullEvery, k, err)
			}

			// "Reboot": reopen on the clean filesystem.
			st2, err := Open(dir)
			if err != nil {
				t.Fatalf("fullEvery %d k=%d: reopen after crash: %v", fullEvery, k, err)
			}
			if issues, err := st2.Verify(); err != nil || len(issues) > 0 {
				t.Fatalf("fullEvery %d k=%d: store not clean after recovery: %v %v (report %s)",
					fullEvery, k, issues, err, st2.Recovery())
			}
			// A file at a checkpoint name is never torn and a journal
			// record never precedes its file: the scan had temps to
			// remove and files to adopt, nothing to quarantine or drop.
			if rep := st2.Recovery(); len(rep.Quarantined) > 0 || len(rep.Missing) > 0 {
				t.Fatalf("fullEvery %d k=%d: the crash left torn files %v, records without files %v",
					fullEvery, k, rep.Quarantined, rep.Missing)
			}
			onDisk := checkpointFiles(t, dir)
			survived := 0
			for _, v := range names {
				for it := 0; it < i; it++ {
					got, err := st2.Restart(v, it)
					if err != nil || !bitsEqual(got, wantState[v][it]) {
						t.Fatalf("fullEvery %d k=%d: %s@%d changed across the crash: %v", fullEvery, k, v, it, err)
					}
				}
				name := fileName(v, kind, i)
				raw, present := onDisk[name]
				if present && !bytes.Equal(raw, want[name]) {
					t.Fatalf("fullEvery %d k=%d: %s on disk but not the fault-free bytes", fullEvery, k, name)
				}
				if _, inChain := st2.Committed(v, i); inChain != present {
					t.Fatalf("fullEvery %d k=%d: %s on disk %v, in the chain %v", fullEvery, k, name, present, inChain)
				}
				if present {
					survived++
					got, err := st2.Restart(v, i)
					if err != nil || !bitsEqual(got, wantState[v][i]) {
						t.Fatalf("fullEvery %d k=%d: %s@%d present but restarts wrong: %v", fullEvery, k, v, i, err)
					}
				}
			}
			lc, err := st2.LatestConsistent()
			if err != nil || (lc == i) != (survived == len(names)) || (lc != i && lc != i-1) {
				t.Fatalf("fullEvery %d k=%d: LatestConsistent = %d, %v with %d of %d files of iteration %d",
					fullEvery, k, lc, err, survived, len(names), i)
			}
			if lc == i {
				whole++
			}

			appendRange(resume(st2, lc), lc+1, last)
			got := checkpointFiles(t, dir)
			if len(got) != len(want) {
				t.Fatalf("fullEvery %d k=%d: %d files after the resume, fault-free %d", fullEvery, k, len(got), len(want))
			}
			for name, raw := range want {
				if !bytes.Equal(got[name], raw) {
					t.Fatalf("fullEvery %d k=%d: %s differs from the fault-free run's after the resume", fullEvery, k, name)
				}
			}
			if issues, err := st2.Verify(); err != nil || len(issues) > 0 {
				t.Fatalf("fullEvery %d k=%d: verify after the resume: %v %v", fullEvery, k, issues, err)
			}
			if err := st2.Close(); err != nil {
				t.Fatal(err)
			}
		}
		t.Logf("fullEvery %d: %d crash points, iteration %d whole after %d of them", fullEvery, m, i, whole)
	}
}

// TestCrashMatrixCreate kills store creation at every mutating op and
// checks a reopen attempt never sees a half-initialized store: either
// ErrNotFound (no manifest committed) or a fully working store.
func TestCrashMatrixCreate(t *testing.T) {
	probe := faultfs.NewInjector(faultfs.OS(), 1)
	if _, err := CreateFS(t.TempDir(), opts(), probe); err != nil {
		t.Fatal(err)
	}
	m := probe.MutatingOps()
	for k := 0; k < m; k++ {
		dir := t.TempDir()
		inj := faultfs.NewInjector(faultfs.OS(), int64(k))
		inj.SetCrashAt(k)
		if _, err := createFSOwner(dir, opts(), inj, deadOwner); !errors.Is(err, faultfs.ErrCrashed) {
			t.Fatalf("k=%d: create survived crash: %v", k, err)
		}
		st, err := Open(dir)
		switch {
		case errors.Is(err, ErrNotFound):
			// Manifest never committed: the clean pre-state.
		case err == nil:
			// Manifest committed: the store must be fully usable.
			if err := st.WriteFull("dens", 0, genSeries(100, 1, 1)[0]); err != nil {
				t.Fatalf("k=%d: adopted store cannot write: %v", k, err)
			}
			if _, err := st.Restart("dens", 0); err != nil {
				t.Fatalf("k=%d: adopted store cannot restart: %v", k, err)
			}
		default:
			t.Fatalf("k=%d: reopen after create crash: %v", k, err)
		}
	}
}

// TestCrashMatrixOpen kills a writer Open at every mutating operation
// it performs — breaking the previous holder's stale lock, claiming the
// new one, and republishing a damaged CHAININDEX — and checks a
// subsequent reopen always recovers: takes the lock over, rebuilds the
// index, and serves the seeded chain byte-identically.
func TestCrashMatrixOpen(t *testing.T) {
	base := t.TempDir()
	seedStore(t, base, 2)
	// The pre-state a reboot might find: a stale LOCK from the dead
	// previous writer, and an index torn by the crash that killed it.
	if err := os.WriteFile(filepath.Join(base, lockName),
		marshalLock(lockInfo{PID: 1 << 30, Nonce: 42}), 0o644); err != nil {
		t.Fatal(err)
	}
	ixPath := filepath.Join(base, indexName)
	raw, err := os.ReadFile(ixPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(ixPath, raw[:len(raw)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	stWant, err := openFSOwner(base, faultfs.OS(), nil, deadOwner)
	if err != nil {
		t.Fatal(err)
	}
	want2, err := stWant.Restart("dens", 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := stWant.Close(); err != nil {
		t.Fatal(err)
	}
	// Rebuild the damaged pre-state (the probe store above repaired it).
	preDir := t.TempDir()
	copyDir(t, base, preDir)
	plant := func(dir string) {
		t.Helper()
		if err := os.WriteFile(filepath.Join(dir, lockName),
			marshalLock(lockInfo{PID: 1 << 30, Nonce: 42}), 0o644); err != nil {
			t.Fatal(err)
		}
		ix, err := os.ReadFile(filepath.Join(dir, indexName))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, indexName), ix[:len(ix)/2], 0o644); err != nil {
			t.Fatal(err)
		}
	}
	plant(preDir)

	probe := faultfs.NewInjector(faultfs.OS(), 1)
	probeDir := t.TempDir()
	copyDir(t, preDir, probeDir)
	plant(probeDir)
	stProbe, err := openFSOwner(probeDir, probe, nil, deadOwner)
	if err != nil {
		t.Fatal(err)
	}
	m := probe.MutatingOps() // before Close: its lock release is not part of Open
	if err := stProbe.Close(); err != nil {
		t.Fatal(err)
	}
	if m < 5 {
		t.Fatalf("open over stale lock + torn index performed only %d mutating ops", m)
	}

	for k := 0; k < m; k++ {
		dir := t.TempDir()
		copyDir(t, preDir, dir)
		plant(dir)
		inj := faultfs.NewInjector(faultfs.OS(), int64(2000+k))
		inj.SetCrashAt(k)
		if _, err := openFSOwner(dir, inj, nil, deadOwner); !errors.Is(err, faultfs.ErrCrashed) {
			t.Fatalf("k=%d: open survived the crash point: %v", k, err)
		}
		// "Reboot": a plain reopen must take over whatever lock state the
		// crash left (absent, torn, or complete-but-dead) and serve the
		// seeded chain exactly.
		st, err := Open(dir)
		if err != nil {
			t.Fatalf("k=%d: reopen after crashed open: %v", k, err)
		}
		issues, err := st.Verify()
		if err != nil {
			t.Fatalf("k=%d: verify: %v", k, err)
		}
		if len(issues) > 0 {
			t.Fatalf("k=%d: store not clean after recovery: %v", k, issues)
		}
		if h := st.IndexHealth(); !h.Present || !h.Fresh {
			t.Fatalf("k=%d: index not restored: %s", k, h)
		}
		got2, err := st.Restart("dens", 2)
		if err != nil {
			t.Fatalf("k=%d: restart: %v", k, err)
		}
		if !bitsEqual(got2, want2) {
			t.Fatalf("k=%d: seeded data changed across the crash", k)
		}
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestRecoveryScanTornFile plants a truncated (torn) checkpoint file
// with no journal record — the signature of a torn rename-less write
// from a legacy store — and checks Open quarantines it instead of
// failing, leaving the rest of the chain restorable.
func TestRecoveryScanTornFile(t *testing.T) {
	dir := t.TempDir()
	seedStore(t, dir, 2)
	// Truncate delta@2 behind the journal's back and corrupt its record
	// by rewriting the file shorter.
	path := filepath.Join(dir, fileName("dens", "delta", 2))
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, raw[:len(raw)/3], 0o644); err != nil {
		t.Fatal(err)
	}
	st, err := Open(dir)
	if err != nil {
		t.Fatalf("open with torn file: %v", err)
	}
	rep := st.Recovery()
	if len(rep.Quarantined) != 1 || rep.Quarantined[0] != fileName("dens", "delta", 2) {
		t.Fatalf("quarantined = %v, want the torn delta", rep.Quarantined)
	}
	if rep.Clean() {
		t.Fatal("report should not be clean")
	}
	q, err := st.Quarantined()
	if err != nil || len(q) != 1 {
		t.Fatalf("Quarantined() = %v, %v", q, err)
	}
	// The chain up to the last good file still restarts.
	if _, err := st.Restart("dens", 1); err != nil {
		t.Fatalf("restart pre-torn iteration: %v", err)
	}
	// And the torn iteration is now an honest chain error, not a parse
	// explosion.
	if _, err := st.Restart("dens", 2); !errors.Is(err, ErrChain) && !errors.Is(err, ErrNotFound) {
		t.Fatalf("restart at torn iteration = %v", err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	// A second open is clean: the damage was already absorbed.
	st2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !st2.Recovery().Clean() {
		t.Fatalf("second open not clean: %s", st2.Recovery())
	}
}

// TestRecoveryScanAdoptsLegacyStore deletes the MANIFEST from a healthy
// store — the layout of stores written before the journal existed — and
// checks Open adopts every file and rebuilds the journal.
func TestRecoveryScanAdoptsLegacyStore(t *testing.T) {
	dir := t.TempDir()
	seedStore(t, dir, 1)
	if err := os.Remove(filepath.Join(dir, "MANIFEST")); err != nil {
		t.Fatal(err)
	}
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(st.Recovery().Adopted); got != 3 {
		t.Fatalf("adopted %d files, want 3 (%s)", got, st.Recovery())
	}
	if _, err := st.Restart("dens", 2); err != nil {
		t.Fatalf("legacy store restart: %v", err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	st2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !st2.Recovery().Clean() {
		t.Fatalf("journal rebuild did not stick: %s", st2.Recovery())
	}
}

// TestRecoveryScanUnterminatedJournalTail plants the torn append whose
// prefix ends exactly before a record's newline: the record parses,
// but the next append would run into it and make a record in the
// middle of the journal unparsable, so the store would open once and
// never again. The scan must report the torn tail and compact the
// journal, keeping the record, so every later open is clean.
func TestRecoveryScanUnterminatedJournalTail(t *testing.T) {
	dir := t.TempDir()
	series := seedStore(t, dir, 2)
	path := filepath.Join(dir, journalName)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, raw[:len(raw)-1], 0o644); err != nil {
		t.Fatal(err)
	}
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if rep := st.Recovery(); !rep.TornJournalTail || len(rep.Adopted) != 0 {
		t.Errorf("report %s: want the torn tail, its record kept", rep)
	}
	if err := st.WriteFull("dens", 3, series[3]); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	st2, err := Open(dir)
	if err != nil {
		t.Fatalf("reopen after appending to the repaired journal: %v", err)
	}
	defer st2.Close()
	if !st2.Recovery().Clean() {
		t.Errorf("second open not clean: %s", st2.Recovery())
	}
	if issues, err := st2.Verify(); err != nil || len(issues) > 0 {
		t.Errorf("verify: %v %v", issues, err)
	}
	if _, err := st2.Restart("dens", 3); err != nil {
		t.Error(err)
	}
}
