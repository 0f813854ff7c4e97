package checkpoint

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"

	"numarck/internal/core"
	"numarck/internal/faultfs"
)

// checkpointFiles returns the store's checkpoint files by name.
func checkpointFiles(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	files := map[string][]byte{}
	for _, de := range entries {
		if !strings.HasSuffix(de.Name(), ".nmk") {
			continue
		}
		if files[de.Name()], err = os.ReadFile(filepath.Join(dir, de.Name())); err != nil {
			t.Fatal(err)
		}
	}
	return files
}

// TestWriterAppendRetry pins that Append is all-or-nothing for the
// Writer: an Append that fails on its second variable — the injected
// rename error of the second delta commit — and is retried must leave
// exactly the files a fault-free run leaves. A Writer that moves a
// variable's reference (or chain depth) as soon as that variable is
// committed re-encodes it on the retry against iteration i itself and
// silently replaces its good delta with a zero-change one, tens of
// bounds away from the truth.
func TestWriterAppendRetry(t *testing.T) {
	series := map[string][][]float64{"a": genSeries(600, 6, 41), "b": genSeries(600, 6, 42), "c": genSeries(600, 6, 43)}
	// Full whenever a delta is already on the chain: the retry decides
	// differently if a failed Append advanced the depth.
	alternate := func(depth int, _ *core.Encoded) bool { return depth >= 1 }
	for name, schedule := range map[string]Schedule{"fixed": nil, "scheduled": alternate} {
		t.Run(name, func(t *testing.T) {
			run := func(dir string, fault *faultfs.Fault) *Store {
				in := faultfs.NewInjector(faultfs.OS(), 1)
				if fault != nil {
					in.AddFault(*fault)
				}
				st, err := CreateFS(dir, opts(), in)
				if err != nil {
					t.Fatal(err)
				}
				w := NewWriter(st, 0)
				if schedule != nil {
					w = Scheduled(w, schedule)
				}
				failed := 0
				for i := 0; i < 6; i++ {
					vars := map[string][]float64{}
					for v, s := range series {
						vars[v] = s[i]
					}
					_, err := w.Append(i, vars)
					if errors.Is(err, faultfs.ErrInjected) {
						failed++
						_, err = w.Append(i, vars)
					}
					if err != nil {
						t.Fatalf("append %d: %v", i, err)
					}
				}
				if (failed == 1) != (fault != nil) {
					t.Fatalf("%d appends failed with fault %v", failed, fault)
				}
				return st
			}
			clean := run(filepath.Join(t.TempDir(), "clean"), nil)
			defer clean.Close()
			faulty := run(filepath.Join(t.TempDir(), "faulty"), &faultfs.Fault{Op: faultfs.OpRename, Path: ".delta.", Nth: 2})
			defer faulty.Close()

			want, got := checkpointFiles(t, clean.Dir()), checkpointFiles(t, faulty.Dir())
			if len(want) != 18 || len(got) != len(want) {
				t.Fatalf("%d files after the retry, %d fault-free, want 18", len(got), len(want))
			}
			for name, raw := range want {
				if !bytes.Equal(got[name], raw) {
					t.Errorf("%s differs from the fault-free run's", name)
				}
			}
			if issues, err := faulty.Verify(); err != nil || len(issues) != 0 {
				t.Errorf("verify after the retry: %v %v", issues, err)
			}
		})
	}
}

// TestAppendIsOneCommitGroup pins what an Append of N variables costs
// the filesystem: one group commit, so N+2 file syncs (each data file,
// the journal, the index), 2 directory syncs (after the data renames
// and after the index's) and N+1 renames — whether the iteration is
// written in full or as deltas.
func TestAppendIsOneCommitGroup(t *testing.T) {
	for _, n := range []int{1, 3} {
		in := faultfs.NewInjector(faultfs.OS(), 1)
		st, err := CreateFS(filepath.Join(t.TempDir(), "ck"), opts(), in)
		if err != nil {
			t.Fatal(err)
		}
		series := make([][][]float64, n)
		for v := range series {
			series[v] = genSeries(300, 2, int64(70+v))
		}
		w := NewWriter(st, 0)
		for i, kind := range []string{"full", "delta"} {
			vars := map[string][]float64{}
			for v := range series {
				vars[fmt.Sprintf("v%d", v)] = series[v][i]
			}
			before := len(in.Trace())
			if _, err := w.Append(i, vars); err != nil {
				t.Fatal(err)
			}
			counts := map[string]int{}
			for _, line := range in.Trace()[before:] {
				op, _, _ := strings.Cut(line, " ")
				counts[op]++
			}
			if counts["sync"] != n+2 || counts["syncdir"] != 2 || counts["rename"] != n+1 {
				t.Errorf("%d %s files: %d file syncs, %d dir syncs, %d renames; want %d, 2, %d",
					n, kind, counts["sync"], counts["syncdir"], counts["rename"], n+2, n+1)
			}
		}
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestAppendOrderIsDeterministic pins that an Append commits its
// variables in sorted name order, not map order: two fresh stores fed
// the same Appends end with byte-identical journals.
func TestAppendOrderIsDeterministic(t *testing.T) {
	series := map[string][][]float64{}
	for j, v := range []string{"velx", "dens", "temp", "pres", "eint", "vely"} {
		series[v] = genSeries(200, 4, int64(80+j))
	}
	var journals [2][]byte
	for r := range journals {
		st, err := Create(filepath.Join(t.TempDir(), "ck"), opts())
		if err != nil {
			t.Fatal(err)
		}
		w := NewWriter(st, 3)
		for i := 0; i < 4; i++ {
			vars := map[string][]float64{}
			for v, s := range series {
				vars[v] = s[i]
			}
			if _, err := w.Append(i, vars); err != nil {
				t.Fatal(err)
			}
		}
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
		if journals[r], err = os.ReadFile(filepath.Join(st.Dir(), journalName)); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(journals[0], journals[1]) {
		t.Errorf("the same Appends wrote different journals:\n%s\n%s", journals[0], journals[1])
	}
}

// TestResumeAfterHalfCommittedIteration pins crash recovery at the
// store: an Append that dies between its two variables' commits leaves
// iteration k restorable for one variable only, LatestConsistent steps
// back to k-1, and a Writer resumed there from Restart continues the
// chain as if nothing had happened — every file byte-identical to a
// fault-free run's, the store verifying clean, every restart within
// E·|x̂_{i-1}|. Under a chain cap the resumed Writer counts the deltas
// written before the crash, so the cap's full lands on the same
// iteration as in the fault-free run.
func TestResumeAfterHalfCommittedIteration(t *testing.T) {
	const k, last = 6, 9
	series := map[string][][]float64{"a": genSeries(500, last+1, 51), "b": genSeries(500, last+1, 52)}
	capAt8 := func(depth int, _ *core.Encoded) bool { return depth >= 8 }
	for _, tc := range []struct {
		name      string
		fullEvery int
		schedule  Schedule
		fulls     []int
	}{
		{"fixed", 4, nil, []int{0, 4, 8}},
		{"scheduled", 0, capAt8, []int{0, 9}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			newWriter := func(w *Writer) *Writer {
				if tc.schedule != nil {
					return Scheduled(w, tc.schedule)
				}
				return w
			}
			appendIter := func(w *Writer, i int) error {
				vars := map[string][]float64{}
				for v, s := range series {
					vars[v] = s[i]
				}
				_, err := w.Append(i, vars)
				return err
			}
			appendRange := func(w *Writer, from, to int) {
				for i := from; i <= to; i++ {
					if err := appendIter(w, i); err != nil {
						t.Fatalf("append %d: %v", i, err)
					}
				}
			}

			clean, err := Create(filepath.Join(t.TempDir(), "clean"), opts())
			if err != nil {
				t.Fatal(err)
			}
			defer clean.Close()
			appendRange(newWriter(NewWriter(clean, tc.fullEvery)), 0, last)

			dir := filepath.Join(t.TempDir(), "crashed")
			in := faultfs.NewInjector(faultfs.OS(), 1)
			in.AddFault(faultfs.Fault{Op: faultfs.OpRename, Path: fmt.Sprintf(".delta.%06d.", k), Nth: 2})
			st, err := CreateFS(dir, opts(), in)
			if err != nil {
				t.Fatal(err)
			}
			w := newWriter(NewWriter(st, tc.fullEvery))
			appendRange(w, 0, k-1)
			if err := appendIter(w, k); !errors.Is(err, faultfs.ErrInjected) {
				t.Fatalf("append %d: %v, want the injected fault", k, err)
			}
			if err := st.Close(); err != nil {
				t.Fatal(err)
			}

			if st, err = Open(dir); err != nil {
				t.Fatal(err)
			}
			defer st.Close()
			resume, err := st.LatestConsistent()
			if err != nil || resume != k-1 {
				t.Fatalf("LatestConsistent = %d, %v; want %d", resume, err, k-1)
			}
			state := map[string][]float64{}
			for v := range series {
				if state[v], err = st.Restart(v, resume); err != nil {
					t.Fatal(err)
				}
			}
			appendRange(newWriter(NewWriterAt(st, tc.fullEvery, resume, state)), k, last)

			want, got := checkpointFiles(t, clean.Dir()), checkpointFiles(t, dir)
			if len(want) != 2*(last+1) || len(got) != len(want) {
				t.Fatalf("%d files after the resume, %d fault-free, want %d", len(got), len(want), 2*(last+1))
			}
			for name, raw := range want {
				if !bytes.Equal(got[name], raw) {
					t.Errorf("%s differs from the fault-free run's", name)
				}
			}
			if issues, err := st.Verify(); err != nil || len(issues) != 0 {
				t.Errorf("verify after the resume: %v %v", issues, err)
			}
			for v, truth := range series {
				entries, err := st.List(v)
				if err != nil {
					t.Fatal(err)
				}
				var prev []float64
				for i, e := range entries {
					full := slices.Contains(tc.fulls, i)
					if e.Iteration != i || (e.Kind == "full") != full {
						t.Fatalf("%s: entry %d is %s@%d, want full = %v", v, i, e.Kind, e.Iteration, full)
					}
					rec, err := st.Restart(v, i)
					if err != nil {
						t.Fatal(err)
					}
					for j := range rec {
						bound := 0.0
						if !full {
							bound = opts().ErrorBound * math.Abs(prev[j]) * (1 + 1e-9)
						}
						if d := math.Abs(rec[j] - truth[i][j]); d > bound {
							t.Fatalf("%s@%d point %d: error %g exceeds E·|x̂_{i-1}| = %g", v, i, j, d, bound)
						}
					}
					prev = rec
				}
			}
		})
	}
}

// TestLatestConsistentErrors: an empty store has no iteration to resume
// at, and a variable without a full checkpoint cannot be restored at
// all, so it fails the call by name instead of setting the minimum.
func TestLatestConsistentErrors(t *testing.T) {
	st, err := Create(filepath.Join(t.TempDir(), "ck"), opts())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if _, err := st.LatestConsistent(); !errors.Is(err, ErrNotFound) {
		t.Errorf("empty store: %v, want ErrNotFound", err)
	}
	series := genSeries(100, 2, 53)
	if err := st.WriteFull("a", 0, series[0]); err != nil {
		t.Fatal(err)
	}
	if got, err := st.LatestConsistent(); err != nil || got != 0 {
		t.Errorf("one full: %d, %v; want 0", got, err)
	}
	if err := writeDelta(st, "orphan", 1, series[0], series[1]); err != nil {
		t.Fatal(err)
	}
	if _, err := st.LatestConsistent(); err == nil || !strings.Contains(err.Error(), "orphan") {
		t.Errorf("variable without a full: %v, want an error naming it", err)
	}
}

// TestWriterReferenceIsRestart pins the closed loop at its source: after
// every Append the Writer's reference for a variable is, bit for bit,
// what Restart returns for the iteration just written, and its depth is
// the number of deltas that restart replays — across periodic fulls and
// across a resume, which re-derives both from the store.
func TestWriterReferenceIsRestart(t *testing.T) {
	st, err := Create(filepath.Join(t.TempDir(), "ck"), opts())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	series := genSeries(1000, 12, 44)
	w := NewWriter(st, 5)
	for i, x := range series {
		if i == 8 {
			got, err := st.Restart("v", 7)
			if err != nil {
				t.Fatal(err)
			}
			w = NewWriterAt(st, 5, 7, map[string][]float64{"v": got})
		}
		if _, err := w.Append(i, map[string][]float64{"v": x}); err != nil {
			t.Fatal(err)
		}
		got, err := st.Restart("v", i)
		if err != nil {
			t.Fatal(err)
		}
		for j := range got {
			if math.Float64bits(got[j]) != math.Float64bits(w.last["v"][j]) {
				t.Fatalf("iteration %d point %d: reference %v, restart %v", i, j, w.last["v"][j], got[j])
			}
		}
		if w.depth["v"] != i%5 {
			t.Errorf("iteration %d: depth %d, want %d", i, w.depth["v"], i%5)
		}
	}
}

// TestWriterRefusesNonFiniteTable pins that no writer commits a table
// a reader refuses: a delta whose bin table holds +Inf reaches the
// Writer's delta step (Store.WriteEncodedDelta, what Append commits) and
// is refused before a byte of it is committed — not as the caller's
// fault, and not as corruption — so that a finite iteration 1 follows
// and restarts. Finite input no longer makes such a table
// (TestWriterCommitsOverflowingRange); the table is doctored here.
func TestWriterRefusesNonFiniteTable(t *testing.T) {
	const n = 40000
	st, err := Create(filepath.Join(t.TempDir(), "ck"), core.Options{ErrorBound: 0.001, IndexBits: 8, Strategy: core.EqualWidth})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	prev, finite := make([]float64, n), make([]float64, n)
	for j := range prev {
		prev[j], finite[j] = 1, 1+0.0005*float64(j%7)
	}
	w := NewWriter(st, 0)
	if _, err := w.Append(0, map[string][]float64{"v": prev}); err != nil {
		t.Fatal(err)
	}
	enc, err := core.Encode(prev, finite, st.opt)
	if err != nil {
		t.Fatal(err)
	}
	enc.BinRatios[0] = math.Inf(1)
	err = st.WriteEncodedDelta("v", 1, enc)
	if err == nil {
		t.Fatal("the Writer's delta step committed a non-finite bin table")
	}
	if errors.Is(err, ErrBadVariable) || errors.Is(err, ErrCorrupt) {
		t.Errorf("refusal = %v: neither the caller's fault nor corruption", err)
	}
	if entries, _ := st.List("v"); len(entries) != 1 {
		t.Fatalf("after the refusal the chain is %v, want full@0 alone", entries)
	}
	if _, err := w.Append(1, map[string][]float64{"v": finite}); err != nil {
		t.Fatalf("finite iteration 1 after the refusal: %v", err)
	}
	if _, err := st.Restart("v", 1); err != nil {
		t.Fatalf("restart of iteration 1: %v", err)
	}
	if issues, err := st.Verify(); err != nil || len(issues) != 0 {
		t.Fatalf("Verify = %v, %v; want clean", issues, err)
	}
}

// TestWriterCommitsOverflowingRange is a finite input whose ratio range
// overflows: prev 1 everywhere, cur alternating ±1e308 with every third
// point 1.5. Every strategy learns a finite table from it, so
// Writer.Append commits the iteration, and it restarts within E·|prev|
// of what was appended.
func TestWriterCommitsOverflowingRange(t *testing.T) {
	const n = 40000
	prev, overflow := make([]float64, n), make([]float64, n)
	for j := range prev {
		prev[j] = 1
		switch {
		case j%3 == 0:
			overflow[j] = 1.5
		case j%2 == 0:
			overflow[j] = 1e308
		default:
			overflow[j] = -1e308
		}
	}
	for _, s := range []core.Strategy{core.EqualWidth, core.LogScale, core.Clustering, core.EqualFrequency} {
		opt := core.Options{ErrorBound: 0.001, IndexBits: 8, Strategy: s}
		st, err := Create(filepath.Join(t.TempDir(), "ck"), opt)
		if err != nil {
			t.Fatal(err)
		}
		w := NewWriter(st, 0)
		if _, err := w.Append(0, map[string][]float64{"v": prev}); err != nil {
			t.Fatal(err)
		}
		if _, err := w.Append(1, map[string][]float64{"v": overflow}); err != nil {
			t.Fatalf("%v: Append of the overflowing range: %v", s, err)
		}
		got, err := st.Restart("v", 1)
		if err != nil {
			t.Fatalf("%v: restart of iteration 1: %v", s, err)
		}
		for j := range got {
			if !(math.Abs(got[j]-overflow[j]) <= opt.ErrorBound*math.Abs(prev[j])) {
				t.Fatalf("%v: point %d restarts to %v, appended %v", s, j, got[j], overflow[j])
			}
		}
		if issues, err := st.Verify(); err != nil || len(issues) != 0 {
			t.Fatalf("%v: Verify = %v, %v; want clean", s, issues, err)
		}
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestWriterAppendAllocs pins what the closed loop costs: the reference
// is updated in place, so once it exists an Append allocates what its
// two steps — core.Encode and Store.WriteEncodedDelta — allocate plus a
// map and a bin-sized multiplier table, whatever N is.
func TestWriterAppendAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool, and so encoding/json's allocations, random")
	}
	for _, n := range []int{1 << 10, 1 << 16} {
		st, err := Create(filepath.Join(t.TempDir(), "ck"), opts())
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		const warm = 2
		series := genSeries(n, warm+2*6, 45)
		w := NewWriter(st, 0)
		next := 0
		appendOne := func() {
			if _, err := w.Append(next, map[string][]float64{"v": series[next]}); err != nil {
				t.Fatal(err)
			}
			next++
		}
		steps := func() {
			enc, err := core.Encode(series[next-1], series[next], st.opt)
			if err != nil {
				t.Fatal(err)
			}
			if err := st.WriteEncodedDelta("w", next, enc); err != nil {
				t.Fatal(err)
			}
			next++
		}
		for next < warm {
			appendOne()
		}
		measure := func(op func()) (allocs float64, perOp uint64) {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			allocs = testing.AllocsPerRun(4, op) // runs op five times
			runtime.ReadMemStats(&after)
			return allocs, (after.TotalAlloc - before.TotalAlloc) / 5
		}
		appendAllocs, appendBytes := measure(appendOne)
		next = warm
		stepAllocs, stepBytes := measure(steps)
		t.Logf("n=%d: Append %.0f allocations, %d bytes; its steps %.0f, %d", n, appendAllocs, appendBytes, stepAllocs, stepBytes)
		if extra := appendAllocs - stepAllocs; extra > 8 {
			t.Errorf("n=%d: Append makes %.0f allocations, its steps %.0f: %.0f more, want <= 8", n, appendAllocs, stepAllocs, extra)
		}
		// Well under one more array of N float64.
		if extra := int64(appendBytes) - int64(stepBytes); extra > int64(4*n)+8<<10 {
			t.Errorf("n=%d: Append allocates %d bytes, its steps %d: %d more, want <= %d", n, appendBytes, stepBytes, extra, 4*n+8<<10)
		}
	}
}
