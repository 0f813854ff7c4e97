package checkpoint

import (
	"bytes"
	"errors"
	"math"
	"os"
	"path/filepath"
	"runtime"
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
