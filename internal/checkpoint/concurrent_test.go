package checkpoint

import (
	"fmt"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"numarck/internal/faultfs"
	"numarck/internal/obs"
)

// TestConcurrentReadersNeverBlockWriter is the -race stress test of the
// concurrency model: one writer goroutine committing checkpoints while
// N reader goroutines hammer a shared ReadView with List, Stats,
// LatestRestorable, and Restart. Every reader must always observe one
// consistent published chain — an unbroken prefix full@0..delta@k with
// a nondecreasing k — and never an error, a torn view, or a stall.
func TestConcurrentReadersNeverBlockWriter(t *testing.T) {
	const (
		iters   = 24
		readers = 4
		points  = 400
	)
	dir := filepath.Join(t.TempDir(), "ck")
	series := genSeries(points, iters+1, 77)
	st, err := Create(dir, opts())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	w := NewWriter(st, 0)
	if _, err := w.Append(0, map[string][]float64{"dens": series[0]}); err != nil {
		t.Fatal(err)
	}

	rv, err := OpenReadOnly(dir)
	if err != nil {
		t.Fatal(err)
	}

	done := make(chan struct{})
	errc := make(chan error, readers+1)
	fail := func(format string, args ...any) {
		select {
		case errc <- fmt.Errorf(format, args...):
		default:
		}
	}

	// restarts[r] holds, per iteration, the first Restart reader r saw;
	// every later one must match it bit for bit, and after the writer
	// finishes it must match a serial Restart of the same iteration.
	restarts := make([]map[int][]float64, readers)
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		restarts[r] = map[int][]float64{}
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			lastSeen := 0
			for i := 0; ; i++ {
				select {
				case <-done:
					return
				default:
				}
				entries, err := rv.List("dens")
				if err != nil {
					fail("reader %d: List: %v", r, err)
					return
				}
				for j, e := range entries {
					wantKind := "delta"
					if j == 0 {
						wantKind = "full"
					}
					if e.Iteration != j || e.Kind != wantKind {
						fail("reader %d: torn chain view: entry %d is %s@%d", r, j, e.Kind, e.Iteration)
						return
					}
				}
				// Each call snapshots independently, so the chain may grow
				// between calls — but within a call it is one consistent
				// state, and across calls it only ever moves forward.
				latest, err := rv.LatestRestorable("dens")
				if err != nil {
					fail("reader %d: LatestRestorable: %v", r, err)
					return
				}
				if latest < len(entries)-1 {
					fail("reader %d: latest %d older than the %d-entry chain listed before it", r, latest, len(entries))
					return
				}
				if latest < lastSeen {
					fail("reader %d: chain went backwards: %d after %d", r, latest, lastSeen)
					return
				}
				lastSeen = latest
				stats, err := rv.Stats()
				if err != nil || len(stats) != 1 || stats[0].Fulls != 1 || stats[0].Deltas < latest {
					fail("reader %d: Stats = %+v, %v at latest %d", r, stats, err, latest)
					return
				}
				// Restart is the expensive read; do it on a stride.
				if i%7 == 0 {
					data, err := rv.Restart("dens", latest)
					if err != nil || len(data) != points {
						fail("reader %d: Restart(%d) = %d points, %v", r, latest, len(data), err)
						return
					}
					if first, ok := restarts[r][latest]; !ok {
						restarts[r][latest] = data
					} else if !bitsEqual(data, first) {
						fail("reader %d: two Restart(%d) calls differ", r, latest)
						return
					}
				}
			}
		}(r)
	}

	// The writer: commit the remaining chain while the readers run.
	for i := 1; i <= iters; i++ {
		if _, err := w.Append(i, map[string][]float64{"dens": series[i]}); err != nil {
			t.Fatal(err)
		}
	}
	close(done)
	wg.Wait()
	select {
	case err := <-errc:
		t.Fatal(err)
	default:
	}

	// After the writer finishes, every reader converges on the full
	// chain.
	latest, err := rv.LatestRestorable("dens")
	if err != nil || latest != iters {
		t.Fatalf("final LatestRestorable = %d, %v, want %d", latest, err, iters)
	}

	// Every concurrent Restart returned the committed values, not just
	// the committed shape.
	for r, seen := range restarts {
		for i, data := range seen {
			want, err := st.Restart("dens", i)
			if err != nil {
				t.Fatal(err)
			}
			if !bitsEqual(data, want) {
				t.Fatalf("reader %d: concurrent Restart(%d) differs from the serial one", r, i)
			}
		}
	}
}

// hookFS lets a test interpose between two filesystem reads: hook runs
// before every Open of a matching file name.
type hookFS struct {
	faultfs.FS
	match string
	hook  func()
}

func (h *hookFS) Open(name string) (faultfs.File, error) {
	if h.hook != nil && strings.HasSuffix(name, h.match) {
		h.hook()
	}
	return h.FS.Open(name)
}

// TestTornIndexReadRereads drives the seqlock race deterministically:
// the reader samples the journal token, and before it can open the
// CHAININDEX the writer commits — journal and index both move. The
// freshly read index no longer matches the sampled token, so the reader
// must chase the new token and serve the post-commit chain, never a
// mix of old token and new index.
func TestTornIndexReadRereads(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "ck")
	series := buildChain(t, dir, 1)
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	prev, err := st.Restart("dens", 1)
	if err != nil {
		t.Fatal(err)
	}

	hooked := &hookFS{FS: faultfs.OS(), match: indexName}
	rec := obs.NewRecorder()
	rv, err := OpenReadOnlyFS(dir, hooked, rec)
	if err != nil {
		t.Fatal(err)
	}
	if latest, err := rv.LatestRestorable("dens"); err != nil || latest != 1 {
		t.Fatalf("pre-race LatestRestorable = %d, %v", latest, err)
	}

	// Arm the race. The standing commit of delta@2 moves the journal
	// token, so the reader's cached snapshot misses and it enters the
	// index-reread loop; the hook then republishes delta@3 in the window
	// between the reader's token sample and its index read.
	w := NewWriterAt(st, 0, 1, map[string][]float64{"dens": prev})
	if _, err := w.Append(2, map[string][]float64{"dens": series[1]}); err != nil {
		t.Fatal(err)
	}
	fired := false
	hooked.hook = func() {
		if fired {
			return
		}
		fired = true
		if _, err := w.Append(3, map[string][]float64{"dens": series[1]}); err != nil {
			t.Errorf("mid-read commit: %v", err)
		}
	}

	latest, err := rv.LatestRestorable("dens")
	if err != nil {
		t.Fatalf("racing read: %v", err)
	}
	if !fired {
		t.Fatal("race hook never fired: the reader did not reread the index")
	}
	// The reader chased the mid-read publication: it must serve the
	// post-commit chain (delta@3 included), one consistent state.
	if latest != 3 {
		t.Fatalf("racing read served latest %d, want 3 (the chain published mid-read)", latest)
	}
	if rv.IndexSeq() != st.IndexSeq() {
		t.Errorf("racing read pinned seq %d, writer is at %d", rv.IndexSeq(), st.IndexSeq())
	}
	entries, err := rv.List("dens")
	if err != nil || len(entries) != 4 {
		t.Fatalf("post-race List = %v, %v", entries, err)
	}
	if got := rec.Snapshot().Counters["index_rebuilds"]; got != 0 {
		t.Errorf("index_rebuilds = %d: the reread path fell back to a journal replay", got)
	}
}
