package checkpoint

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"

	"numarck/internal/faultfs"
	"numarck/internal/obs"
)

// readOnlyFS fails every mutating filesystem operation, the way
// read-only media would. A ReadView must work through it.
type readOnlyFS struct {
	faultfs.FS
}

var errReadOnly = errors.New("mutating operation on read-only filesystem")

func (readOnlyFS) Create(string) (faultfs.File, error)          { return nil, errReadOnly }
func (readOnlyFS) CreateExclusive(string) (faultfs.File, error) { return nil, errReadOnly }
func (readOnlyFS) Append(string) (faultfs.File, error)          { return nil, errReadOnly }
func (readOnlyFS) Rename(string, string) error                  { return errReadOnly }
func (readOnlyFS) Link(string, string) error                    { return errReadOnly }
func (readOnlyFS) Remove(string) error                          { return errReadOnly }
func (readOnlyFS) MkdirAll(string, fs.FileMode) error           { return errReadOnly }
func (readOnlyFS) SyncDir(string) error                         { return errReadOnly }

// countingFS counts read-side filesystem traffic: directory listings,
// opens by file, and bytes read per file.
type countingFS struct {
	faultfs.FS
	readDirs  atomic.Int64
	bytesRead map[string]*atomic.Int64
}

func newCountingFS(fsys faultfs.FS) *countingFS {
	return &countingFS{FS: fsys, bytesRead: map[string]*atomic.Int64{}}
}

func (c *countingFS) counter(name string) *atomic.Int64 {
	base := filepath.Base(name)
	if c.bytesRead[base] == nil {
		c.bytesRead[base] = &atomic.Int64{}
	}
	return c.bytesRead[base]
}

func (c *countingFS) ReadDir(name string) ([]fs.DirEntry, error) {
	c.readDirs.Add(1)
	return c.FS.ReadDir(name)
}

func (c *countingFS) Open(name string) (faultfs.File, error) {
	f, err := c.FS.Open(name)
	if err != nil {
		return nil, err
	}
	return &countingFile{File: f, n: c.counter(name)}, nil
}

type countingFile struct {
	faultfs.File
	n *atomic.Int64
}

func (f *countingFile) Read(p []byte) (int, error) {
	n, err := f.File.Read(p)
	f.n.Add(int64(n))
	return n, err
}

func (f *countingFile) ReadAt(p []byte, off int64) (int, error) {
	n, err := f.File.ReadAt(p, off)
	f.n.Add(int64(n))
	return n, err
}

// buildChain writes a store with one full checkpoint and deltas deltas
// for variable "dens", closing the writer so the chain is published.
func buildChain(t *testing.T, dir string, deltas int) [][]float64 {
	t.Helper()
	series := genSeries(1500, deltas+1, 21)
	st, err := Create(dir, opts())
	if err != nil {
		t.Fatal(err)
	}
	if err := st.WriteFull("dens", 0, series[0]); err != nil {
		t.Fatal(err)
	}
	prev := series[0]
	for i := 1; i <= deltas; i++ {
		if _, err := st.WriteDelta("dens", i, prev, series[i]); err != nil {
			t.Fatal(err)
		}
		enc, err := st.ReadDelta("dens", i)
		if err != nil {
			t.Fatal(err)
		}
		if prev, err = enc.Decode(prev); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	return series
}

// TestReadViewOnReadOnlyMedia opens a view through a filesystem that
// fails every mutating operation and drives the whole read surface: if
// any path tried to repair, journal, lock, or republish, it would error
// out here.
func TestReadViewOnReadOnlyMedia(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "ck")
	buildChain(t, dir, 3)
	rv, err := OpenReadOnlyFS(dir, readOnlyFS{faultfs.OS()}, nil)
	if err != nil {
		t.Fatalf("OpenReadOnly on read-only media: %v", err)
	}
	vars, err := rv.Variables()
	if err != nil || len(vars) != 1 || vars[0] != "dens" {
		t.Fatalf("Variables = %v, %v", vars, err)
	}
	entries, err := rv.List("dens")
	if err != nil || len(entries) != 4 {
		t.Fatalf("List = %v, %v", entries, err)
	}
	stats, err := rv.Stats()
	if err != nil || len(stats) != 1 || stats[0].Fulls != 1 || stats[0].Deltas != 3 {
		t.Fatalf("Stats = %+v, %v", stats, err)
	}
	latest, err := rv.LatestRestorable("dens")
	if err != nil || latest != 3 {
		t.Fatalf("LatestRestorable = %d, %v", latest, err)
	}
	if _, err := rv.Restart("dens", 3); err != nil {
		t.Fatalf("Restart: %v", err)
	}
	if _, _, err := rv.RestartSalvage("dens", 3); err != nil {
		t.Fatalf("RestartSalvage: %v", err)
	}
	if h := rv.IndexHealth(); !h.Present || !h.Fresh {
		t.Errorf("index health through read view: %s", h)
	}
}

// TestReadViewWarmIndexConstantCost is the acceptance test for the
// index fast path: on a warm index, Open + LatestRestorable performs
// zero directory scans, zero journal replays (reads at most the
// freshness tail window of the journal), and its filesystem footprint
// is identical for a short and a long chain.
func TestReadViewWarmIndexConstantCost(t *testing.T) {
	// Open performs one journal-token read; LatestRestorable performs a
	// second and hits the cached snapshot.
	const tokenReads = 2
	costOf := func(deltas int) (readDirs, journalBytes, indexBytes int64, entries int) {
		t.Helper()
		dir := filepath.Join(t.TempDir(), fmt.Sprintf("ck%d", deltas))
		buildChain(t, dir, deltas)
		cfs := newCountingFS(faultfs.OS())
		rv, err := OpenReadOnlyFS(dir, cfs, nil)
		if err != nil {
			t.Fatal(err)
		}
		latest, err := rv.LatestRestorable("dens")
		if err != nil || latest != deltas {
			t.Fatalf("LatestRestorable = %d, %v (want %d)", latest, err, deltas)
		}
		es := rv.snap.Load().chain.files["dens"]
		return cfs.readDirs.Load(), cfs.counter(journalName).Load(), cfs.counter(indexName).Load(), len(es)
	}

	// Both chains journal more than indexTailWindow bytes, so a
	// tail-window read costs the same for either; only a replay would
	// differ.
	shortDirs, shortJournal, shortIndex, shortEntries := costOf(4)
	longDirs, longJournal, longIndex, longEntries := costOf(40)
	if shortEntries != 5 || longEntries != 41 {
		t.Fatalf("chains have %d and %d entries", shortEntries, longEntries)
	}
	if shortDirs != 0 || longDirs != 0 {
		t.Errorf("warm-index reads scanned the directory: %d and %d ReadDir calls", shortDirs, longDirs)
	}
	if shortJournal > tokenReads*indexTailWindow || longJournal > tokenReads*indexTailWindow {
		t.Errorf("journal bytes read = %d and %d, want <= %d (tail windows only, no replay)",
			shortJournal, longJournal, tokenReads*indexTailWindow)
	}
	if shortJournal != longJournal {
		t.Errorf("journal footprint depends on chain length: %d vs %d bytes", shortJournal, longJournal)
	}
	// The index itself is the only read that grows, by exactly one
	// record per chain entry.
	if got, want := longIndex-shortIndex, int64(longEntries-shortEntries)*indexRecordSize; got != want {
		t.Errorf("index bytes grew by %d for %d extra entries, want %d",
			got, longEntries-shortEntries, want)
	}
}

// TestReadViewFallbackOnCorruptIndex corrupts the CHAININDEX and checks
// the view detects it (CRC), falls back to an in-memory journal replay,
// counts the rebuild, and still serves correct answers — wrong answers
// are never served from a damaged index.
func TestReadViewFallbackOnCorruptIndex(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "ck")
	buildChain(t, dir, 3)
	path := filepath.Join(dir, indexName)
	pristine, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	mutate := func(mut func(raw []byte) []byte) {
		t.Helper()
		if err := os.WriteFile(path, mut(append([]byte{}, pristine...)), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	for name, mut := range map[string]func([]byte) []byte{
		"flipped byte": func(raw []byte) []byte { raw[len(raw)/2] ^= 0x40; return raw },
		"truncated":    func(raw []byte) []byte { return raw[:len(raw)*2/3] },
		"stale anchor": func(raw []byte) []byte {
			// A parseable index whose journal anchor lies: claim the
			// journal is one byte shorter. Rewrite through the marshaller
			// so the CRC stays valid.
			ix, err := ParseChainIndex(raw)
			if err != nil {
				t.Fatal(err)
			}
			ix.JournalLen--
			out, err := marshalChainIndex(ix)
			if err != nil {
				t.Fatal(err)
			}
			return out
		},
	} {
		t.Run(strings.ReplaceAll(name, " ", "_"), func(t *testing.T) {
			mutate(mut)
			rec := obs.NewRecorder()
			rv, err := OpenReadOnlyFS(dir, readOnlyFS{faultfs.OS()}, rec)
			if err != nil {
				t.Fatalf("open with damaged index: %v", err)
			}
			latest, err := rv.LatestRestorable("dens")
			if err != nil || latest != 3 {
				t.Fatalf("LatestRestorable = %d, %v", latest, err)
			}
			if _, err := rv.Restart("dens", 3); err != nil {
				t.Fatalf("Restart: %v", err)
			}
			if rv.IndexSeq() != 0 {
				t.Errorf("fallback snapshot reports index seq %d, want 0", rv.IndexSeq())
			}
			if got := rec.Snapshot().Counters["index_rebuilds"]; got != 1 {
				t.Errorf("index_rebuilds = %d, want 1", got)
			}
			if h := rv.IndexHealth(); h.Fresh {
				t.Errorf("damaged index reported fresh: %s", h)
			}
		})
	}
}

// TestReadViewSeesWriterCommits interleaves a live writer with a view:
// every commit moves the journal token, so the next read refreshes its
// snapshot and serves the new chain.
func TestReadViewSeesWriterCommits(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "ck")
	series := buildChain(t, dir, 1)
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	rec := obs.NewRecorder()
	rv, err := OpenReadOnlyFS(dir, faultfs.OS(), rec)
	if err != nil {
		t.Fatalf("OpenReadOnly while writer holds the lock: %v", err)
	}
	if latest, err := rv.LatestRestorable("dens"); err != nil || latest != 1 {
		t.Fatalf("pre-commit LatestRestorable = %d, %v", latest, err)
	}
	prev, err := st.Restart("dens", 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.WriteDelta("dens", 2, prev, series[1]); err != nil {
		t.Fatal(err)
	}
	if latest, err := rv.LatestRestorable("dens"); err != nil || latest != 2 {
		t.Fatalf("post-commit LatestRestorable = %d, %v", latest, err)
	}
	if rv.IndexSeq() != st.IndexSeq() {
		t.Errorf("view snapshot seq %d, writer published %d", rv.IndexSeq(), st.IndexSeq())
	}
	if got := rec.Snapshot().Counters["index_rereads"]; got != 1 {
		t.Errorf("index_rereads = %d, want exactly 1 (the post-commit refresh; the open's first snapshot is not a reread)", got)
	}
	if got := rec.Snapshot().Counters["index_rebuilds"]; got != 0 {
		t.Errorf("index_rebuilds = %d on a healthy store, want 0", got)
	}
}

// TestReadViewLegacyStoreRefused checks a view of a journal-less legacy
// store fails with ErrNotFound and a pointer at the writer, instead of
// guessing at directory contents.
func TestReadViewLegacyStoreRefused(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "ck")
	buildChain(t, dir, 1)
	if err := os.Remove(filepath.Join(dir, journalName)); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(filepath.Join(dir, indexName)); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenReadOnly(dir); !errors.Is(err, ErrNotFound) {
		t.Fatalf("OpenReadOnly of legacy store = %v, want ErrNotFound", err)
	}
	// A writer open adopts the layout; the view works afterwards.
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	rv, err := OpenReadOnly(dir)
	if err != nil {
		t.Fatalf("OpenReadOnly after adoption: %v", err)
	}
	if latest, err := rv.LatestRestorable("dens"); err != nil || latest != 1 {
		t.Fatalf("LatestRestorable = %d, %v", latest, err)
	}
}

// TestReadViewMissingStore checks opening a view of a directory with no
// manifest is ErrNotFound.
func TestReadViewMissingStore(t *testing.T) {
	if _, err := OpenReadOnly(filepath.Join(t.TempDir(), "nope")); !errors.Is(err, ErrNotFound) {
		t.Fatalf("OpenReadOnly of missing store = %v, want ErrNotFound", err)
	}
}
