package checkpoint

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"numarck/internal/faultfs"
	"numarck/internal/obs"
)

// The frozen store corpus: testdata/corpus/<name>/ holds a store written
// once, by the writers of the commit that added it (corpus_gen_test.go),
// and never rewritten; expected.json records what opening it must
// produce. A change to what the writers emit adds a corpus beside the
// old ones, so every byte layout the repo ever wrote stays readable.
const (
	corpusExpected   = "expected.json"
	corpusPoints     = 1024
	corpusIterations = 12
	corpusFullEvery  = 6
)

// corpusExpectation is expected.json.
type corpusExpectation struct {
	// IndexBefore is the health of the CHAININDEX as checked in.
	IndexBefore corpusIndex `json:"index_before"`
	// Recovery is the report of the first writer Open, LockTakeovers
	// its lock_takeovers count and IndexSeqAfterOpen the index sequence
	// it leaves.
	Recovery          RecoveryReport `json:"recovery"`
	LockTakeovers     int64          `json:"lock_takeovers"`
	IndexSeqAfterOpen uint64         `json:"index_seq_after_open"`
	// Verify lists the issues Verify reports after that open.
	Verify           []string `json:"verify"`
	LatestConsistent int      `json:"latest_consistent"`
	// Restarts maps corpusKey(v, i) to stateSHA256 of Restart(v, i),
	// for every chain entry after the open.
	Restarts map[string]string `json:"restarts"`
}

// corpusIndex is the comparable part of an IndexHealth.
type corpusIndex struct {
	Present bool   `json:"present"`
	Fresh   bool   `json:"fresh"`
	Corrupt bool   `json:"corrupt"`
	Seq     uint64 `json:"seq"`
	Entries int    `json:"entries"`
}

func corpusIndexOf(h IndexHealth) corpusIndex {
	return corpusIndex{Present: h.Present, Fresh: h.Fresh, Corrupt: h.Err != nil, Seq: h.Seq, Entries: h.Entries}
}

func corpusKey(variable string, iteration int) string {
	return fmt.Sprintf("%s@%d", variable, iteration)
}

// stateSHA256 is the hex SHA-256 of a state's little-endian float64
// bytes.
func stateSHA256(vals []float64) string {
	h := sha256.New()
	var b [8]byte
	for _, v := range vals {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// corpusAdvance steps a state to iteration i: a small multiplicative
// drift everywhere and, with flips, the sign flip of one point in 97
// that forces incompressible points into every delta.
func corpusAdvance(rng *rand.Rand, s []float64, i int, flips bool) {
	for j := range s {
		if flips && j%97 == i%97 {
			s[j] = -s[j] + 1
		} else {
			s[j] *= 1 + rng.NormFloat64()*0.003
		}
	}
}

// copyCorpus copies a checked-in corpus to a temp dir; tests never open
// the checked-in files for writing.
func copyCorpus(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, de := range entries {
		if de.IsDir() || de.Name() == corpusExpected {
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
	return dst
}

// TestCorpus opens every checked-in corpus as today's code must: the
// writer's recovery repairs exactly the recorded leftovers, Verify is
// clean, every restart — through the writer and through a read view —
// returns the recorded state bit for bit, and a Writer resumed at the
// latest consistent iteration appends four more that restart within
// the chain bound after a reopen.
func TestCorpus(t *testing.T) {
	corpora, err := filepath.Glob(filepath.Join("testdata", "corpus", "*", corpusExpected))
	if err != nil {
		t.Fatal(err)
	}
	if len(corpora) == 0 {
		t.Fatal("no corpus under testdata/corpus")
	}
	for _, exp := range corpora {
		src := filepath.Dir(exp)
		t.Run(filepath.Base(src), func(t *testing.T) {
			raw, err := os.ReadFile(exp)
			if err != nil {
				t.Fatal(err)
			}
			var want corpusExpectation
			if err := json.Unmarshal(raw, &want); err != nil {
				t.Fatal(err)
			}
			dir := copyCorpus(t, src)
			checkCorpusOpen(t, dir, want)
			checkCorpusResume(t, dir)
		})
	}
}

// checkCorpusOpen is TestCorpus's first half: open, repair, verify and
// restart, all against the recorded expectation.
func checkCorpusOpen(t *testing.T, dir string, want corpusExpectation) {
	t.Helper()
	if got := corpusIndexOf(indexHealth(faultfs.OS(), dir)); got != want.IndexBefore {
		t.Errorf("checked-in CHAININDEX: %+v, want %+v", got, want.IndexBefore)
	}
	rec := obs.NewRecorder()
	st, err := OpenFS(dir, faultfs.OS(), rec)
	if err != nil {
		t.Fatal(err)
	}
	gotRep, _ := json.Marshal(st.Recovery())
	wantRep, _ := json.Marshal(want.Recovery)
	if string(gotRep) != string(wantRep) {
		t.Errorf("recovery report %s, want %s", gotRep, wantRep)
	}
	if got := rec.Snapshot().Counters[obs.CounterLockTakeovers.String()]; got != want.LockTakeovers {
		t.Errorf("lock takeovers %d, want %d", got, want.LockTakeovers)
	}
	if got := st.IndexSeq(); got != want.IndexSeqAfterOpen {
		t.Errorf("index seq after open %d, want %d", got, want.IndexSeqAfterOpen)
	}
	issues, err := st.Verify()
	if err != nil {
		t.Fatal(err)
	}
	var verdict []string
	for _, is := range issues {
		verdict = append(verdict, is.String())
	}
	if !slices.Equal(verdict, want.Verify) {
		t.Errorf("verify %q, want %q", verdict, want.Verify)
	}
	if got, err := st.LatestConsistent(); err != nil || got != want.LatestConsistent {
		t.Errorf("latest consistent %d (%v), want %d", got, err, want.LatestConsistent)
	}
	var chain []Entry
	vars, _ := st.Variables()
	for _, v := range vars {
		entries, _ := st.List(v)
		chain = append(chain, entries...)
	}
	if len(chain) != len(want.Restarts) {
		t.Errorf("chain holds %d entries, %d recorded", len(chain), len(want.Restarts))
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	rv, err := OpenReadOnly(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range chain {
		k := corpusKey(e.Variable, e.Iteration)
		for path, restart := range map[string]func(string, int) ([]float64, error){"Store": st.Restart, "ReadView": rv.Restart} {
			data, err := restart(e.Variable, e.Iteration)
			if err != nil {
				t.Errorf("%s.Restart(%s): %v", path, k, err)
				continue
			}
			if got := stateSHA256(data); got != want.Restarts[k] {
				t.Errorf("%s.Restart(%s) sha256 %s, want %s", path, k, got, want.Restarts[k])
			}
		}
	}
}

// checkCorpusResume is TestCorpus's second half: resume the repaired
// store at its latest consistent iteration, append four iterations
// closed-loop, reopen, and check each restart against the chain bound
// |x̂_i − x_i| ≤ E·|x̂_{i−1}|, four ulps forgiven for rounding.
func checkCorpusResume(t *testing.T, dir string) {
	t.Helper()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	last, err := st.LatestConsistent()
	if err != nil {
		t.Fatal(err)
	}
	vars, _ := st.Variables()
	state := map[string][]float64{}
	for _, v := range vars {
		if state[v], err = st.Restart(v, last); err != nil {
			t.Fatal(err)
		}
	}
	w := NewWriterAt(st, 0, last, state)
	rng := rand.New(rand.NewSource(32))
	truth := map[int]map[string][]float64{}
	for i := last + 1; i <= last+4; i++ {
		truth[i] = map[string][]float64{}
		for _, v := range vars {
			corpusAdvance(rng, state[v], i, true)
			truth[i][v] = slices.Clone(state[v])
		}
		if _, err := w.Append(i, truth[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	st, err = Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if issues, _ := st.Verify(); len(issues) != 0 {
		t.Errorf("verify after resume: %v", issues)
	}
	e := st.Options().ErrorBound
	for i := last + 1; i <= last+4; i++ {
		for _, v := range vars {
			got, err := st.Restart(v, i)
			if err != nil {
				t.Fatal(err)
			}
			ref, err := st.Restart(v, i-1)
			if err != nil {
				t.Fatal(err)
			}
			for j, x := range truth[i][v] {
				ulps := 4 * (math.Nextafter(math.Max(math.Abs(x), math.Abs(ref[j])), math.Inf(1)) - math.Max(math.Abs(x), math.Abs(ref[j])))
				if d := math.Abs(got[j] - x); d > e*math.Abs(ref[j])+ulps {
					t.Fatalf("%s@%d point %d: |x̂−x| = %g > E·|x̂_{i−1}| = %g", v, i, j, d, e*math.Abs(ref[j]))
				}
			}
		}
	}
}
