package checkpoint

import (
	"cmp"
	"errors"
	"fmt"
	"io/fs"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"syscall"
	"testing"

	"numarck/internal/core"
	"numarck/internal/faultfs"
)

// TestValidateVariable pins the naming rules: checkpoint file names are
// built from the variable, so anything that could traverse out of the
// store directory or collide with the name grammar must be rejected.
func TestValidateVariable(t *testing.T) {
	for _, ok := range []string{"dens", "velx_2", "T.v2", "a-b", "_x", "0momentum",
		strings.Repeat("v", MaxVariableLen)} {
		if err := ValidateVariable(ok); err != nil {
			t.Errorf("ValidateVariable(%q) = %v, want nil", ok, err)
		}
	}
	for _, bad := range []string{
		"", "../dens", "a/b", "/abs", "..", ".hidden", "-flag",
		"a b", "a\x00b", "a\nb", strings.Repeat("v", MaxVariableLen+1),
	} {
		if err := ValidateVariable(bad); !errors.Is(err, ErrBadVariable) {
			t.Errorf("ValidateVariable(%q) = %v, want ErrBadVariable", bad, err)
		}
	}
}

// TestWriteRejectsHostileVariable is the regression test for the
// path-escape bug class: a variable like "../../tmp/evil" must be
// refused by every write entry point with the typed error — before any
// file is created — and must leave no debris outside or inside the
// store.
func TestWriteRejectsHostileVariable(t *testing.T) {
	parent := t.TempDir()
	dir := filepath.Join(parent, "ck")
	st, err := Create(dir, opts())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	series := genSeries(200, 2, 13)
	enc, err := core.Encode(series[0], series[1], opts())
	if err != nil {
		t.Fatal(err)
	}

	for _, hostile := range []string{"../escape", "sub/dir", "/abs", "a\x00b", ""} {
		if err := st.WriteFull(hostile, 0, series[0]); !errors.Is(err, ErrBadVariable) {
			t.Errorf("WriteFull(%q) = %v, want ErrBadVariable", hostile, err)
		}
		if err := st.WriteEncodedDelta(hostile, 1, enc); !errors.Is(err, ErrBadVariable) {
			t.Errorf("WriteEncodedDelta(%q) = %v, want ErrBadVariable", hostile, err)
		}
	}
	// A bad iteration is the same class of refusal.
	if err := st.WriteFull("dens", -1, series[0]); !errors.Is(err, ErrBadVariable) {
		t.Errorf("WriteFull(iteration -1) = %v, want ErrBadVariable", err)
	}

	// Nothing escaped the store and nothing was journaled.
	entries, err := os.ReadDir(parent)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != "ck" {
		t.Fatalf("store parent polluted: %v", entries)
	}
	vars, err := st.Variables()
	if err != nil || len(vars) != 0 {
		t.Fatalf("Variables = %v, %v after refused writes", vars, err)
	}
}

// TestRecoveryQuarantinesHostileName plants a parseable checkpoint file
// whose variable violates the naming rules (written by a buggy or
// malicious producer) and checks the recovery scan quarantines it
// rather than adopting a name the index cannot represent.
func TestRecoveryQuarantinesHostileName(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "ck")
	seedStore(t, dir, 1)
	// A name that parses (variable.kind.iteration.nmk) but whose
	// variable starts with '.' — invalid, and impossible to journal into
	// the fixed-width index.
	bad := ".evil.full.000000.nmk"
	raw, err := MarshalFull(".evil", 0, genSeries(50, 1, 2)[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, bad), raw, 0o644); err != nil {
		t.Fatal(err)
	}
	st, err := Open(dir)
	if err != nil {
		t.Fatalf("open with hostile file: %v", err)
	}
	defer st.Close()
	rep := st.Recovery()
	found := false
	for _, q := range rep.Quarantined {
		if q == bad {
			found = true
		}
	}
	if !found {
		t.Fatalf("hostile file not quarantined: %s", rep)
	}
	if _, err := os.Stat(filepath.Join(dir, "quarantine", bad)); err != nil {
		t.Fatalf("hostile file not in quarantine/: %v", err)
	}
	// The legitimate chain is untouched.
	if _, err := st.Restart("dens", 2); err != nil {
		t.Fatalf("restart after quarantine: %v", err)
	}
}

// statFails is a filesystem on which checkpoint files cannot be
// stat'ed — the EIO/EACCES case readCheckpointFile used to report as
// "no such checkpoint".
type statFails struct{ faultfs.FS }

func (s statFails) Stat(name string) (fs.FileInfo, error) {
	if strings.HasSuffix(name, ".nmk") {
		return nil, syscall.EIO
	}
	return s.FS.Stat(name)
}

// TestReadCheckpointFileErrors pins the error mapping of a chain-file
// read: only absence is ErrNotFound (with the identity in the message);
// an I/O failure on a committed file keeps its cause; and no Stat
// precedes the read, so a Stat failure cannot turn into a 404.
func TestReadCheckpointFileErrors(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "ck")
	seedStore(t, dir, 1)

	rv, err := OpenReadOnlyFS(dir, statFails{faultfs.OS()}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rv.Restart("dens", 2); err != nil {
		t.Fatalf("restart on a filesystem whose Stat fails: %v", err)
	}

	inj := faultfs.NewInjector(faultfs.OS(), 1)
	inj.AddFault(faultfs.Fault{Op: faultfs.OpRead, Path: fileName("dens", "delta", 1), Nth: 1})
	if rv, err = OpenReadOnlyFS(dir, inj, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := rv.Restart("dens", 2); !errors.Is(err, faultfs.ErrInjected) || errors.Is(err, ErrNotFound) {
		t.Fatalf("restart over an unreadable delta = %v, want the injected I/O error and not ErrNotFound", err)
	}

	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if err := os.Remove(filepath.Join(dir, fileName("dens", "delta", 2))); err != nil {
		t.Fatal(err)
	}
	_, err = st.Restart("dens", 2)
	if !errors.Is(err, ErrNotFound) || !strings.Contains(err.Error(), "delta checkpoint dens@2") {
		t.Fatalf("restart over a missing delta = %v, want ErrNotFound naming delta dens@2", err)
	}
}

// TestFileNameMatchesSprintf pins fileName to the bytes every store on
// disk was named with, fmt.Sprintf("%s.%s.%06d.nmk", …), across the
// six-digit boundary and up to the largest iteration a store accepts,
// and checks that parseName reads each name back.
func TestFileNameMatchesSprintf(t *testing.T) {
	for _, v := range []string{"dens", "T.v2", "a-b", "a.b.c", "0", "x.delta", strings.Repeat("v", MaxVariableLen)} {
		for _, kind := range []string{"full", "delta"} {
			for _, it := range []int{0, 1, 9, 10, 99999, 100000, 999999, 1000000, 1<<31 - 1} {
				got, want := fileName(v, kind, it), fmt.Sprintf("%s.%s.%06d.nmk", v, kind, it)
				if got != want {
					t.Errorf("fileName(%q, %q, %d) = %q, want %q", v, kind, it, got, want)
				}
				if e, ok := parseName(got); !ok || e != (Entry{Variable: v, Kind: kind, Iteration: it}) {
					t.Errorf("parseName(%q) = %+v, %v", got, e, ok)
				}
			}
		}
	}
	if got, want := fileName("v", "delta", -5), fmt.Sprintf("%s.%s.%06d.nmk", "v", "delta", -5); got != want {
		t.Errorf("fileName of iteration -5 = %q, want %q", got, want)
	}
}

// referenceView is the chain view by comparison sort, from the writer's
// chain map: what viewOf must produce, however it gets there —
// iteration ascending, a delta before the full checkpoint of the same
// iteration.
func referenceView(chain map[string]journalEntry) map[string][]ChainEntry {
	want := map[string][]ChainEntry{}
	for name, je := range chain {
		e, ok := parseName(name)
		if !ok {
			continue
		}
		want[e.Variable] = append(want[e.Variable], ChainEntry{Entry: e, Name: name, Len: je.Len, CRC: je.CRC})
	}
	for _, files := range want {
		slices.SortFunc(files, func(a, b ChainEntry) int {
			return cmp.Or(cmp.Compare(a.Iteration, b.Iteration), cmp.Compare(a.Kind, b.Kind))
		})
	}
	return want
}

// TestChainViewOrder checks the view a read-only open derives from the
// chain index against the one the writer derives from its chain map and
// against a comparison sort, for one set of files committed in several
// orders. The set has what makes name order differ from chain order:
// variables that are prefixes of each other at a dot, a delta and a
// full of the same iteration, and iterations of seven or more digits,
// which sort by name before six-digit ones.
func TestChainViewOrder(t *testing.T) {
	type file struct {
		v, kind string
		it      int
	}
	var files []file
	for _, v := range []string{"a", "a.b", "a-b", "a.delta"} {
		for _, it := range []int{1, 2, 9, 10, 11, 99999, 999999, 1000000, 1000001, 9999999, 1<<31 - 1} {
			files = append(files, file{v, "delta", it})
		}
		for _, it := range []int{0, 10, 1000000} {
			files = append(files, file{v, "full", it})
		}
	}
	for it := 1; it <= 9; it++ { // one variable already in order by name
		files = append(files, file{"b", "delta", it})
	}
	files = append(files, file{"b", "full", 0})
	series := genSeries(8, 2, 5)
	enc, err := core.Encode(series[0], series[1], opts())
	if err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(36))
	for _, order := range []struct {
		name    string
		arrange func()
	}{
		{"ascending", func() { slices.SortStableFunc(files, func(a, b file) int { return cmp.Compare(a.it, b.it) }) }},
		{"descending", func() { slices.SortStableFunc(files, func(a, b file) int { return cmp.Compare(b.it, a.it) }) }},
		{"shuffled", func() { rng.Shuffle(len(files), func(i, j int) { files[i], files[j] = files[j], files[i] }) }},
	} {
		order.arrange()
		name := order.name
		dir := filepath.Join(t.TempDir(), name)
		st, err := Create(dir, opts())
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range files {
			if f.kind == "full" {
				err = st.WriteFull(f.v, f.it, series[0])
			} else {
				err = st.WriteEncodedDelta(f.v, f.it, enc)
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		want := referenceView(st.chain)
		ix, err := loadIndex(st.fs, dir)
		if err != nil {
			t.Fatal(err)
		}
		rv, err := OpenReadOnly(dir)
		if err != nil {
			t.Fatal(err)
		}
		for label, view := range map[string]*chainView{"index": viewOfIndex(ix), "chain": viewOfChain(st.chain)} {
			if !slices.Equal(view.vars, []string{"a", "a-b", "a.b", "a.delta", "b"}) {
				t.Errorf("%s, view of the %s: variables %q", name, label, view.vars)
			}
			if !reflect.DeepEqual(view.files, want) {
				t.Errorf("%s: the view of the %s differs from the comparison sort", name, label)
			}
		}
		for v, files := range want {
			if got, err := rv.Chain(v); err != nil || !reflect.DeepEqual(got, files) {
				t.Errorf("%s: ReadView.Chain(%q) = %v, %v; want %v", name, v, got, err, files)
			}
		}
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
	}

	// A journal can name iterations no store writes, which a packed sort
	// key cannot hold; the order is the same all the same.
	chain := map[string]journalEntry{}
	for i, it := range []string{"-000001", "000000", "4294967296", "000003", "99999999999"} {
		for _, kind := range []string{"delta", "full"} {
			chain["v."+kind+"."+it+".nmk"] = journalEntry{Len: int64(i)}
		}
	}
	if got, want := viewOfChain(chain).files, referenceView(chain); !reflect.DeepEqual(got, want) {
		t.Errorf("view of out-of-range iterations = %v, want %v", got, want)
	}
}

// TestSegmentIsWhatRestartReads pins Segment as the one statement of a
// restart's files. Over seeded chains of 0 to 3 fulls, with gaps and
// with a delta and a full at one iteration, each committed through
// WriteRaw, every k from -1 to one past the last file: Restart succeeds
// exactly when Segment does, opens exactly Segment's files in order —
// on failure too, the files before a gap — and fails with Segment's
// sentinel; Segment is a full checkpoint then consecutive deltas, ending
// at k when it succeeds; LatestRestorable is the largest k Segment
// accepts.
func TestSegmentIsWhatRestartReads(t *testing.T) {
	const n = 64
	opt := core.Options{ErrorBound: 0.001, IndexBits: 8, Strategy: core.EqualWidth, Workers: 1}
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		rfs := &recordingFS{FS: faultfs.OS(), gids: map[uint64]bool{}}
		st, err := CreateFS(filepath.Join(t.TempDir(), "ck"), opt, rfs)
		if err != nil {
			t.Fatal(err)
		}
		prev := make([]float64, n)
		for j := range prev {
			prev[j] = 1 + rng.Float64()
		}
		commit := func(i int, full bool) {
			cur := slices.Clone(prev)
			for j := range cur {
				cur[j] *= 1 + rng.NormFloat64()*0.01
			}
			var raw []byte
			var err error
			if full {
				raw, err = MarshalFull("v", i, cur)
			} else {
				var enc *core.Encoded
				if enc, err = core.Encode(prev, cur, opt); err == nil {
					raw, err = MarshalDelta("v", i, enc)
				}
			}
			if err != nil {
				t.Fatal(err)
			}
			if _, err := st.WriteRaw("v", i, raw, 0); err != nil {
				t.Fatal(err)
			}
			prev = cur
		}
		// Fulls land at random, the first one drawn beside a delta of its
		// own iteration, so a chain without a full at 0 starts rootless;
		// an iteration is skipped about once in eight.
		last, both := 4+rng.Intn(12), -1
		fullAt := map[int]bool{}
		for f := rng.Intn(4); f > 0; f-- {
			i := rng.Intn(last + 1)
			fullAt[i] = true
			if both < 0 {
				both = i
			}
		}
		for i := 0; i <= last; i++ {
			if rng.Intn(8) == 0 && i != last {
				continue
			}
			if !fullAt[i] || i == both {
				commit(i, false)
			}
			if fullAt[i] {
				commit(i, true)
			}
		}

		files := st.chainView().files["v"]
		wantLatest := -2
		for k := -1; k <= last+1; k++ {
			seg, segErr := Segment(files, k)
			rfs.calls = rfs.calls[:0]
			_, err := st.Restart("v", k)
			if (err == nil) != (segErr == nil) {
				t.Fatalf("seed %d k %d: Restart err %v, Segment err %v", seed, k, err, segErr)
			}
			for _, sentinel := range []error{ErrNotFound, ErrChain, ErrCorrupt} {
				if errors.Is(err, sentinel) != errors.Is(segErr, sentinel) {
					t.Fatalf("seed %d k %d: Restart err %v, Segment err %v", seed, k, err, segErr)
				}
			}
			for i, ce := range seg {
				if (i == 0) != (ce.Kind == "full") || ce.Iteration != seg[0].Iteration+i || ce.Iteration > k {
					t.Fatalf("seed %d k %d: Segment = %v, not a full then consecutive deltas through k", seed, k, seg)
				}
			}
			if segErr == nil && (len(seg) == 0 || seg[len(seg)-1].Iteration != k) {
				t.Fatalf("seed %d k %d: Segment = %v with no error, not ending at k", seed, k, seg)
			}
			var opened, want []string
			for _, c := range rfs.calls {
				if name, ok := strings.CutPrefix(c, "open "); ok && strings.HasSuffix(name, ".nmk") {
					opened = append(opened, name)
				}
			}
			for _, ce := range seg {
				want = append(want, ce.Name)
			}
			if !slices.Equal(opened, want) {
				t.Fatalf("seed %d k %d: Restart opened %v, Segment lists %v", seed, k, opened, want)
			}
			if segErr == nil {
				wantLatest = k
			}
		}
		latest, err := st.LatestRestorable("v")
		if wantLatest < 0 {
			if !errors.Is(err, ErrNotFound) {
				t.Fatalf("seed %d: LatestRestorable = %d, %v on a chain nothing restarts", seed, latest, err)
			}
		} else if err != nil || latest != wantLatest {
			t.Fatalf("seed %d: LatestRestorable = %d, %v, want %d", seed, latest, err, wantLatest)
		}
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
	}
}
