package checkpoint

import (
	"errors"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"numarck/internal/core"
)

func opts() core.Options {
	return core.Options{ErrorBound: 0.001, IndexBits: 8, Strategy: core.Clustering}
}

func genSeries(n, iters int, seed int64) [][]float64 {
	rng := rand.New(rand.NewSource(seed))
	out := make([][]float64, iters)
	out[0] = make([]float64, n)
	for j := range out[0] {
		out[0][j] = 50 + rng.Float64()*100
	}
	for i := 1; i < iters; i++ {
		out[i] = make([]float64, n)
		for j := range out[i] {
			out[i][j] = out[i-1][j] * (1 + rng.NormFloat64()*0.003)
		}
	}
	return out
}

// writeDelta encodes prev → cur with the store's options and commits
// the delta, whatever prev is: a test's way to build what no writer
// builds — a chain with a gap, an orphan delta, an open-loop chain.
func writeDelta(st *Store, variable string, iteration int, prev, cur []float64) error {
	enc, err := core.Encode(prev, cur, st.opt)
	if err != nil {
		return err
	}
	return st.WriteEncodedDelta(variable, iteration, enc)
}

func TestMarshalFullRoundTrip(t *testing.T) {
	data := genSeries(1000, 1, 1)[0]
	raw, err := MarshalFull("dens", 7, data)
	if err != nil {
		t.Fatal(err)
	}
	v, it, got, err := UnmarshalFull(raw)
	if err != nil {
		t.Fatal(err)
	}
	if v != "dens" || it != 7 {
		t.Errorf("header = %s@%d", v, it)
	}
	for i := range data {
		if math.Float64bits(got[i]) != math.Float64bits(data[i]) {
			t.Fatalf("value %d differs", i)
		}
	}
}

func TestMarshalDeltaRoundTrip(t *testing.T) {
	series := genSeries(2000, 2, 2)
	enc, err := core.Encode(series[0], series[1], opts())
	if err != nil {
		t.Fatal(err)
	}
	raw, err := MarshalDelta("pres", 3, enc)
	if err != nil {
		t.Fatal(err)
	}
	v, it, dec, err := UnmarshalDelta(raw)
	if err != nil {
		t.Fatal(err)
	}
	if v != "pres" || it != 3 {
		t.Errorf("header = %s@%d", v, it)
	}
	want, err := enc.Decode(series[0])
	if err != nil {
		t.Fatal(err)
	}
	got, err := dec.Decode(series[0])
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("decode differs at %d: %v vs %v", i, got[i], want[i])
		}
	}
	if dec.Gamma() != enc.Gamma() {
		t.Errorf("gamma %v vs %v", dec.Gamma(), enc.Gamma())
	}
}

func TestUnmarshalCorruption(t *testing.T) {
	series := genSeries(500, 2, 3)
	enc, err := core.Encode(series[0], series[1], opts())
	if err != nil {
		t.Fatal(err)
	}
	raw, err := MarshalDelta("x", 1, enc)
	if err != nil {
		t.Fatal(err)
	}
	fullRaw, err := MarshalFull("x", 0, series[0])
	if err != nil {
		t.Fatal(err)
	}

	check := func(name string, data []byte, full bool) {
		t.Helper()
		var err error
		if full {
			_, _, _, err = UnmarshalFull(data)
		} else {
			_, _, _, err = UnmarshalDelta(data)
		}
		if !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: err = %v, want ErrCorrupt", name, err)
		}
	}

	check("delta empty", nil, false)
	check("delta truncated", raw[:len(raw)-3], false)
	check("full as delta", fullRaw, false)
	check("delta as full", raw, true)

	flipped := append([]byte{}, raw...)
	flipped[len(flipped)-1] ^= 0xFF
	check("delta bitflip", flipped, false)

	flippedFull := append([]byte{}, fullRaw...)
	flippedFull[len(flippedFull)-1] ^= 0xFF
	check("full bitflip", flippedFull, true)

	// Corrupt header length field.
	badLen := append([]byte{}, raw...)
	badLen[6] = 0xFF
	badLen[7] = 0xFF
	check("delta header length", badLen, false)
}

func TestStoreCreateOpen(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "store")
	st, err := Create(dir, opts())
	if err != nil {
		t.Fatal(err)
	}
	if st.Options().IndexBits != 8 {
		t.Errorf("options = %+v", st.Options())
	}
	// While the first handle holds the writer lock, a second writer —
	// Create or Open — fails fast with the typed lock-held error.
	if _, err := Create(dir, opts()); !errors.Is(err, ErrLocked) {
		t.Errorf("duplicate Create while locked = %v, want ErrLocked", err)
	}
	var lh *LockHeldError
	if _, err := Open(dir); !errors.As(err, &lh) {
		t.Errorf("second Open while locked = %v, want *LockHeldError", err)
	} else if lh.PID != os.Getpid() {
		t.Errorf("lock holder pid = %d, want %d", lh.PID, os.Getpid())
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	// After Close the lock is released, but re-creating over an existing
	// store is still refused.
	if _, err := Create(dir, opts()); err == nil || errors.Is(err, ErrLocked) {
		t.Errorf("duplicate Create after close = %v, want already-exists", err)
	}
	st2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if st2.Options().Strategy != core.Clustering || st2.Options().ErrorBound != 0.001 {
		t.Errorf("reopened options = %+v", st2.Options())
	}
	if _, err := Open(filepath.Join(dir, "missing")); !errors.Is(err, ErrNotFound) {
		t.Errorf("open missing: %v", err)
	}
}

func TestStoreBadManifest(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, manifestName), []byte("{bad json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir); !errors.Is(err, ErrCorrupt) {
		t.Errorf("bad manifest: %v", err)
	}
}

func TestStoreWriteReadRestart(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "ck")
	st, err := Create(dir, opts())
	if err != nil {
		t.Fatal(err)
	}
	series := genSeries(3000, 6, 4)
	if err := st.WriteFull("dens", 0, series[0]); err != nil {
		t.Fatal(err)
	}
	prev := series[0]
	for i := 1; i < len(series); i++ {
		if err := writeDelta(st, "dens", i, prev, series[i]); err != nil {
			t.Fatal(err)
		}
		prev = series[i]
	}

	// Restart at the full checkpoint itself is exact.
	r0, err := st.Restart("dens", 0)
	if err != nil {
		t.Fatal(err)
	}
	for j := range r0 {
		if r0[j] != series[0][j] {
			t.Fatalf("full restart differs at %d", j)
		}
	}

	// Restart at later iterations obeys the accumulated error
	// envelope.
	for target := 1; target < len(series); target++ {
		rec, err := st.Restart("dens", target)
		if err != nil {
			t.Fatalf("restart %d: %v", target, err)
		}
		bound := math.Pow(1+0.001, float64(target)) - 1
		for j := range rec {
			rel := math.Abs(rec[j]-series[target][j]) / math.Abs(series[target][j])
			if rel > bound*1.5+1e-12 {
				t.Fatalf("restart %d point %d: relative error %v > %v", target, j, rel, bound*1.5)
			}
		}
	}
}

func TestStoreListAndVariables(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "ck")
	st, err := Create(dir, opts())
	if err != nil {
		t.Fatal(err)
	}
	series := genSeries(100, 3, 5)
	if err := st.WriteFull("a", 0, series[0]); err != nil {
		t.Fatal(err)
	}
	if err := writeDelta(st, "a", 1, series[0], series[1]); err != nil {
		t.Fatal(err)
	}
	if err := st.WriteFull("b.dotted", 0, series[0]); err != nil {
		t.Fatal(err)
	}

	entries, err := st.List("a")
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 || entries[0].Kind != "full" || entries[1].Kind != "delta" {
		t.Errorf("entries = %+v", entries)
	}

	vars, err := st.Variables()
	if err != nil {
		t.Fatal(err)
	}
	if len(vars) != 2 || vars[0] != "a" || vars[1] != "b.dotted" {
		t.Errorf("variables = %v", vars)
	}
}

func TestRestartChainGap(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "ck")
	st, err := Create(dir, opts())
	if err != nil {
		t.Fatal(err)
	}
	series := genSeries(100, 5, 6)
	if err := st.WriteFull("v", 0, series[0]); err != nil {
		t.Fatal(err)
	}
	if err := writeDelta(st, "v", 1, series[0], series[1]); err != nil {
		t.Fatal(err)
	}
	// Skip iteration 2, write 3: chain has a gap.
	if err := writeDelta(st, "v", 3, series[2], series[3]); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Restart("v", 3); !errors.Is(err, ErrChain) {
		t.Errorf("gap restart: %v", err)
	}
	// Restart before the gap still works.
	if _, err := st.Restart("v", 1); err != nil {
		t.Errorf("restart 1: %v", err)
	}
}

func TestRestartErrors(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "ck")
	st, err := Create(dir, opts())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Restart("ghost", 0); !errors.Is(err, ErrNotFound) {
		t.Errorf("missing variable: %v", err)
	}
	series := genSeries(50, 2, 7)
	if err := writeDelta(st, "v", 1, series[0], series[1]); err != nil {
		t.Fatal(err)
	}
	// Delta exists but no full checkpoint before it.
	if _, err := st.Restart("v", 1); !errors.Is(err, ErrNotFound) {
		t.Errorf("no full checkpoint: %v", err)
	}
}

func TestRestartUsesLatestFull(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "ck")
	st, err := Create(dir, opts())
	if err != nil {
		t.Fatal(err)
	}
	series := genSeries(200, 7, 8)
	if err := st.WriteFull("v", 0, series[0]); err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 3; i++ {
		if err := writeDelta(st, "v", i, series[i-1], series[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.WriteFull("v", 4, series[4]); err != nil {
		t.Fatal(err)
	}
	for i := 5; i <= 6; i++ {
		if err := writeDelta(st, "v", i, series[i-1], series[i]); err != nil {
			t.Fatal(err)
		}
	}
	// Restart at 5 must start from full@4, so only one delta of error.
	rec, err := st.Restart("v", 5)
	if err != nil {
		t.Fatal(err)
	}
	for j := range rec {
		rel := math.Abs(rec[j]-series[5][j]) / math.Abs(series[5][j])
		if rel > 0.001*1.01 {
			t.Fatalf("restart-from-latest-full error %v at %d", rel, j)
		}
	}
}

func TestWriterFullEvery(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "ck")
	st, err := Create(dir, opts())
	if err != nil {
		t.Fatal(err)
	}
	w := NewWriter(st, 3)
	series := genSeries(300, 7, 9)
	for i := 0; i < 7; i++ {
		encs, err := w.Append(i, map[string][]float64{"v": series[i]})
		if err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
		wantFull := i == 0 || i%3 == 0
		if wantFull && len(encs) != 0 {
			t.Errorf("iteration %d: expected full checkpoint, got delta", i)
		}
		if !wantFull && encs["v"] == nil {
			t.Errorf("iteration %d: expected delta encoding", i)
		}
	}
	entries, err := st.List("v")
	if err != nil {
		t.Fatal(err)
	}
	fulls := 0
	for _, e := range entries {
		if e.Kind == "full" {
			fulls++
		}
	}
	if fulls != 3 { // iterations 0, 3, 6
		t.Errorf("full checkpoints = %d, want 3", fulls)
	}
	// Every iteration restarts within its envelope.
	for i := 0; i < 7; i++ {
		rec, err := st.Restart("v", i)
		if err != nil {
			t.Fatalf("restart %d: %v", i, err)
		}
		for j := range rec {
			rel := math.Abs(rec[j]-series[i][j]) / math.Abs(series[i][j])
			if rel > 0.01 {
				t.Fatalf("iteration %d point %d error %v", i, j, rel)
			}
		}
	}
}

func TestWriterNonConsecutive(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "ck")
	st, err := Create(dir, opts())
	if err != nil {
		t.Fatal(err)
	}
	w := NewWriter(st, 0)
	series := genSeries(50, 3, 10)
	if _, err := w.Append(0, map[string][]float64{"v": series[0]}); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Append(2, map[string][]float64{"v": series[2]}); err == nil {
		t.Error("non-consecutive append accepted")
	}
	// New variable appearing mid-run is rejected.
	if _, err := w.Append(1, map[string][]float64{"new": series[1]}); err == nil {
		t.Error("mid-run variable accepted")
	}
}

func TestParseName(t *testing.T) {
	cases := []struct {
		name string
		want Entry
		ok   bool
	}{
		{"dens.full.000007.nmk", Entry{"dens", "full", 7}, true},
		{"a.b.delta.000123.nmk", Entry{"a.b", "delta", 123}, true},
		{"manifest.json", Entry{}, false},
		{"dens.full.xx.nmk", Entry{}, false},
		{"dens.nmk", Entry{}, false},
		{"dens.weird.000001.nmk", Entry{}, false},
	}
	for _, c := range cases {
		got, ok := parseName(c.name)
		if ok != c.ok || got != c.want {
			t.Errorf("parseName(%q) = %+v,%v want %+v,%v", c.name, got, ok, c.want, c.ok)
		}
	}
}

// TestParseNameAllocs pins that parsing a file name allocates nothing:
// the index build, the recovery scan and the read view parse one per
// chain entry.
func TestParseNameAllocs(t *testing.T) {
	names := []string{"dens.full.000007.nmk", "a.b.delta.000123.nmk", "velx.delta.1234567.nmk"}
	allocs := testing.AllocsPerRun(100, func() {
		for _, name := range names {
			if _, ok := parseName(name); !ok {
				t.Fatalf("parseName(%q) failed", name)
			}
		}
	})
	if allocs != 0 {
		t.Errorf("parseName allocates %.0f times per %d names, want 0", allocs, len(names))
	}
}

func TestReadCorruptFileFromDisk(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "ck")
	st, err := Create(dir, opts())
	if err != nil {
		t.Fatal(err)
	}
	series := genSeries(100, 2, 11)
	if err := st.WriteFull("v", 0, series[0]); err != nil {
		t.Fatal(err)
	}
	path := st.path("v", "full", 0)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-1] ^= 0x01
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Restart("v", 0); !errors.Is(err, ErrCorrupt) {
		t.Errorf("corrupt restart: %v", err)
	}
}

func TestMismatchedHeaderIdentity(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "ck")
	st, err := Create(dir, opts())
	if err != nil {
		t.Fatal(err)
	}
	series := genSeries(100, 2, 12)
	if err := st.WriteFull("v", 0, series[0]); err != nil {
		t.Fatal(err)
	}
	// Replace the committed file with one of the same length whose
	// header says another identity.
	raw, err := MarshalFull("u", 0, series[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(st.path("v", "full", 0), raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Restart("v", 0); !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), "claims u@0") {
		t.Errorf("identity mismatch: %v", err)
	}
}
