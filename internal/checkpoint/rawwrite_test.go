package checkpoint

import (
	"bytes"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"numarck/internal/core"
)

// craftedFullTableBits is a 76-byte full checkpoint, CRC-valid, whose
// FPC payload is the bare stream header FPC1 | table bits 24 | n = 0: it
// declares predictor tables of 2^24 entries for no values at all.
func craftedFullTableBits(tb testing.TB) []byte {
	var buf bytes.Buffer
	payload := append([]byte("FPC1"), 24, 0, 0, 0, 0, 0, 0, 0, 0)
	if err := writeFile(&buf, magicFull, fileHeader{Variable: "v"}, payload); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// TestWriteRawRefusesOversizedFPCTables is the regression test for a
// 76-byte request body that made the store allocate 256 MiB, outside
// any accounting, and then accepted it: WriteRaw deep-parses a full
// checkpoint, and the FPC decoder used to size its tables from the
// stream's table-bits byte before looking at its count. The file is
// also a checked-in FuzzUnmarshalFull seed, so every plain go test
// replays it through UnmarshalFull.
func TestWriteRawRefusesOversizedFPCTables(t *testing.T) {
	raw := craftedFullTableBits(t)
	if len(raw) != 76 {
		t.Fatalf("crafted file is %d bytes, want 76", len(raw))
	}
	seed, err := os.ReadFile(filepath.Join("testdata", "fuzz", "FuzzUnmarshalFull", "crafted-fpc-table-bits-24"))
	if err != nil {
		t.Fatal(err)
	}
	if want := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", raw); string(seed) != want {
		t.Fatalf("the fuzz seed is not the crafted file:\n%s\nwant\n%s", seed, want)
	}

	st, err := Create(filepath.Join(t.TempDir(), "ck"), opts())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err = st.WriteRaw("v", 0, raw, 0)
	runtime.ReadMemStats(&after)
	if !errors.Is(err, ErrBadVariable) || !errors.Is(err, ErrCorrupt) {
		t.Errorf("WriteRaw of the crafted full = %v, want ErrBadVariable wrapping ErrCorrupt", err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > 8<<20 {
		t.Errorf("WriteRaw of a 76-byte file allocated %d bytes, want < 8 MiB", got)
	}
	if vars, _ := st.Variables(); len(vars) != 0 {
		t.Errorf("the refused file was committed: variables %v", vars)
	}
}

// TestWriteRawRoundTrip commits pre-marshalled full and v2-delta bytes
// through the raw hooks and checks the chain restores exactly what the
// in-process write path would, and that the read view's Chain entries
// carry the committed files' true lengths and CRCs.
func TestWriteRawRoundTrip(t *testing.T) {
	dir := t.TempDir()
	series := genSeries(2000, 2, 41)
	fullRaw, err := MarshalFull("dens", 0, series[0])
	if err != nil {
		t.Fatal(err)
	}
	enc, err := core.Encode(series[0], series[1], opts())
	if err != nil {
		t.Fatal(err)
	}
	deltaRaw, err := MarshalDeltaV2("dens", 1, enc, 512)
	if err != nil {
		t.Fatal(err)
	}
	want, err := enc.Decode(series[0])
	if err != nil {
		t.Fatal(err)
	}

	st, err := Create(dir, opts())
	if err != nil {
		t.Fatal(err)
	}
	if kind, err := st.WriteRaw("dens", 0, fullRaw, 0); err != nil || kind != "full" {
		t.Fatal(kind, err)
	}
	if err := st.WriteRawDelta("dens", 1, deltaRaw); err != nil {
		t.Fatal(err)
	}
	got, err := st.Restart("dens", 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("restart differs at %d: %v vs %v", i, got[i], want[i])
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	rv, err := OpenReadOnly(dir)
	if err != nil {
		t.Fatal(err)
	}
	chain, err := rv.Chain("dens")
	if err != nil {
		t.Fatal(err)
	}
	if len(chain) != 2 {
		t.Fatalf("chain has %d entries, want 2", len(chain))
	}
	for i, raw := range [][]byte{fullRaw, deltaRaw} {
		ce := chain[i]
		if ce.Len != int64(len(raw)) {
			t.Errorf("entry %d: journaled len %d, file is %d bytes", i, ce.Len, len(raw))
		}
		if ce.CRC != crc32.ChecksumIEEE(raw) {
			t.Errorf("entry %d: journaled CRC %08x differs from committed bytes", i, ce.CRC)
		}
		onDisk, err := os.ReadFile(filepath.Join(dir, ce.Name))
		if err != nil {
			t.Fatal(err)
		}
		if int64(len(onDisk)) != ce.Len {
			t.Errorf("entry %d: on-disk size %d, journaled %d", i, len(onDisk), ce.Len)
		}
	}
}

// TestWriteRawRejectsMismatch checks both raw hooks refuse bytes whose
// header identity disagrees with the commit target: a raw commit must
// never be able to plant variable A's data under variable B's name.
func TestWriteRawRejectsMismatch(t *testing.T) {
	dir := t.TempDir()
	series := genSeries(500, 2, 42)
	fullRaw, err := MarshalFull("dens", 0, series[0])
	if err != nil {
		t.Fatal(err)
	}
	enc, err := core.Encode(series[0], series[1], opts())
	if err != nil {
		t.Fatal(err)
	}
	deltaRaw, err := MarshalDelta("dens", 1, enc)
	if err != nil {
		t.Fatal(err)
	}

	st, err := Create(dir, opts())
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := st.Close(); err != nil {
			t.Error(err)
		}
	}()

	if _, err := st.WriteRaw("pres", 0, fullRaw, 0); !errors.Is(err, ErrBadVariable) {
		t.Errorf("wrong variable = %v, want ErrBadVariable", err)
	}
	if _, err := st.WriteRaw("dens", 3, fullRaw, 0); !errors.Is(err, ErrBadVariable) {
		t.Errorf("wrong iteration = %v, want ErrBadVariable", err)
	}
	if err := st.WriteRawDelta("pres", 1, deltaRaw); !errors.Is(err, ErrBadVariable) {
		t.Errorf("delta wrong variable = %v, want ErrBadVariable", err)
	}
	if _, err := st.WriteRaw("../oops", 0, fullRaw, 0); !errors.Is(err, ErrBadVariable) {
		t.Errorf("path-escape variable = %v, want ErrBadVariable", err)
	}
	if _, err := st.WriteRaw("dens", 0, fullRaw[:20], 0); !errors.Is(err, ErrCorrupt) {
		t.Errorf("truncated raw = %v, want ErrCorrupt", err)
	}
	if err := st.WriteRawDelta("dens", 1, []byte("garbage")); !errors.Is(err, ErrCorrupt) {
		t.Errorf("garbage delta = %v, want ErrCorrupt", err)
	}
	// A parse failure is the caller's input too: ErrBadVariable, with the
	// ErrCorrupt cause kept.
	if _, err := st.WriteRaw("dens", 1, deltaRaw[:len(deltaRaw)-3], 0); !errors.Is(err, ErrBadVariable) || !errors.Is(err, ErrCorrupt) {
		t.Errorf("truncated delta = %v, want ErrBadVariable and ErrCorrupt", err)
	}
	if err := st.WriteRawDelta("dens", 0, fullRaw); !errors.Is(err, ErrBadVariable) {
		t.Errorf("full through WriteRawDelta = %v, want ErrBadVariable", err)
	}
	// Nothing above may have committed.
	if entries, err := st.List("dens"); err != nil || len(entries) != 0 {
		t.Fatalf("rejected commits left entries: %v, %v", entries, err)
	}
}

// TestReadViewVerify checks the lock-free deep verify: clean on a
// healthy store, and reporting ErrCorrupt when a committed file's bytes
// are flipped behind the journal's back — all without taking the
// writer lock.
func TestReadViewVerify(t *testing.T) {
	dir := t.TempDir()
	series := genSeries(1500, 3, 43)
	st, err := Create(dir, opts())
	if err != nil {
		t.Fatal(err)
	}
	if err := st.WriteFull("dens", 0, series[0]); err != nil {
		t.Fatal(err)
	}
	for i := 1; i < 3; i++ {
		if err := writeDelta(st, "dens", i, series[i-1], series[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	rv, err := OpenReadOnly(dir)
	if err != nil {
		t.Fatal(err)
	}
	issues, err := rv.Verify()
	if err != nil {
		t.Fatal(err)
	}
	if len(issues) != 0 {
		t.Fatalf("clean store: %d issues: %v", len(issues), issues)
	}

	// Flip one byte of the first delta behind the journal's back.
	path := filepath.Join(dir, fileName("dens", "delta", 1))
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0x01
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	rv2, err := OpenReadOnly(dir)
	if err != nil {
		t.Fatal(err)
	}
	issues, err = rv2.Verify()
	if err != nil {
		t.Fatal(err)
	}
	var hit bool
	for _, is := range issues {
		if is.Variable == "dens" && is.Iteration == 1 && errors.Is(is.Err, ErrCorrupt) {
			hit = true
		}
	}
	if !hit {
		t.Fatalf("corrupted delta not reported: %v", issues)
	}
}

// TestLockHeldErrorAge checks a second writer learns when the holder
// acquired the lock: the daemon maps this onto its 423 Locked response.
func TestLockHeldErrorAge(t *testing.T) {
	dir := t.TempDir()
	st, err := Create(dir, opts())
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := st.Close(); err != nil {
			t.Error(err)
		}
	}()
	_, err = Open(dir)
	var lh *LockHeldError
	if !errors.As(err, &lh) {
		t.Fatalf("second Open = %v, want *LockHeldError", err)
	}
	if lh.PID != os.Getpid() {
		t.Errorf("holder PID = %d, want %d", lh.PID, os.Getpid())
	}
	if lh.Acquired <= 0 {
		t.Fatalf("Acquired = %d, want the holder's acquisition time", lh.Acquired)
	}
	if age := lh.Age(); age <= 0 {
		t.Errorf("Age() = %v, want positive", age)
	}
	if (&LockHeldError{}).Age() != 0 {
		t.Error("zero-value Age() should be 0")
	}
}
