package checkpoint

import (
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"numarck/internal/faultfs"
)

// sampleIndex builds a small in-memory chain index for marshal/parse
// tests.
func sampleIndex() *ChainIndex {
	return &ChainIndex{
		Seq:            7,
		JournalLen:     1234,
		JournalTailCRC: 0xdeadbeef,
		Entries: []IndexEntry{
			{Entry: Entry{Variable: "dens", Kind: "full", Iteration: 0}, Len: 8000, CRC: 0x11},
			{Entry: Entry{Variable: "dens", Kind: "delta", Iteration: 1}, Len: 900, CRC: 0x22},
			{Entry: Entry{Variable: "pres.v2", Kind: "delta", Iteration: 2}, Len: 700, CRC: 0x33},
		},
	}
}

// TestChainIndexRoundTrip checks marshal followed by parse reproduces
// the index exactly, including an empty one.
func TestChainIndexRoundTrip(t *testing.T) {
	for name, ix := range map[string]*ChainIndex{
		"populated": sampleIndex(),
		"empty":     {Seq: 1, JournalLen: 42, JournalTailCRC: 9},
	} {
		t.Run(name, func(t *testing.T) {
			raw, err := marshalChainIndex(ix)
			if err != nil {
				t.Fatal(err)
			}
			if want := indexHeaderSize + indexRecordSize*len(ix.Entries) + 4; len(raw) != want {
				t.Fatalf("marshaled %d bytes, want %d", len(raw), want)
			}
			got, err := ParseChainIndex(raw)
			if err != nil {
				t.Fatal(err)
			}
			if got.Seq != ix.Seq || got.JournalLen != ix.JournalLen || got.JournalTailCRC != ix.JournalTailCRC {
				t.Errorf("header round-trip: got %+v", got)
			}
			if len(got.Entries) != len(ix.Entries) {
				t.Fatalf("entry count %d, want %d", len(got.Entries), len(ix.Entries))
			}
			if len(ix.Entries) > 0 && !reflect.DeepEqual(got.Entries, ix.Entries) {
				t.Errorf("entries round-trip:\n got %+v\nwant %+v", got.Entries, ix.Entries)
			}
		})
	}
}

// TestMarshalChainIndexRejectsBadEntries checks the marshaller refuses
// names and iterations the fixed-width record cannot represent, instead
// of silently truncating them.
func TestMarshalChainIndexRejectsBadEntries(t *testing.T) {
	long := make([]byte, MaxVariableLen+1)
	for i := range long {
		long[i] = 'a'
	}
	bad := []IndexEntry{
		{Entry: Entry{Variable: string(long), Kind: "full", Iteration: 0}},
		{Entry: Entry{Variable: "../escape", Kind: "full", Iteration: 0}},
		{Entry: Entry{Variable: "v", Kind: "full", Iteration: -1}},
	}
	for i, e := range bad {
		if _, err := marshalChainIndex(&ChainIndex{Entries: []IndexEntry{e}}); err == nil {
			t.Errorf("entry %d (%q iter %d) marshaled", i, e.Variable, e.Iteration)
		}
	}
}

// TestParseChainIndexRejects checks every framing and content violation
// of the index file is an explicit ErrCorrupt — truncations also match
// ErrTruncated — so a damaged index is always detected, never misread.
func TestParseChainIndexRejects(t *testing.T) {
	good, err := marshalChainIndex(sampleIndex())
	if err != nil {
		t.Fatal(err)
	}
	clone := func(mut func(b []byte)) []byte {
		b := append([]byte{}, good...)
		mut(b)
		return b
	}
	cases := map[string][]byte{
		"empty":            {},
		"short header":     good[:indexHeaderSize/2],
		"truncated record": good[:len(good)-20],
		"missing crc":      good[:len(good)-4],
		"trailing junk":    append(append([]byte{}, good...), 1, 2, 3),
		"bad magic":        clone(func(b []byte) { b[0] = 'X' }),
		"bad version":      clone(func(b []byte) { b[6] = 99 }),
		"flipped header":   clone(func(b []byte) { b[9] ^= 1 }),
		"flipped record":   clone(func(b []byte) { b[indexHeaderSize+3] ^= 1 }),
		"flipped crc":      clone(func(b []byte) { b[len(b)-1] ^= 1 }),
		// count + 2^29 makes 32-bit int size math (88 * count) wrap by
		// exactly 2^32, so a 32-bit want would collide with len(raw) and
		// the record loop would slice out of range; the framing check must
		// stay in 64-bit arithmetic and reject it on every platform.
		"wrapping count": clone(func(b []byte) {
			binary.LittleEndian.PutUint32(b[28:], binary.LittleEndian.Uint32(b[28:])+1<<29)
		}),
	}
	for name, raw := range cases {
		if _, err := ParseChainIndex(raw); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: ParseChainIndex = %v, want ErrCorrupt", name, err)
		}
	}
	for _, name := range []string{"short header", "truncated record", "missing crc"} {
		if _, err := ParseChainIndex(cases[name]); !errors.Is(err, ErrTruncated) {
			t.Errorf("%s: ParseChainIndex = %v, want ErrTruncated", name, err)
		}
	}
}

// TestIndexPublishedOnEveryCommit checks the writer's contract with
// readers: after Create and after every commit a CHAININDEX exists on
// disk that is anchored to the journal's current state, carries a
// strictly increasing sequence, and lists exactly the live chain.
func TestIndexPublishedOnEveryCommit(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "ck")
	fsys := faultfs.OS()
	st, err := Create(dir, opts())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	series := genSeries(2000, 4, 5)
	lastSeq := uint64(0)
	check := func(wantEntries int) {
		t.Helper()
		ix, err := loadIndex(fsys, dir)
		if err != nil || ix == nil {
			t.Fatalf("loadIndex = %v, %v", ix, err)
		}
		if ix.Seq <= lastSeq {
			t.Errorf("index seq %d did not advance past %d", ix.Seq, lastSeq)
		}
		lastSeq = ix.Seq
		if len(ix.Entries) != wantEntries {
			t.Errorf("index lists %d entries, want %d", len(ix.Entries), wantEntries)
		}
		tok, err := readJournalToken(fsys, dir)
		if err != nil {
			t.Fatal(err)
		}
		if !ix.matches(tok) {
			t.Errorf("published index is stale: anchor (%d, %08x) vs journal (%d, %08x)",
				ix.JournalLen, ix.JournalTailCRC, tok.Len, tok.TailCRC)
		}
		if ix.Seq != st.IndexSeq() {
			t.Errorf("on-disk seq %d != store seq %d", ix.Seq, st.IndexSeq())
		}
	}
	check(0)
	if err := st.WriteFull("dens", 0, series[0]); err != nil {
		t.Fatal(err)
	}
	check(1)
	prev := series[0]
	for i := 1; i <= 3; i++ {
		if err := writeDelta(st, "dens", i, prev, series[i]); err != nil {
			t.Fatal(err)
		}
		check(i + 1)
	}

	// GC republishes once; the index never lists removed files.
	if err := st.WriteFull("dens", 4, series[3]); err != nil {
		t.Fatal(err)
	}
	check(5)
	if _, err := st.GC(4); err != nil {
		t.Fatal(err)
	}
	check(1)
}

// TestReconcileIndexAdoptsFreshRebuildStale checks open-time index
// reconciliation: a clean reopen adopts the published index (sequence
// preserved, no rebuild), while a stale or corrupt one is rebuilt with
// a higher sequence.
func TestReconcileIndexAdoptsFreshRebuildStale(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "ck")
	st, err := Create(dir, opts())
	if err != nil {
		t.Fatal(err)
	}
	if err := st.WriteFull("dens", 0, genSeries(500, 1, 8)[0]); err != nil {
		t.Fatal(err)
	}
	seq := st.IndexSeq()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if st2.IndexSeq() != seq {
		t.Errorf("clean reopen seq %d, want adopted %d", st2.IndexSeq(), seq)
	}
	if h := st2.IndexHealth(); !h.Present || !h.Fresh {
		t.Errorf("clean reopen index health: %s", h)
	}
	if err := st2.Close(); err != nil {
		t.Fatal(err)
	}

	// Corrupt the index: the next open must rebuild it.
	path := filepath.Join(dir, indexName)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0xff
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	st3, err := Open(dir)
	if err != nil {
		t.Fatalf("open with corrupt index: %v", err)
	}
	defer st3.Close()
	if h := st3.IndexHealth(); !h.Present || !h.Fresh {
		t.Errorf("index not rebuilt after corruption: %s", h)
	}
	// The old sequence died with the unparsable file; what matters is
	// that the rebuilt index is published and fresh (correctness is
	// anchored to the journal token, not the sequence).
	if st3.IndexSeq() == 0 {
		t.Error("rebuilt index has sequence 0")
	}
	if _, err := st3.Restart("dens", 0); err != nil {
		t.Errorf("restart after rebuild: %v", err)
	}
}
