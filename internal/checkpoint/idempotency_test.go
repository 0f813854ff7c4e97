package checkpoint

import (
	"hash/crc32"
	"testing"

	"numarck/internal/core"
)

// idemOptions is the encode config the idempotency tests share.
func idemOptions() core.Options {
	return core.Options{ErrorBound: 0.001, IndexBits: 8, Strategy: core.EqualWidth}
}

// TestPayloadCRCSurvivesReopen commits with an explicit payload CRC
// and checks Committed reports it — through the in-memory chain, and
// again after a close/reopen cycle that rebuilds the chain from the
// MANIFEST journal.
func TestPayloadCRCSurvivesReopen(t *testing.T) {
	dir := t.TempDir() + "/store"
	st, err := Create(dir, idemOptions())
	if err != nil {
		t.Fatal(err)
	}
	vals := []float64{1, 2, 3, 4}
	raw, err := MarshalFull("v", 0, vals)
	if err != nil {
		t.Fatal(err)
	}
	const payloadCRC = uint32(0xDEADBEEF)
	if _, err := st.WriteRaw("v", 0, raw, payloadCRC); err != nil {
		t.Fatal(err)
	}
	check := func(stage string, st *Store) {
		t.Helper()
		ce, ok := st.Committed("v", 0)
		if !ok {
			t.Fatalf("%s: Committed(v,0) not found", stage)
		}
		if ce.PayloadCRC != payloadCRC {
			t.Fatalf("%s: PayloadCRC = %08x, want %08x", stage, ce.PayloadCRC, payloadCRC)
		}
		if ce.Kind != "full" || ce.Len != int64(len(raw)) || ce.CRC != crc32.ChecksumIEEE(raw) {
			t.Fatalf("%s: entry = %+v", stage, ce)
		}
		if _, ok := st.Committed("v", 1); ok {
			t.Fatalf("%s: phantom commit at iteration 1", stage)
		}
	}
	check("fresh", st)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	st2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		// Read-only assertions follow; a close error cannot lose data.
		_ = st2.Close()
	}()
	check("reopened", st2)
}

// TestPayloadCRCDefaultsToFileCRC checks that WriteRawDelta journals
// the file's own CRC as the payload CRC — a raw commit's payload is the
// file itself.
func TestPayloadCRCDefaultsToFileCRC(t *testing.T) {
	dir := t.TempDir() + "/store"
	st, err := Create(dir, idemOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		// Assertions are in-memory only; a close error cannot lose data.
		_ = st.Close()
	}()
	enc, err := core.Encode([]float64{5, 6, 7}, []float64{5, 6.5, 7}, idemOptions())
	if err != nil {
		t.Fatal(err)
	}
	raw, err := MarshalDelta("v", 1, enc)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.WriteRawDelta("v", 1, raw); err != nil {
		t.Fatal(err)
	}
	ce, ok := st.Committed("v", 1)
	if !ok {
		t.Fatal("Committed(v,1) not found")
	}
	if ce.PayloadCRC != ce.CRC || ce.PayloadCRC != crc32.ChecksumIEEE(raw) {
		t.Fatalf("PayloadCRC = %08x, CRC = %08x, want both = file CRC", ce.PayloadCRC, ce.CRC)
	}
}
