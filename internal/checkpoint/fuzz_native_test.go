package checkpoint

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"

	"numarck/internal/core"
)

func bytesReaderAt(raw []byte) *bytes.Reader { return bytes.NewReader(raw) }

// seedDelta builds one small valid delta file for the fuzz corpora.
func seedDelta(tb testing.TB) []byte {
	tb.Helper()
	series := genSeries(256, 2, 97)
	enc, err := core.Encode(series[0], series[1], opts())
	if err != nil {
		tb.Fatal(err)
	}
	raw, err := marshalV1("v", 1, enc)
	if err != nil {
		tb.Fatal(err)
	}
	return raw
}

// FuzzUnmarshalDelta is the native-fuzzing counterpart of the random
// corruption tests above: arbitrary bytes must either parse into an
// encoding that Decode accepts, or fail with an error — never panic.
func FuzzUnmarshalDelta(f *testing.F) {
	f.Add(seedDelta(f))
	f.Add([]byte{})
	f.Add([]byte("NMKD"))
	f.Fuzz(func(t *testing.T, raw []byte) {
		variable, _, enc, err := UnmarshalDelta(raw)
		if err != nil {
			return
		}
		if variable == "" {
			t.Error("accepted delta with empty variable name")
		}
		// A header the parser accepted must also be decodable without
		// panicking; decode errors are fine.
		prev := make([]float64, len(enc.Indices))
		_, _ = enc.Decode(prev)
	})
}

// seedDeltaV2 builds a small valid chunked delta file for the fuzz
// corpus, with a chunk size that does not divide n.
func seedDeltaV2(tb testing.TB) []byte {
	tb.Helper()
	series := genSeries(256, 2, 97)
	enc, err := core.Encode(series[0], series[1], opts())
	if err != nil {
		tb.Fatal(err)
	}
	raw, err := MarshalDeltaV2("v", 1, enc, 100)
	if err != nil {
		tb.Fatal(err)
	}
	return raw
}

// FuzzUnmarshalDeltaV2 throws arbitrary bytes at the delta reader from
// a chunked-format corpus: truncated chunk headers, lying directory
// offsets, and CRC mismatches must all surface as errors, never as
// panics or silent misreads. It shares the one parser with
// FuzzUnmarshalDelta; the two targets keep their own corpora (both hold
// the crafted-header seeds of TestCraftedHeaderCounts).
func FuzzUnmarshalDeltaV2(f *testing.F) {
	f.Add(seedDeltaV2(f))
	f.Add(seedDelta(f)) // a v1 file is a one-chunk file to the same reader
	f.Add([]byte{})
	f.Add([]byte("NMRKD2"))
	f.Fuzz(func(t *testing.T, raw []byte) {
		variable, _, enc, err := UnmarshalDeltaV2(raw)
		if err != nil {
			return
		}
		if variable == "" {
			t.Error("accepted delta with empty variable name")
		}
		prev := make([]float64, enc.N)
		if _, err := enc.Decode(prev); err != nil {
			t.Errorf("accepted file does not decode: %v", err)
		}
		// The random-access reader must agree with the assembled view.
		d, err := OpenDeltaV2(bytesReaderAt(raw), int64(len(raw)))
		if err != nil {
			t.Fatalf("reopen of accepted file failed: %v", err)
		}
		if _, err := decodeChunks(d, prev); err != nil {
			t.Errorf("chunk decode of accepted file failed: %v", err)
		}
	})
}

// FuzzUnmarshalFull covers the full-checkpoint parser the same way.
func FuzzUnmarshalFull(f *testing.F) {
	series := genSeries(64, 1, 7)
	raw, err := MarshalFull("v", 0, series[0])
	if err != nil {
		f.Fatal(err)
	}
	f.Add(raw)
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, raw []byte) {
		_, _, data, err := UnmarshalFull(raw)
		if err == nil && data == nil {
			t.Error("nil data with nil error")
		}
	})
}

// seedChainIndex builds a small valid CHAININDEX image for the fuzz
// corpus.
func seedChainIndex(tb testing.TB) []byte {
	tb.Helper()
	raw, err := marshalChainIndex(&ChainIndex{
		Seq:            3,
		JournalLen:     512,
		JournalTailCRC: 0xabad1dea,
		Entries: []IndexEntry{
			{Entry: Entry{Variable: "dens", Kind: "full", Iteration: 0}, Len: 4096, CRC: 1},
			{Entry: Entry{Variable: "dens", Kind: "delta", Iteration: 1}, Len: 512, CRC: 2},
		},
	})
	if err != nil {
		tb.Fatal(err)
	}
	return raw
}

// FuzzParseChainIndex throws arbitrary bytes at the chain-index parser:
// framing lies, CRC damage, and hostile record fields must all surface
// as errors, never as panics — and anything the parser does accept must
// survive a marshal/parse round trip, because readers rebuild their
// entire view of the store from it.
func FuzzParseChainIndex(f *testing.F) {
	f.Add(seedChainIndex(f))
	f.Add([]byte{})
	f.Add([]byte("NMRKX1"))
	f.Add(marshalLock(lockInfo{PID: 1, Nonce: 2})) // cousin format must be rejected
	// A count whose 32-bit size math wraps to exactly len(raw); must be
	// rejected by 64-bit framing, not sliced out of range.
	f.Add(func() []byte {
		b := seedChainIndex(f)
		binary.LittleEndian.PutUint32(b[28:], binary.LittleEndian.Uint32(b[28:])+1<<29)
		return b
	}())
	f.Fuzz(func(t *testing.T, raw []byte) {
		ix, err := ParseChainIndex(raw)
		if err != nil {
			return
		}
		if len(raw) != indexHeaderSize+indexRecordSize*len(ix.Entries)+4 {
			t.Fatalf("accepted %d bytes as %d entries", len(raw), len(ix.Entries))
		}
		for i, e := range ix.Entries {
			if ValidateVariable(e.Variable) != nil || e.Iteration < 0 || e.Len < 0 {
				t.Fatalf("accepted hostile record %d: %+v", i, e)
			}
			if e.Kind != "full" && e.Kind != "delta" {
				t.Fatalf("accepted unknown kind %q", e.Kind)
			}
		}
		out, err := marshalChainIndex(ix)
		if err != nil {
			t.Fatalf("accepted index does not re-marshal: %v", err)
		}
		ix2, err := ParseChainIndex(out)
		if err != nil {
			t.Fatalf("re-marshaled index does not parse: %v", err)
		}
		if len(ix2.Entries) != len(ix.Entries) || ix2.Seq != ix.Seq {
			t.Fatal("round trip changed the index")
		}
	})
}

// FuzzRecoverDeltaV2 exercises the degraded-mode decode against
// mutated v2 bytes: ReplayDelta must never panic, every point it
// reports lost must hold prev's value exactly (data from a failed-CRC
// chunk must never leak into the output), and every point it does not
// report lost must be a real decode.
func FuzzRecoverDeltaV2(f *testing.F) {
	f.Add(seedDeltaV2(f))
	f.Add([]byte{})
	f.Add([]byte("NMRKD2"))
	f.Fuzz(func(t *testing.T, raw []byte) {
		d, err := OpenDeltaV2(bytesReaderAt(raw), int64(len(raw)))
		if err != nil {
			return // structurally rejected before any chunk work
		}
		meta := d.Meta()
		if meta.N > 1<<16 {
			return // bound the allocation the fuzzer can request
		}
		prev := make([]float64, meta.N)
		for i := range prev {
			prev[i] = 100 + float64(i)
		}
		out := append([]float64(nil), prev...)
		pde, err := ReplayDelta(raw, meta.Variable, meta.Iteration, out, &ChunkDecoder{}, RecoverOptions{Salvage: true})
		if err != nil || pde == nil {
			return // fully healthy mutant, or a non-chunk-local failure: fail-closed, nothing to check
		}
		inLost := func(i int) bool {
			for _, r := range pde.Lost {
				if i >= r.Lo && i < r.Hi {
					return true
				}
			}
			return false
		}
		for i := range out {
			if inLost(i) && math.Float64bits(out[i]) != math.Float64bits(prev[i]) {
				t.Fatalf("lost point %d holds data from a failed chunk", i)
			}
		}
		for _, r := range pde.Lost {
			if r.Lo < 0 || r.Hi > meta.N || r.Lo >= r.Hi {
				t.Fatalf("lost range %v out of bounds for %d points", r, meta.N)
			}
		}
	})
}
