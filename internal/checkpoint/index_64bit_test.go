//go:build !(386 || arm || mips || mipsle)

package checkpoint

import "testing"

// TestMarshalChainIndexRejectsWideIteration is
// TestMarshalChainIndexRejectsBadEntries's row for an iteration past the
// fixed-width record's 31 bits, which only a 64-bit int can hold.
func TestMarshalChainIndexRejectsWideIteration(t *testing.T) {
	e := IndexEntry{Entry: Entry{Variable: "v", Kind: "full", Iteration: 1 << 31}}
	if _, err := marshalChainIndex(&ChainIndex{Entries: []IndexEntry{e}}); err == nil {
		t.Errorf("iteration %d marshaled", e.Iteration)
	}
}
