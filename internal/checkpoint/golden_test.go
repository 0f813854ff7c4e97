package checkpoint

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"numarck/internal/core"
)

// Golden values recorded from the commit before the one-reader merge
// (c05f920): the restart state of goldenChain at iteration 12, and the
// salvage restart of the same chain with one chunk of delta@6 damaged.
// In-place replay must be the same arithmetic in the same order, so
// these never move.
const (
	goldenRestartHash = 0x14bcede1aaff6de3
	goldenSalvageHash = 0xffadca09722711d1
)

var goldenSalvageLost = []Range{{Lo: 1024, Hi: 1536}}

// stateHash folds the exact bit patterns of a state into one number.
func stateHash(vals []float64) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, v := range vals {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
	return h.Sum64()
}

// goldenChain writes the pinned store into dir: full@0 and twelve
// deltas, odd iterations as v1 files and even ones as v2 files of
// 512-point chunks (six chunks, the last one short), encoded closed
// loop. Zeros that become non-zero and sign flips force incompressible
// points into every delta.
func goldenChain(t *testing.T, dir string) {
	t.Helper()
	const n, deltas = 3000, 12
	rng := rand.New(rand.NewSource(1914))
	cur := make([]float64, n)
	for j := range cur {
		cur[j] = 50 + rng.Float64()*100
		if j%97 == 0 {
			cur[j] = 0
		}
	}
	opt := core.Options{ErrorBound: 0.001, IndexBits: 8, Strategy: core.Clustering, Workers: 1}
	st, err := Create(dir, opt)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.WriteFull("dens", 0, cur); err != nil {
		t.Fatal(err)
	}
	recon := append([]float64(nil), cur...)
	for i := 1; i <= deltas; i++ {
		for j := range cur {
			switch {
			case j%97 == i%97:
				cur[j] = -cur[j] + 1
			default:
				cur[j] *= 1 + rng.NormFloat64()*0.003
			}
		}
		enc, err := core.Encode(recon, cur, opt)
		if err != nil {
			t.Fatal(err)
		}
		if g := enc.Gamma(); g == 0 || g > 0.2 {
			t.Fatalf("delta %d: incompressible share %v, want a few", i, g)
		}
		var raw []byte
		if i%2 == 1 {
			raw, err = marshalV1("dens", i, enc)
		} else {
			raw, err = MarshalDeltaV2("dens", i, enc, 512)
		}
		if err != nil {
			t.Fatal(err)
		}
		if err := st.WriteRawDelta("dens", i, raw); err != nil {
			t.Fatal(err)
		}
		if recon, err = enc.Decode(recon); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestGoldenRestartState pins ROADMAP item 3's "same arithmetic in the
// same order": every restart path over a chain mixing both delta
// formats reproduces the recorded state bit for bit.
func TestGoldenRestartState(t *testing.T) {
	dir := t.TempDir()
	goldenChain(t, dir)
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	rv, err := OpenReadOnly(dir)
	if err != nil {
		t.Fatal(err)
	}
	check := func(path string, got []float64, pde *PartialDataError, err error) {
		t.Helper()
		if err != nil || pde != nil {
			t.Fatalf("%s: pde=%v err=%v", path, pde, err)
		}
		if h := stateHash(got); h != goldenRestartHash {
			t.Errorf("%s: state hash %#x, want %#x", path, h, uint64(goldenRestartHash))
		}
	}
	got, err := st.Restart("dens", 12)
	check("Store.Restart", got, nil, err)
	got, err = rv.Restart("dens", 12)
	check("ReadView.Restart", got, nil, err)
	got, pde, err := st.RestartSalvage("dens", 12)
	check("Store.RestartSalvage", got, pde, err)
	got, pde, err = rv.RestartSalvage("dens", 12)
	check("ReadView.RestartSalvage", got, pde, err)
}

// TestGoldenSalvageInPlace damages one chunk of the mid-chain v2
// delta@6: the lost range and every value of the salvaged state —
// stale points carried through six more deltas included — equal what
// the copy-out replay produced.
func TestGoldenSalvageInPlace(t *testing.T) {
	dir := t.TempDir()
	goldenChain(t, dir)
	path := filepath.Join(dir, fileName("dens", "delta", 6))
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)*3/5] ^= 0x10
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	rv, err := OpenReadOnly(dir)
	if err != nil {
		t.Fatal(err)
	}
	got, pde, err := rv.RestartSalvage("dens", 12)
	if err != nil {
		t.Fatal(err)
	}
	if pde == nil || pde.Iteration != 6 {
		t.Fatalf("damage report = %v, want delta@6", pde)
	}
	if len(pde.Lost) != len(goldenSalvageLost) {
		t.Fatalf("lost ranges %v, want %v", pde.Lost, goldenSalvageLost)
	}
	for i, r := range pde.Lost {
		if r != goldenSalvageLost[i] {
			t.Fatalf("lost ranges %v, want %v", pde.Lost, goldenSalvageLost)
		}
	}
	if h := stateHash(got); h != goldenSalvageHash {
		t.Errorf("salvaged state hash %#x, want %#x", h, uint64(goldenSalvageHash))
	}
}
