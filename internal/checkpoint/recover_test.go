package checkpoint

import (
	"bytes"
	"errors"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"numarck/internal/core"
	"numarck/internal/obs"
)

// v2Delta builds a chunked v2 delta over a generated transition and
// returns (raw file bytes, prev, clean decode).
func v2Delta(t *testing.T, n, chunkPoints int) (raw []byte, prev, want []float64) {
	t.Helper()
	series := genSeries(n, 2, 31)
	enc, err := core.Encode(series[0], series[1], opts())
	if err != nil {
		t.Fatal(err)
	}
	raw, err = MarshalDeltaV2("dens", 1, enc, chunkPoints)
	if err != nil {
		t.Fatal(err)
	}
	want, err = enc.Decode(series[0])
	if err != nil {
		t.Fatal(err)
	}
	return raw, series[0], want
}

func TestDecodeRecoverCleanFile(t *testing.T) {
	raw, prev, want := v2Delta(t, 3000, 512)
	d, err := OpenDeltaV2(bytes.NewReader(raw), int64(len(raw)))
	if err != nil {
		t.Fatal(err)
	}
	got, err := d.DecodeRecover(prev, 0, RecoverOptions{Salvage: true})
	if err != nil {
		t.Fatalf("clean file salvage decode failed: %v", err)
	}
	if !bitsEqual(got, want) {
		t.Fatal("salvage decode of a clean file differs from Decode")
	}
}

func TestDecodeRecoverCorruptChunk(t *testing.T) {
	raw, prev, want := v2Delta(t, 3000, 512)
	// Flip one byte in the middle of the file: chunk sections dominate
	// the layout, so this lands inside exactly one chunk's CRC region.
	bad := append([]byte(nil), raw...)
	bad[len(bad)*3/5] ^= 0x40
	d, err := OpenDeltaV2(bytes.NewReader(bad), int64(len(bad)))
	if err != nil {
		t.Fatalf("corruption hit metadata, not a section: %v", err)
	}

	// Fail-closed (default): the decode must fail.
	if _, err := d.DecodeRecover(prev, 0, RecoverOptions{}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("fail-closed decode of corrupt chunk = %v, want ErrCorrupt", err)
	}

	// Salvage: healthy chunks byte-identical, lost range exact.
	rec := obs.NewRecorder()
	got, err := d.DecodeRecover(prev, 0, RecoverOptions{Salvage: true, Obs: rec})
	var pde *PartialDataError
	if !errors.As(err, &pde) {
		t.Fatalf("salvage decode = %v, want *PartialDataError", err)
	}
	if !errors.Is(err, ErrCorrupt) {
		t.Fatal("PartialDataError should match ErrCorrupt via errors.Is")
	}
	if len(pde.Lost) != 1 {
		t.Fatalf("lost ranges = %v, want exactly one", pde.Lost)
	}
	lo, hi := pde.Lost[0].Lo, pde.Lost[0].Hi
	if lo%512 != 0 || (hi-lo) > 512 || hi > 3000 {
		t.Fatalf("lost range [%d,%d) does not align to a chunk", lo, hi)
	}
	if pde.LostPoints() != hi-lo {
		t.Fatalf("LostPoints = %d, want %d", pde.LostPoints(), hi-lo)
	}
	failed := 0
	for _, cs := range pde.Chunks {
		if cs.Err != nil {
			failed++
			if cs.Start != lo || cs.Start+cs.Points != hi {
				t.Fatalf("failed chunk %d spans [%d,%d), lost range says [%d,%d)",
					cs.Chunk, cs.Start, cs.Start+cs.Points, lo, hi)
			}
		}
	}
	if failed != 1 {
		t.Fatalf("%d failed chunks, want 1", failed)
	}
	for i := range got {
		inLost := i >= lo && i < hi
		if inLost {
			if math.Float64bits(got[i]) != math.Float64bits(prev[i]) {
				t.Fatalf("lost point %d is not prev's value", i)
			}
		} else if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("healthy point %d differs from clean decode", i)
		}
	}
	if n := rec.Snapshot().Counters["chunks_quarantined"]; n != 1 {
		t.Fatalf("chunks_quarantined = %d, want 1", n)
	}
}

func TestRestartSalvage(t *testing.T) {
	dir := t.TempDir()
	seedStore(t, dir, 2)
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	want1, err := st.Restart("dens", 1)
	if err != nil {
		t.Fatal(err)
	}
	want2, err := st.Restart("dens", 2)
	if err != nil {
		t.Fatal(err)
	}

	// Corrupt one chunk section of delta@2 in place, keeping the journal
	// in the dark (silent media corruption, not a torn write).
	path := filepath.Join(dir, fileName("dens", "delta", 2))
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)*3/5] ^= 0x10
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	// Fail-closed restart refuses.
	if _, err := st2.Restart("dens", 2); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("fail-closed restart over corrupt delta = %v", err)
	}
	// Salvage restart recovers everything outside the lost range.
	got, pde, err := st2.RestartSalvage("dens", 2)
	if err != nil {
		t.Fatalf("salvage restart: %v", err)
	}
	if pde == nil {
		t.Fatal("salvage restart reported no damage")
	}
	if pde.Variable != "dens" || pde.Iteration != 2 {
		t.Fatalf("damage attributed to %s@%d", pde.Variable, pde.Iteration)
	}
	if len(pde.Lost) == 0 {
		t.Fatal("no lost ranges reported")
	}
	inLost := func(i int) bool {
		for _, r := range pde.Lost {
			if i >= r.Lo && i < r.Hi {
				return true
			}
		}
		return false
	}
	for i := range got {
		if inLost(i) {
			// A point lost at iteration 2 passes through iteration 1's
			// value.
			if math.Float64bits(got[i]) != math.Float64bits(want1[i]) {
				t.Fatalf("lost point %d does not hold the prior iteration's value", i)
			}
		} else if math.Float64bits(got[i]) != math.Float64bits(want2[i]) {
			t.Fatalf("healthy point %d differs from the clean restart", i)
		}
	}
	// Deep verify reports the damage the length-only scan skipped.
	issues, err := st2.Verify()
	if err != nil {
		t.Fatal(err)
	}
	if len(issues) == 0 {
		t.Fatal("Verify missed in-place corruption the journal CRC should catch")
	}
}

// TestRestartSalvageV1FailsClosed checks salvage mode does not pretend
// to rescue v1 deltas, which have a single whole-payload CRC.
func TestRestartSalvageV1FailsClosed(t *testing.T) {
	dir := t.TempDir()
	seedStore(t, dir, 1)
	path := filepath.Join(dir, fileName("dens", "delta", 2))
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0x10
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := st.RestartSalvage("dens", 2); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("v1 salvage = %v, want fail-closed ErrCorrupt", err)
	}
}

func TestMergeRanges(t *testing.T) {
	got := mergeRanges([]Range{{10, 20}, {0, 5}, {18, 25}, {5, 7}})
	want := []Range{{0, 7}, {10, 25}}
	if len(got) != len(want) {
		t.Fatalf("merged = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("merged = %v, want %v", got, want)
		}
	}
}

// liveGoroutines is runtime.NumGoroutine taken with the world stopped.
// NumGoroutine (and GoroutineProfile(nil)) sum several scheduler
// counters without synchronization and can be off by a whole free-list
// batch (32) while any goroutine is being torn down — too loose to
// assert a bound of a few. A profile call with a non-empty slice takes
// the same count at a safepoint.
func liveGoroutines() int {
	var one [1]runtime.StackRecord
	n, _ := runtime.GoroutineProfile(one[:])
	return n
}

// goroutineGauge is a ReaderAt that records the highest goroutine count
// seen at any section read — every chunk decode passes through it, on
// the decoding goroutine, so it samples the fan-out at full width.
type goroutineGauge struct {
	r    *bytes.Reader
	peak atomic.Int64
}

func (g *goroutineGauge) ReadAt(p []byte, off int64) (int, error) {
	n := int64(liveGoroutines())
	for {
		m := g.peak.Load()
		if n <= m || g.peak.CompareAndSwap(m, n) {
			break
		}
	}
	return g.r.ReadAt(p, off)
}

// TestDecodeBoundsGoroutines pins the fan-out width: a file of many
// one-point chunks (ChunkPoints = 1 is a legal header, and ?raw=1
// uploads are client-supplied) decoded with the default worker count —
// what chain replay passes — must run on at most GOMAXPROCS goroutines,
// in salvage and fail-closed mode alike, not on one per chunk.
func TestDecodeBoundsGoroutines(t *testing.T) {
	const n = 1000
	raw, prev, want := v2Delta(t, n, 1)
	bad := append([]byte(nil), raw...)
	d0, err := OpenDeltaV2(bytes.NewReader(raw), int64(len(raw)))
	if err != nil {
		t.Fatal(err)
	}
	if d0.Meta().ChunkCount != n {
		t.Fatalf("file has %d chunks, want %d", d0.Meta().ChunkCount, n)
	}
	bad[d0.dir[n/2].off] ^= 0x01 // one damaged chunk for the salvage run

	base := liveGoroutines()
	limit := int64(base + runtime.GOMAXPROCS(0))
	for _, salvage := range []bool{true, false} {
		src := raw
		if salvage {
			src = bad
		}
		// The previous run's workers have passed wg.Done but may still
		// be exiting; let them go before sampling this run.
		for deadline := time.Now().Add(5 * time.Second); liveGoroutines() > base; {
			if time.Now().After(deadline) {
				t.Fatalf("%d goroutines still alive, %d before the first decode", liveGoroutines(), base)
			}
			time.Sleep(time.Millisecond)
		}
		g := &goroutineGauge{r: bytes.NewReader(src)}
		d, err := OpenDeltaV2(g, int64(len(src)))
		if err != nil {
			t.Fatal(err)
		}
		got, err := d.DecodeRecover(prev, 0, RecoverOptions{Salvage: salvage})
		if salvage {
			var pde *PartialDataError
			if !errors.As(err, &pde) || pde.LostPoints() != 1 {
				t.Fatalf("salvage decode = %v, want one lost point", err)
			}
			got[n/2] = want[n/2]
		} else if err != nil {
			t.Fatal(err)
		}
		if !bitsEqual(got, want) {
			t.Fatalf("salvage=%v: decode differs", salvage)
		}
		if peak := g.peak.Load(); peak > limit {
			t.Errorf("salvage=%v: %d goroutines at peak decoding %d chunks, want <= %d (baseline + GOMAXPROCS)", salvage, peak, n, limit)
		}
	}
}
