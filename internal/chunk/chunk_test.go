package chunk

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"numarck/internal/checkpoint"
	"numarck/internal/core"
	"numarck/internal/rawio"
)

// genPair builds a prev/cur transition mixing every ratio class: zero
// bases, unchanged points, ratios under the bound, and large ratios.
func genPair(n int, seed int64) (prev, cur []float64) {
	rng := rand.New(rand.NewSource(seed))
	prev = make([]float64, n)
	cur = make([]float64, n)
	for j := range prev {
		switch rng.Intn(10) {
		case 0: // no base: stored exactly
			prev[j] = 0
			cur[j] = rng.NormFloat64()
		case 1: // unchanged
			prev[j] = 2 + rng.Float64()
			cur[j] = prev[j]
		case 2: // tiny ratio, inside the bound
			base := 1 + rng.Float64()
			prev[j] = base
			cur[j] = base * (1 + 1e-5*rng.NormFloat64())
		default: // large ratio
			base := 1 + rng.Float64()
			prev[j] = base
			cur[j] = base * (1 + 0.05*rng.NormFloat64())
		}
	}
	return prev, cur
}

// TestStreamingMatchesInMemory is the byte-identity property test: for
// every binning strategy, index widths whose packed values straddle
// byte and chunk boundaries, and chunk sizes that do not divide n, the
// streaming encoder's bytes equal MarshalDeltaV2 of the in-memory
// encode at the same chunk granularity.
func TestStreamingMatchesInMemory(t *testing.T) {
	const n = 5000
	prev, cur := genPair(n, 42)
	for _, strategy := range []core.Strategy{core.EqualWidth, core.LogScale, core.Clustering, core.EqualFrequency} {
		for _, bits := range []int{3, 5, 8} {
			opt := core.Options{ErrorBound: 0.001, IndexBits: bits, Strategy: strategy}
			enc, err := core.Encode(prev, cur, opt)
			if err != nil {
				t.Fatal(err)
			}
			for _, chunkPoints := range []int{97, 1000, n} {
				name := fmt.Sprintf("%s/B%d/cp%d", strategy, bits, chunkPoints)
				cfg := Config{ChunkPoints: chunkPoints, Workers: 3}

				wantV2, err := checkpoint.MarshalDeltaV2("v", 7, enc, chunkPoints)
				if err != nil {
					t.Fatal(err)
				}
				var buf bytes.Buffer
				res, err := EncodeDeltaV2(&buf, "v", 7, SliceSource(prev), SliceSource(cur), opt, cfg)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if !bytes.Equal(buf.Bytes(), wantV2) {
					t.Errorf("%s: streaming v2 bytes differ from in-memory MarshalDeltaV2", name)
				}
				if res.ExactCount != len(enc.Exact) {
					t.Errorf("%s: exact count %d, want %d", name, res.ExactCount, len(enc.Exact))
				}
			}
		}
	}
}

// TestStreamingUnderBudget encodes file-backed input much larger than
// the memory budget and checks both the budget accounting and
// byte-identity with the in-memory path.
func TestStreamingUnderBudget(t *testing.T) {
	const n = 120_000 // 960 KiB per input file
	prev, cur := genPair(n, 7)
	dir := t.TempDir()
	pPath := filepath.Join(dir, "prev.raw")
	cPath := filepath.Join(dir, "cur.raw")
	if err := rawio.WriteFile(pPath, prev); err != nil {
		t.Fatal(err)
	}
	if err := rawio.WriteFile(cPath, cur); err != nil {
		t.Fatal(err)
	}
	pSrc, err := rawio.OpenFile(pPath)
	if err != nil {
		t.Fatal(err)
	}
	defer pSrc.Close()
	cSrc, err := rawio.OpenFile(cPath)
	if err != nil {
		t.Fatal(err)
	}
	defer cSrc.Close()

	opt := core.Options{ErrorBound: 0.001, IndexBits: 8, Strategy: core.EqualWidth}
	cfg := Config{Workers: 4, BudgetBytes: 512 << 10} // far below the 1.9 MiB of input
	var got bytes.Buffer
	res, err := EncodeDeltaV2(&got, "v", 1, pSrc, cSrc, opt, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.PeakBufferBytes > cfg.BudgetBytes {
		t.Fatalf("peak buffer %d exceeds budget %d", res.PeakBufferBytes, cfg.BudgetBytes)
	}
	if res.ChunkCount < 2 {
		t.Fatalf("budget did not force chunking: %d chunks of %d points", res.ChunkCount, res.ChunkPoints)
	}

	enc, err := core.Encode(prev, cur, opt)
	if err != nil {
		t.Fatal(err)
	}
	want, err := checkpoint.MarshalDeltaV2("v", 1, enc, res.ChunkPoints)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatal("budgeted streaming encode differs from in-memory encode")
	}
}

// TestStreamingDecode round-trips a v2 file through the streaming
// decoder, file to file, and compares with the in-memory decode.
func TestStreamingDecode(t *testing.T) {
	const n = 3210
	prev, cur := genPair(n, 99)
	opt := core.Options{ErrorBound: 0.001, IndexBits: 8, Strategy: core.Clustering}
	cfg := Config{ChunkPoints: 500, Workers: 3}

	dir := t.TempDir()
	deltaPath := filepath.Join(dir, "delta.nmk")
	df, err := os.Create(deltaPath)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := EncodeDeltaV2(df, "v", 1, SliceSource(prev), SliceSource(cur), opt, cfg); err != nil {
		t.Fatal(err)
	}
	if err := df.Close(); err != nil {
		t.Fatal(err)
	}

	enc, err := core.Encode(prev, cur, opt)
	if err != nil {
		t.Fatal(err)
	}
	want, err := enc.Decode(prev)
	if err != nil {
		t.Fatal(err)
	}

	// prev from a file, output streamed to a file.
	pPath := filepath.Join(dir, "prev.raw")
	if err := rawio.WriteFile(pPath, prev); err != nil {
		t.Fatal(err)
	}
	pSrc, err := rawio.OpenFile(pPath)
	if err != nil {
		t.Fatal(err)
	}
	defer pSrc.Close()
	raw, err := os.ReadFile(deltaPath)
	if err != nil {
		t.Fatal(err)
	}
	d, err := checkpoint.OpenDeltaV2(bytes.NewReader(raw), int64(len(raw)))
	if err != nil {
		t.Fatal(err)
	}
	outPath := filepath.Join(dir, "out.raw")
	of, err := os.Create(outPath)
	if err != nil {
		t.Fatal(err)
	}
	ow := rawio.NewWriter(of)
	err = DecodeDeltaV2(d, pSrc, cfg, func(vals []float64) error {
		return ow.WriteFloats(vals)
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := of.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := rawio.ReadFile(outPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("decoded %d points, want %d", len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("point %d differs", i)
		}
	}
}

func TestConfigResolve(t *testing.T) {
	// Budget shrinks workers first, then chunk size.
	cfg, err := Config{ChunkPoints: 1 << 16, Workers: 8, BudgetBytes: 1 << 20}.resolve()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Workers != 1 {
		t.Errorf("workers = %d, want 1", cfg.Workers)
	}
	if cfg.ChunkPoints >= 1<<16 {
		t.Errorf("chunk points not shrunk: %d", cfg.ChunkPoints)
	}
	if cfg.peakBufferBytes() > 1<<20 {
		t.Errorf("peak %d exceeds budget", cfg.peakBufferBytes())
	}

	// A budget below one minimal chunk fails loudly.
	if _, err := (Config{BudgetBytes: 1024}).resolve(); !errors.Is(err, ErrBudget) {
		t.Errorf("tiny budget: err = %v, want ErrBudget", err)
	}
	// Negative values are rejected.
	if _, err := (Config{Workers: -1}).resolve(); err == nil {
		t.Error("negative workers accepted")
	}
}

// ringProbe checks the orderedChunks contract from inside the process
// and emit callbacks of one run with W workers: a chunk is in flight
// from the start of its process call to the end of its emit call. The
// bookkeeping is lock-free so that the probe does not itself serialize
// the workers it is watching.
type ringProbe struct {
	t        *testing.T
	w        int
	delay    []time.Duration // per chunk; negative = yield, 0 = instant
	holder   []atomic.Int64  // holder[slot] = in-flight chunk using it, or -1
	inFlight atomic.Int64
	maxSeen  atomic.Int64 // highest chunk index handed to process
	emitted  int          // chunks emitted so far; the next must be this index
}

func newRingProbe(t *testing.T, count, w int, seed int64, skewed bool) *ringProbe {
	p := &ringProbe{t: t, w: w, delay: make([]time.Duration, count), holder: make([]atomic.Int64, w)}
	for s := range p.holder {
		p.holder[s].Store(-1)
	}
	p.maxSeen.Store(-1)
	// Skew: most chunks are instant, some yield, a few are slow enough
	// for every other worker to lap the ring if nothing held it back.
	rng := rand.New(rand.NewSource(seed))
	for i := range p.delay {
		if !skewed {
			break
		}
		switch rng.Intn(16) {
		case 0:
			p.delay[i] = time.Duration(20+rng.Intn(100)) * time.Microsecond
		case 1, 2:
			p.delay[i] = -1
		}
	}
	return p
}

func (p *ringProbe) process(i, slot int) (int, error) {
	if slot != i%p.w {
		p.t.Errorf("W=%d: chunk %d processed in slot %d, want %d", p.w, i, slot, i%p.w)
	}
	if h := p.holder[slot].Swap(int64(i)); h != -1 {
		p.t.Errorf("W=%d: chunk %d given slot %d while chunk %d is still in flight there", p.w, i, slot, h)
	}
	if n := p.inFlight.Add(1); n > int64(p.w) {
		p.t.Errorf("W=%d: %d chunks in flight", p.w, n)
	}
	for {
		m := p.maxSeen.Load()
		if int64(i) <= m || p.maxSeen.CompareAndSwap(m, int64(i)) {
			break
		}
	}
	switch d := p.delay[i]; {
	case d > 0:
		time.Sleep(d)
	case d < 0:
		runtime.Gosched()
	}
	return i * i, nil
}

// emit runs on the single emitter goroutine.
func (p *ringProbe) emit(i, v int) error {
	if i != p.emitted {
		p.t.Errorf("W=%d: emit saw chunk %d, want %d", p.w, i, p.emitted)
	}
	if v != i*i {
		p.t.Errorf("W=%d: chunk %d delivered %d", p.w, i, v)
	}
	if h := p.holder[i%p.w].Swap(-1); h != int64(i) {
		p.t.Errorf("W=%d: chunk %d emitted but slot %d holds chunk %d", p.w, i, i%p.w, h)
	}
	p.inFlight.Add(-1)
	p.emitted++
	return nil
}

// waitGoroutines waits (bounded) for the goroutine count to fall back
// to base: a worker that has passed wg.Done may still be exiting.
func waitGoroutines(t *testing.T, base int, what string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%s: %d goroutines, %d before the run", what, runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
}

// withinDeadline runs one orderedChunks call under a watchdog: a worker
// or emitter that never returns fails the test after a few seconds
// with every goroutine's stack, instead of hanging until the go test
// timeout.
func withinDeadline(t *testing.T, what string, run func() error) error {
	t.Helper()
	errc := make(chan error, 1)
	go func() { errc <- run() }()
	select {
	case err := <-errc:
		return err
	case <-time.After(5 * time.Second):
		buf := make([]byte, 1<<20)
		t.Fatalf("%s: orderedChunks still running after 5s:\n%s", what, buf[:runtime.Stack(buf, true)])
		return nil
	}
}

// TestOrderedChunks pins the ring's contract under skewed chunk
// durations, many laps of the ring, and every worker count the
// pipeline is run with: chunks are emitted 0, 1, 2, … exactly once,
// chunk i is processed in slot i%W, a slot never holds two in-flight
// chunks, at most W chunks are in flight, and an error at chunk k stops
// emission at k with every worker gone when the call returns.
func TestOrderedChunks(t *testing.T) {
	boom := errors.New("boom")
	for _, w := range []int{2, 3, 4, 8} {
		count := 64*w + 5
		base := runtime.NumGoroutine()

		// Clean runs: uniform instant chunks keep the workers racing
		// each other around the ring as tightly as they can; skewed
		// rounds let fast chunks run ahead of slow predecessors.
		for round := 0; round < 24; round++ {
			p := newRingProbe(t, count, w, int64(1000*w+round), round%3 == 2)
			err := withinDeadline(t, fmt.Sprintf("W=%d clean round %d", w, round), func() error {
				return orderedChunks(count, w, "test", nil, p.process, p.emit)
			})
			if err != nil {
				t.Fatal(err)
			}
			if p.emitted != count {
				t.Fatalf("W=%d: emitted %d of %d chunks", w, p.emitted, count)
			}
		}
		waitGoroutines(t, base, "clean run")

		// A process error cancels the run, names the chunk, and nothing
		// at or after it is emitted. The ring bound also limits how far
		// past k the workers can have run.
		k := 13*w + 1
		p := newRingProbe(t, count, w, int64(100+w), true)
		err := withinDeadline(t, fmt.Sprintf("W=%d process error", w), func() error {
			return orderedChunks(count, w, "test", nil,
				func(i, slot int) (int, error) {
					v, _ := p.process(i, slot)
					if i == k {
						return 0, boom
					}
					return v, nil
				}, p.emit)
		})
		if !errors.Is(err, boom) || !strings.Contains(err.Error(), fmt.Sprintf("chunk %d:", k)) {
			t.Fatalf("W=%d: err = %v, want boom at chunk %d", w, err, k)
		}
		if p.emitted != k {
			t.Fatalf("W=%d: process error at chunk %d, but %d chunks emitted", w, k, p.emitted)
		}
		if int(p.maxSeen.Load()) >= k+w {
			t.Fatalf("W=%d: chunk %d processed after chunk %d failed", w, p.maxSeen.Load(), k)
		}
		waitGoroutines(t, base, "process error")

		// An emit error cancels the run: chunk k is the last one emit
		// sees.
		p = newRingProbe(t, count, w, int64(200+w), true)
		err = withinDeadline(t, fmt.Sprintf("W=%d emit error", w), func() error {
			return orderedChunks(count, w, "test", nil, p.process,
				func(i, v int) error {
					if err := p.emit(i, v); err != nil {
						return err
					}
					if i == k {
						return boom
					}
					return nil
				})
		})
		if !errors.Is(err, boom) {
			t.Fatalf("W=%d: emit err = %v, want boom", w, err)
		}
		if p.emitted != k+1 {
			t.Fatalf("W=%d: emit error at chunk %d, but %d chunks emitted", w, k, p.emitted)
		}
		waitGoroutines(t, base, "emit error")
	}
}

func TestEncodeErrors(t *testing.T) {
	opt := core.Options{ErrorBound: 0.001, IndexBits: 8}
	// Length mismatch.
	_, err := EncodeDeltaV2(io.Discard, "v", 0, SliceSource(make([]float64, 3)), SliceSource(make([]float64, 4)), opt, Config{})
	if !errors.Is(err, core.ErrLength) {
		t.Errorf("err = %v, want ErrLength", err)
	}
	// Non-finite data surfaces from a worker.
	prev := []float64{1, 2, 3}
	cur := []float64{1, math.NaN(), 3}
	_, err = EncodeDeltaV2(io.Discard, "v", 0, SliceSource(prev), SliceSource(cur), opt, Config{ChunkPoints: 1})
	if !errors.Is(err, core.ErrNonFinite) {
		t.Errorf("err = %v, want ErrNonFinite", err)
	}
	// Empty input produces a valid empty v2 file.
	var raw bytes.Buffer
	res, err := EncodeDeltaV2(&raw, "v", 0, SliceSource(nil), SliceSource(nil), opt, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if res.ChunkCount != 0 || res.ExactCount != 0 {
		t.Fatalf("empty encode: %+v", res)
	}
	if _, _, enc, err := checkpoint.UnmarshalDeltaV2(raw.Bytes()); err != nil || enc.N != 0 {
		t.Fatalf("empty v2 file does not parse: %v", err)
	}
}
