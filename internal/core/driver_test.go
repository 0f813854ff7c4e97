package core

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"numarck/internal/panics"
)

// ringProbe checks the OrderedChunks contract from inside the process
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

// withinDeadline runs one OrderedChunks call under a watchdog: a worker
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
		t.Fatalf("%s: OrderedChunks still running after 5s:\n%s", what, buf[:runtime.Stack(buf, true)])
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
				return OrderedChunks(count, w, "test", nil, p.process, p.emit)
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
			return OrderedChunks(count, w, "test", nil,
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
			return OrderedChunks(count, w, "test", nil, p.process,
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

// TestPoolKeepsNoEncodedSlice pins the pool's first rule: an Encoded
// keeps its ratios, indices and exact values, so they must not go back
// to the pool with the run's scratch. A second encode of the same
// shape, which would take that scratch, must leave the first result as
// it was.
func TestPoolKeepsNoEncodedSlice(t *testing.T) {
	prevA, curA := fitPair(20000, 11, false)
	prevB, curB := fitPair(20000, 12, false)
	curA[7], curB[7] = 1e9, 1e9 // one exact value each
	opt := defaultOpts(Clustering)
	first, err := Encode(prevA, curA, opt)
	if err != nil {
		t.Fatal(err)
	}
	ratios := append([]float64(nil), first.TrueRatios...)
	indices := append([]uint32(nil), first.Indices...)
	exact := append([]float64(nil), first.Exact...)
	for i := 0; i < 3; i++ {
		if _, err := Encode(prevB, curB, opt); err != nil {
			t.Fatal(err)
		}
	}
	if !slices.Equal(first.TrueRatios, ratios) || !slices.Equal(first.Indices, indices) || !slices.Equal(first.Exact, exact) {
		t.Fatal("a later encode overwrote an earlier Encoded's slices: the pool held them")
	}
}

// TestScratchFitsPlan pins the pool's second rule: a run never holds a
// pooled buffer larger than its own plan allocates, so a small budgeted
// run that follows a large one stays within its budget.
func TestScratchFitsPlan(t *testing.T) {
	big := takeScratch(1<<16, 1<<15, 2, 2, true)
	for i := range big.slots {
		s := &big.slots[i]
		s.pbuf, s.cbuf, s.ti = make([]float64, 1<<15), make([]float64, 1<<15), make([]float64, 1<<15)
		s.ratios = Ratios{make([]float64, 1<<15), make([]RatioKind, 1<<15)}
		s.Indices, s.Flags, s.Exact = make([]uint32, 1<<15), make([]byte, 1<<12), make([]float64, 1<<15)
	}
	for i := range big.cache {
		big.cache[i] = Ratios{make([]float64, 1<<15), make([]RatioKind, 1<<15)}
	}
	big.ti = make([]float64, 1<<16)
	big.release(false)

	const n, cp = 4096, 1024
	rs := takeScratch(n, cp, n/cp, 1, false)
	defer rs.release(false)
	if len(rs.slots) != 1 || rs.cache != nil || cap(rs.ti) > n {
		t.Fatalf("small run holds %d slots, a cache of %d, a table input of %d", len(rs.slots), len(rs.cache), cap(rs.ti))
	}
	s := &rs.slots[0]
	for _, c := range []int{cap(s.pbuf), cap(s.cbuf), cap(s.ti), cap(s.ratios.Delta), cap(s.ratios.Kind), cap(s.Indices), cap(s.Exact)} {
		if c > cp {
			t.Fatalf("a %d-point-chunk run holds a pooled %d-point buffer", cp, c)
		}
	}
	if cap(s.Flags) > cp/8 {
		t.Fatalf("a %d-point-chunk run holds %d pooled flag bytes", cp, cap(s.Flags))
	}
}

// TestWorkerPanicIsAnError pins where a panic in the encode's workers
// goes: a panic in a process call fails OrderedChunks with a
// *panics.Error at every worker count, and one in a forEachRange worker
// is raised again on the caller's goroutine, where a serial run would
// raise it — inside OrderedChunks' process, that is the run's error.
func TestWorkerPanicIsAnError(t *testing.T) {
	for _, workers := range []int{1, 2, 4} {
		err := OrderedChunks(8, workers, "test", nil,
			func(i, _ int) (int, error) {
				if i == 3 {
					panic("chunk 3")
				}
				return i, nil
			},
			func(int, int) error { return nil })
		var pe *panics.Error
		if !errors.As(err, &pe) || pe.Value != "chunk 3" || !strings.Contains(err.Error(), "chunk 3") {
			t.Errorf("%d workers: OrderedChunks = %v, want the panic of chunk 3", workers, err)
		}

		err = OrderedChunks(1, 1, "test", nil,
			func(int, int) (int, error) {
				forEachRange(8*splitPoints, splitPoints, workers, func(r, _, _ int) {
					if r == 5 {
						panic("range 5")
					}
				})
				return 0, nil
			},
			func(int, int) error { return nil })
		if !errors.As(err, &pe) || pe.Value != "range 5" {
			t.Errorf("%d workers: a forEachRange panic came back as %v, want the panic of range 5", workers, err)
		}
	}
}
