package core

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"
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
