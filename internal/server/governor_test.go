package server

import (
	"context"
	"errors"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestGovernorSerializesAdmission runs many full-capacity requests
// concurrently: each must be admitted alone, so the observed
// concurrency never exceeds one and the charged weight never exceeds
// capacity.
func TestGovernorSerializesAdmission(t *testing.T) {
	const capacity = 1 << 20
	g := NewGovernor(capacity)
	var inFlight, maxInFlight, peak atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			release, err := g.Acquire(context.Background(), capacity)
			if err != nil {
				t.Errorf("Acquire: %v", err)
				return
			}
			cur := inFlight.Add(1)
			for {
				old := maxInFlight.Load()
				if cur <= old || maxInFlight.CompareAndSwap(old, cur) {
					break
				}
			}
			if used := g.Stats().UsedBytes; used > capacity {
				peak.Store(used)
			}
			time.Sleep(time.Millisecond)
			inFlight.Add(-1)
			release()
		}()
	}
	wg.Wait()
	if got := maxInFlight.Load(); got != 1 {
		t.Errorf("max concurrent full-capacity admissions = %d, want 1", got)
	}
	if p := peak.Load(); p != 0 {
		t.Errorf("admitted weight peaked at %d, over capacity %d", p, capacity)
	}
	st := g.Stats()
	if st.UsedBytes != 0 || st.Waiting != 0 {
		t.Errorf("governor not drained: %+v", st)
	}
}

// TestGovernorPeakUnderCapacity admits mixed-weight requests
// concurrently and checks the summed admitted weight never exceeds
// capacity.
func TestGovernorPeakUnderCapacity(t *testing.T) {
	const capacity = 1000
	g := NewGovernor(capacity)
	var admitted, violations atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < 64; i++ {
		weight := int64(100 + 50*(i%8))
		wg.Add(1)
		go func() {
			defer wg.Done()
			release, err := g.Acquire(context.Background(), weight)
			if err != nil {
				t.Errorf("Acquire(%d): %v", weight, err)
				return
			}
			if cur := admitted.Add(weight); cur > capacity {
				violations.Add(1)
			}
			time.Sleep(100 * time.Microsecond)
			admitted.Add(-weight)
			release()
		}()
	}
	wg.Wait()
	if v := violations.Load(); v != 0 {
		t.Errorf("admitted weight exceeded capacity %d times", v)
	}
}

// TestGovernorFIFO queues waiters one at a time behind a
// capacity-filling holder and checks they are granted in arrival
// order — a later small request must not jump a queued large one.
func TestGovernorFIFO(t *testing.T) {
	const capacity = 100
	g := NewGovernor(capacity)
	hold, err := g.Acquire(context.Background(), capacity)
	if err != nil {
		t.Fatal(err)
	}
	const waiters = 6
	var order []int
	var mu sync.Mutex
	var wg sync.WaitGroup
	// Uniform weights over half capacity: only one waiter fits at a
	// time, so grants are strictly sequential and each waiter appends
	// before its release grants the next — the recorded order IS the
	// grant order. A LIFO scheduler would reverse it.
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			release, err := g.Acquire(context.Background(), 60)
			if err != nil {
				t.Errorf("waiter %d: %v", i, err)
				return
			}
			mu.Lock()
			order = append(order, i)
			mu.Unlock()
			release()
		}(i)
		// Enqueue deterministically: wait until this waiter is queued
		// before spawning the next.
		for g.Stats().Waiting != i+1 {
			time.Sleep(50 * time.Microsecond)
		}
	}
	hold()
	wg.Wait()
	for i, got := range order {
		if got != i {
			t.Fatalf("grant order = %v, want strict FIFO", order)
		}
	}
}

// TestGovernorHeadBlocksLine checks fairness: while a large request
// that does not yet fit heads the queue, a later small request that
// would fit is NOT admitted around it — small traffic cannot starve a
// big one.
func TestGovernorHeadBlocksLine(t *testing.T) {
	g := NewGovernor(100)
	hold, err := g.Acquire(context.Background(), 50)
	if err != nil {
		t.Fatal(err)
	}
	bigGranted := make(chan struct{})
	go func() {
		release, err := g.Acquire(context.Background(), 90)
		if err != nil {
			t.Errorf("big waiter: %v", err)
			close(bigGranted)
			return
		}
		close(bigGranted)
		release()
	}()
	for g.Stats().Waiting != 1 {
		time.Sleep(50 * time.Microsecond)
	}
	// 50 used + 30 fits numerically, but the queued 90 heads the line.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	if _, err := g.Acquire(ctx, 30); !errors.Is(err, ErrOverCapacity) {
		t.Fatalf("small request overtook the queue head: err = %v", err)
	}
	hold()
	<-bigGranted
}

// TestGovernorRejections checks the two refusal modes: a weight over
// total capacity is permanently rejected (ErrTooLarge), and a wait
// that outlives its context is turned away (ErrOverCapacity wrapping
// the context error) and removed from the queue.
func TestGovernorRejections(t *testing.T) {
	g := NewGovernor(100)
	if _, err := g.Acquire(context.Background(), 101); !errors.Is(err, ErrTooLarge) {
		t.Errorf("oversized acquire = %v, want ErrTooLarge", err)
	}
	hold, err := g.Acquire(context.Background(), 100)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	_, err = g.Acquire(ctx, 50)
	if !errors.Is(err, ErrOverCapacity) || !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("timed-out acquire = %v, want ErrOverCapacity wrapping DeadlineExceeded", err)
	}
	if w := g.Stats().Waiting; w != 0 {
		t.Errorf("abandoned waiter still queued: %d", w)
	}
	hold()
	// Capacity must be whole again after the churn.
	release, err := g.Acquire(context.Background(), 100)
	if err != nil {
		t.Fatalf("acquire after drain: %v", err)
	}
	release()
	if st := g.Stats(); st.UsedBytes != 0 {
		t.Errorf("used = %d after all releases", st.UsedBytes)
	}
}

// TestGovernorUngovernedAndNil checks the pass-through modes: nil
// governor and capacity 0 admit everything immediately.
func TestGovernorUngovernedAndNil(t *testing.T) {
	var g *Governor
	release, err := g.Acquire(context.Background(), 1<<40)
	if err != nil {
		t.Fatalf("nil governor: %v", err)
	}
	release()
	g = NewGovernor(0)
	release, err = g.Acquire(context.Background(), 1<<40)
	if err != nil {
		t.Fatalf("capacity-0 governor: %v", err)
	}
	release()
}

// TestGovernorHolds pins the evictable charges series heads take: a
// hold is charged only if it fits without queueing, a request that
// would queue evicts holds least recently used first — and only as many
// as it needs — and drop gives room back without an eviction callback.
func TestGovernorHolds(t *testing.T) {
	g := NewGovernor(100)
	var evicted []string
	holdNamed := func(name string, w int64) *govHold {
		h, ok := g.hold(w, func() { evicted = append(evicted, name) })
		if !ok {
			t.Fatalf("hold %s of %d refused at %+v", name, w, g.Stats())
		}
		return h
	}
	a, b := holdNamed("a", 30), holdNamed("b", 30)
	if _, ok := g.hold(50, func() {}); ok {
		t.Fatal("a hold that does not fit was charged")
	}
	g.touch(a)
	if st := g.Stats(); st.UsedBytes != 60 || st.HeldBytes != 60 {
		t.Fatalf("stats %+v, want 60 used, 60 held", st)
	}

	release, err := g.Acquire(context.Background(), 50)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(evicted, []string{"b"}) {
		t.Fatalf("evicted %v, want [b]: the least recently used hold, and only it", evicted)
	}
	g.drop(b) // already evicted: no-op
	if st := g.Stats(); st.UsedBytes != 80 || st.HeldBytes != 30 {
		t.Fatalf("stats %+v, want 80 used, 30 held", st)
	}

	// A request that still cannot fit after every eviction queues and
	// times out; the holds it evicted stay evicted.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	if _, err := g.Acquire(ctx, 90); !errors.Is(err, ErrOverCapacity) {
		t.Fatalf("Acquire(90) = %v, want ErrOverCapacity", err)
	}
	if !slices.Equal(evicted, []string{"b", "a"}) {
		t.Fatalf("evicted %v, want [b a]", evicted)
	}
	g.drop(a)
	release()
	if st := g.Stats(); st.UsedBytes != 0 || st.HeldBytes != 0 || st.Waiting != 0 {
		t.Fatalf("stats %+v after everything was given back", st)
	}

	c := holdNamed("c", 40)
	g.drop(c)
	if st := g.Stats(); st.UsedBytes != 0 || len(evicted) != 2 {
		t.Fatalf("drop: stats %+v, evicted %v; want the room back and no callback", st, evicted)
	}

	// Ungoverned: every hold is kept, uncharged.
	if h, ok := NewGovernor(0).hold(1<<40, nil); !ok || h != nil {
		t.Fatalf("ungoverned hold = %v, %v; want nil, true", h, ok)
	}
}
