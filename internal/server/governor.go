package server

import (
	"container/list"
	"context"
	"errors"
	"fmt"
	"sync"
)

// ErrTooLarge reports a request whose admission weight exceeds the
// governor's total capacity: it can never be admitted, no matter how
// long it waits, so the daemon rejects it permanently (413) instead of
// queueing it (429).
var ErrTooLarge = errors.New("server: request exceeds the memory governor's total capacity")

// ErrOverCapacity reports a request the governor could not admit within
// the caller's wait budget: capacity exists but is currently in use.
// The daemon maps it to 429 with a Retry-After hint.
var ErrOverCapacity = errors.New("server: memory governor over capacity")

// Governor is a weighted FIFO semaphore that admission-controls
// concurrent pipelines by their resolved memory footprint
// (chunk.ResolveConfig's PeakBufferBytes plus the request's
// materialized buffers). Requests that do not fit wait in strict
// arrival order — the head of the queue blocks the line, so a stream
// of small requests cannot starve a large one — and a caller whose
// context expires while queued is removed and told to retry. A nil
// Governor, or one with capacity 0, admits everything immediately.
//
// Besides requests, the governor charges holds: memory the daemon
// keeps only while no request needs the room (the tenants' series
// heads). A hold is taken only if it fits without queueing, and a
// request that would otherwise queue first evicts holds, least
// recently used first.
type Governor struct {
	capacity int64

	mu      sync.Mutex
	used    int64
	waiters []*govWaiter
	// holds lists the charged holds, least recently used at the front.
	holds list.List
}

// govHold is one evictable charge. elem is its place in holds, nil
// once it was released or evicted.
type govHold struct {
	weight int64
	evict  func()
	elem   *list.Element
}

// govWaiter is one queued admission request. ready is closed by the
// releasing goroutine once the waiter's weight has been charged.
type govWaiter struct {
	weight int64
	ready  chan struct{}
}

// NewGovernor builds a governor with the given total capacity in
// bytes. capacity <= 0 means ungoverned: Acquire always admits.
func NewGovernor(capacity int64) *Governor {
	return &Governor{capacity: capacity}
}

// Acquire admits a request of the given weight, blocking in FIFO order
// until capacity is available or ctx is done. It returns the release
// function the caller must invoke exactly once when the request's
// buffers are dead (calling it again is a no-op). Weight is clamped to
// at least 1 so even a zero-cost request is serialized behind the
// queue. The error is ErrTooLarge when weight exceeds total capacity
// and ErrOverCapacity (wrapping the context error) when the wait
// budget ran out.
func (g *Governor) Acquire(ctx context.Context, weight int64) (release func(), err error) {
	if g == nil || g.capacity <= 0 {
		return func() {}, nil
	}
	if weight < 1 {
		weight = 1
	}
	if weight > g.capacity {
		return nil, fmt.Errorf("%w: request needs %d bytes, capacity is %d", ErrTooLarge, weight, g.capacity)
	}
	g.mu.Lock()
	// Holds give way before anyone queues: evict them, least recently
	// used first, until the line ahead and this request fit.
	var evicted []func()
	for !g.fitsLocked(weight) && g.holds.Len() > 0 {
		h := g.holds.Remove(g.holds.Front()).(*govHold)
		h.elem = nil
		g.used -= h.weight
		evicted = append(evicted, h.evict)
		g.grantLocked()
	}
	if g.fitsLocked(weight) {
		g.used += weight
		g.mu.Unlock()
		runEvictions(evicted)
		return g.releaseFunc(weight), nil
	}
	w := &govWaiter{weight: weight, ready: make(chan struct{})}
	g.waiters = append(g.waiters, w)
	g.mu.Unlock()
	runEvictions(evicted)
	select {
	case <-w.ready:
		return g.releaseFunc(weight), nil
	case <-ctx.Done():
		g.mu.Lock()
		select {
		case <-w.ready:
			// Granted concurrently with the context expiring: the
			// weight is already charged, so hand it straight back and
			// still fail the admission — the caller is gone.
			g.used -= weight
			g.grantLocked()
		default:
			g.removeLocked(w)
		}
		g.mu.Unlock()
		return nil, fmt.Errorf("%w: waited %d bytes behind %d in use: %w", ErrOverCapacity, weight, g.capacity, ctx.Err())
	}
}

// fitsLocked reports whether weight is admitted at once: nobody
// queues and the room is free. Called with g.mu held.
func (g *Governor) fitsLocked(weight int64) bool {
	return len(g.waiters) == 0 && g.used+weight <= g.capacity
}

// runEvictions tells the owners of evicted holds, outside g.mu: an
// owner's callback takes its own lock, which may be held by a caller
// of hold or drop waiting on g.mu.
func runEvictions(evicted []func()) {
	for _, f := range evicted {
		f()
	}
}

// hold charges weight as an evictable hold if it fits without
// queueing; ok is false, and nothing is charged, if it does not. evict
// is called, outside the governor's lock, when a request takes the
// room back. An ungoverned governor charges nothing and always says
// yes, with a nil hold.
func (g *Governor) hold(weight int64, evict func()) (h *govHold, ok bool) {
	if g == nil || g.capacity <= 0 {
		return nil, true
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	if !g.fitsLocked(weight) {
		return nil, false
	}
	g.used += weight
	h = &govHold{weight: weight, evict: evict}
	h.elem = g.holds.PushBack(h)
	return h, true
}

// touch marks a hold as just used. Nil-safe; a no-op once evicted.
func (g *Governor) touch(h *govHold) {
	if h == nil {
		return
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	if h.elem != nil {
		g.holds.MoveToBack(h.elem)
	}
}

// drop gives a hold's room back without calling its evict. Nil-safe; a
// no-op once evicted.
func (g *Governor) drop(h *govHold) {
	if h == nil {
		return
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	if h.elem != nil {
		g.holds.Remove(h.elem)
		h.elem = nil
		g.used -= h.weight
		g.grantLocked()
	}
}

// releaseFunc builds the idempotent release closure for an admitted
// weight.
func (g *Governor) releaseFunc(weight int64) func() {
	var once sync.Once
	return func() {
		once.Do(func() {
			g.mu.Lock()
			g.used -= weight
			g.grantLocked()
			g.mu.Unlock()
		})
	}
}

// grantLocked admits queued waiters from the head while they fit.
// Strict FIFO: if the head does not fit, nothing behind it is
// considered. Called with g.mu held.
func (g *Governor) grantLocked() {
	for len(g.waiters) > 0 {
		w := g.waiters[0]
		if g.used+w.weight > g.capacity {
			return
		}
		g.used += w.weight
		g.waiters = g.waiters[1:]
		close(w.ready)
	}
}

// removeLocked drops a waiter that gave up. Called with g.mu held.
func (g *Governor) removeLocked(w *govWaiter) {
	for i, q := range g.waiters {
		if q == w {
			g.waiters = append(g.waiters[:i], g.waiters[i+1:]...)
			return
		}
	}
}

// GovernorStats is the governor's point-in-time state, published under
// /metrics.
type GovernorStats struct {
	// CapacityBytes is the total admission capacity (0 = ungoverned).
	CapacityBytes int64 `json:"capacity_bytes"`
	// UsedBytes is the weight currently charged: admitted requests
	// plus holds.
	UsedBytes int64 `json:"used_bytes"`
	// HeldBytes is the part of UsedBytes that is holds (series heads),
	// which the next request that needs the room evicts.
	HeldBytes int64 `json:"held_bytes"`
	// Waiting is the number of requests queued for admission.
	Waiting int `json:"waiting"`
}

// Stats reports the governor's current state. Nil-safe.
func (g *Governor) Stats() GovernorStats {
	if g == nil {
		return GovernorStats{}
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	var held int64
	for e := g.holds.Front(); e != nil; e = e.Next() {
		held += e.Value.(*govHold).weight
	}
	return GovernorStats{CapacityBytes: g.capacity, UsedBytes: g.used, HeldBytes: held, Waiting: len(g.waiters)}
}
