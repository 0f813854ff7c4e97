package core

// The one encode driver. Encode, EncodeWithTable, EncodeWithStats and
// the streaming encoder (internal/chunk) all run encodeChunks: an
// ordered ring of chunks, ratio → table input, one fit, ratio-cached
// assignment, and the exact values gathered in point order. Encode runs
// its two slices as one chunk; the streaming encoder runs fixed-size
// windows of re-readable sources. Only the Sink differs, so their
// outputs agree by construction.

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"runtime/pprof"
	"sync"

	"numarck/internal/bitpack"
	"numarck/internal/obs"
	"numarck/internal/panics"
)

// Source is a re-readable float64 array. The encoder reads every window
// twice — once to learn the bin table, once to assign bins — so a
// Source must return the same values on both passes. rawio.Reader (a
// file or any io.ReaderAt) and SliceSource satisfy it.
type Source interface {
	// Len returns the number of values.
	Len() int
	// ReadFloats fills dst with the values at [off, off+len(dst)).
	ReadFloats(dst []float64, off int) error
}

// SliceSource adapts an in-memory slice to Source. ReadWindow serves
// its windows as views, without copying.
type SliceSource []float64

// Len returns the number of values.
func (s SliceSource) Len() int { return len(s) }

// ReadFloats copies the window [off, off+len(dst)) into dst.
func (s SliceSource) ReadFloats(dst []float64, off int) error {
	if off < 0 || off+len(dst) > len(s) {
		return fmt.Errorf("core: window [%d,%d) outside slice of %d values", off, off+len(dst), len(s))
	}
	copy(dst, s[off:])
	return nil
}

// ReadWindow returns the window [lo, lo+np) of src: a capped view when
// src is a SliceSource, otherwise the window read into buf (grown as
// needed). The possibly-grown buf is returned either way so callers
// can keep it for reuse; win aliases it only on the copying path.
func ReadWindow(src Source, lo, np int, buf []float64) (win, scratch []float64, err error) {
	if s, ok := src.(SliceSource); ok && lo >= 0 && lo+np <= len(s) {
		return s[lo : lo+np : lo+np], buf, nil
	}
	buf = grow(buf, np)
	if err := src.ReadFloats(buf, lo); err != nil {
		return nil, buf, err
	}
	return buf, buf, nil
}

// OrderedChunks runs process(i, slot) for i in [0, count) across up to
// `workers` goroutines and delivers the results to emit in chunk order.
//
// Ownership is static: worker w is the only goroutine that ever
// processes into slot w, and it walks chunks w, w+workers, w+2·workers,
// … in that order. Chunk i therefore always lands in slot i%workers,
// and the value parked there is chunk i by construction — no worker
// can overtake another on a slot, whatever the scheduler does. Before
// each chunk the worker waits for its slot's token, which the emitter
// hands back once the slot's previous chunk has been emitted. That
// bounds the in-flight chunks at `workers` — buffer memory stays
// proportional to the worker count no matter how far a fast chunk runs
// ahead of a slow predecessor — and makes the slot index safe to key a
// reusable buffer set: the slot's previous occupant has been fully
// consumed by emit before process sees the slot again. The first
// process or emit error cancels the run; a process error names its
// chunk unless the run has only one. A panic in process is caught on
// whichever goroutine runs it and fails the run as a *panics.Error, at
// every worker count; a panic in emit, which runs on the caller's
// goroutine, is the caller's.
//
// A run of at most one chunk or one worker is served inline on the
// caller's goroutine, so small inputs pay for no goroutine or channel.
//
// label names the pipeline pass in profiles: each worker goroutine runs
// under the pprof label numarck_pipeline=<label>, so CPU profiles of a
// streaming run attribute samples to encode-pass1/encode-fit/
// encode-pass2/decode.
// rec (nil-safe) receives the time workers spend blocked waiting for
// their slot as StageQueueWait — the backpressure signal of an emitter
// slower than its producers.
func OrderedChunks[T any](count, workers int, label string, rec *obs.Recorder, process func(i, slot int) (T, error), emit func(i int, v T) error) error {
	if count == 0 {
		return nil
	}
	if workers > count {
		workers = count
	}
	call := func(i, slot int) (v T, err error) {
		err = panics.Catch(func() (err error) {
			v, err = process(i, slot)
			return err
		})
		return v, err
	}
	if workers <= 1 {
		for i := 0; i < count; i++ {
			v, err := call(i, 0)
			if err != nil {
				if count > 1 {
					err = nameChunk(i, err)
				}
				return err
			}
			if err := emit(i, v); err != nil {
				return err
			}
		}
		return nil
	}

	type result struct {
		v   T
		err error
	}
	// free[w] holds worker w's slot token: present iff the slot's last
	// chunk has been emitted. ready[w] parks the slot's finished chunk
	// until its turn; capacity 1 suffices because the sender holds the
	// token. Each pair is shared by exactly worker w and the emitter.
	free := make([]chan struct{}, workers)
	ready := make([]chan result, workers)
	for w := range free {
		free[w] = make(chan struct{}, 1)
		free[w] <- struct{}{}
		ready[w] = make(chan result, 1)
	}
	done := make(chan struct{})
	var wg sync.WaitGroup
	labels := pprof.Labels("numarck_pipeline", label)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			pprof.Do(context.Background(), labels, func(context.Context) {
				for i := w; i < count; i += workers {
					t := rec.Start()
					select {
					case <-free[w]:
						t.Stop(obs.StageQueueWait)
					case <-done:
						return
					}
					v, err := call(i, w)
					// Never blocks: holding the token means the slot's
					// ready channel is empty.
					ready[w] <- result{v: v, err: err}
				}
			})
		}()
	}

	// Emitter: walk the ring in chunk order. Slot i%workers receives
	// chunks i%workers, i%workers+workers, … in order from its one
	// worker, so the next value on it is chunk i.
	var firstErr error
	for i := 0; i < count; i++ {
		r := <-ready[i%workers]
		if r.err != nil {
			firstErr = nameChunk(i, r.err)
			break
		}
		if err := emit(i, r.v); err != nil {
			firstErr = err
			break
		}
		free[i%workers] <- struct{}{}
	}
	close(done)
	wg.Wait()
	return firstErr
}

// nameChunk prefixes err with chunk i, unless err already names its
// chunk, as a checkpoint.ChunkError does.
func nameChunk(i int, err error) error {
	if named := interface{ ChunkIndex() int }(nil); errors.As(err, &named) {
		return err
	}
	return fmt.Errorf("chunk %d: %w", i, err)
}

// splitPoints is the range length a chunk's ratio and assign stages
// split over when a run has fewer chunks than workers. It is far below
// the fit scans' statRangePoints so that a small chunk still divides
// evenly: 8192-point ranges would leave one of two workers 63 % of a
// 12 960-point state. A multiple of 8, so every range but a chunk's
// last ends on a flag byte and no two workers write the same byte of
// Chunk.Flags.
const splitPoints = 512

// Plan is the shape of one encode run.
type Plan struct {
	// ChunkPoints is the number of points per chunk, > 0.
	ChunkPoints int
	// Workers is the number of goroutines the run uses, > 0. With at
	// least as many chunks as workers, the chunks run on a ring of
	// Workers slots, one goroutine each. With fewer, they run one at a
	// time, and each chunk's ratio and assign stages are split over
	// fixed splitPoints ranges. Either way at most Workers chunks'
	// buffers are live, and the output does not depend on Workers.
	Workers int
	// CacheRatios keeps every chunk's ratios from the first pass for
	// the second, which then re-reads only cur: 9 bytes per point on
	// top of the chunk buffers.
	CacheRatios bool
}

// Sink receives one encode run's output in point order.
type Sink interface {
	// Table receives the table's representatives once, after the fit
	// and before any chunk; nil when no point had a table-input ratio.
	// scratch is byte scratch the run lends the sink from its pooled
	// memory (see SinkScratch).
	Table(reps []float64, scratch *SinkScratch) error
	// Chunk receives each chunk's results, in chunk order. The run
	// reuses c and its slices for a later chunk once Chunk returns, and
	// pools them for a later run once the run ends — except core's own
	// Encoded sink, whose one chunk's slices the run leaves to it.
	Chunk(c *Chunk) error
}

// SinkScratch is byte scratch a run lends its sink: the v2 writer packs
// indices into Pack and assembles sections in Section, growing them in
// place. It goes back to the pool with the rest of the run's scratch
// when the run ends, so the sink must not touch it, or keep anything in
// it, after its last Chunk call. The sink also drops a buffer larger
// than its own chunks would allocate, as the run does with its own.
type SinkScratch struct {
	Pack, Section []byte
}

// Chunk is one chunk's encode results, in point order.
type Chunk struct {
	// Delta holds the change ratios, 0 where none exists.
	Delta []float64
	// Indices holds each point's index value.
	Indices []uint32
	// Flags marks the points stored exactly, one bit per point packed
	// LSB-first with the pad bits zero: the format's bitmap, which the
	// v2 writer and an Encoded take as it is.
	Flags []byte
	// Exact holds the exact values of the flagged points.
	Exact []float64
}

// EncodeChunks runs the encode of prev → cur under plan and hands its
// table and chunks to sink. It returns the number of ratios the table
// was learned from and the number of exact values. The sources must be
// of equal length and re-readable; opt must be validated.
func EncodeChunks(prev, cur Source, opt Options, plan Plan, sink Sink) (tableInput, exact int, err error) {
	return encodeChunks(prev, cur, opt, plan, nil, sink)
}

// encodeSlot is one ring slot's reusable buffers. OrderedChunks
// guarantees a slot's previous chunk has been emitted before the slot
// is reused, so every field can be overwritten freely; with chunks of
// one size, nothing reallocates after the first lap of the ring.
type encodeSlot struct {
	pbuf, cbuf []float64 // read scratch; unused for a SliceSource
	ratios     Ratios
	r          *Ratios   // the chunk's ratios: &ratios or its cache entry
	ti         []float64 // the chunk's table input
	Chunk
}

// fitTo drops every buffer of a pooled slot that is larger than a run
// of cp-point chunks allocates.
func (s *encodeSlot) fitTo(cp int) {
	s.pbuf, s.cbuf, s.ti = within(s.pbuf, cp), within(s.cbuf, cp), within(s.ti, cp)
	s.ratios.fitTo(cp)
	s.Indices, s.Flags, s.Exact = within(s.Indices, cp), within(s.Flags, (cp+7)/8), within(s.Exact, cp)
}

// fitTo drops r's buffers if they hold more than cp points.
func (r *Ratios) fitTo(cp int) {
	r.Delta, r.Kind = within(r.Delta, cp), within(r.Kind, cp)
}

// runScratch is one encode run's reusable memory: the ring slots, the
// pass-1 ratio cache, the gathered table input, the clustering fit's
// per-worker sketches and seed counts, and the byte scratch lent to the
// sink. A run takes one from scratchPool and puts it back when it ends,
// so a warm encode allocates little beyond what its sink keeps. Two
// rules hold. The pool never holds a slice a sink kept: an Encoded's
// ratios, indices and exact values leave the set before it goes back.
// And a run never holds a pooled buffer larger than its own plan would
// allocate: fitTo drops those, so Plan — and Config.BudgetBytes, and
// the governor's PeakBufferBytes above it — still bound a running
// encode.
type runScratch struct {
	slots []encodeSlot
	cache []Ratios
	ti    []float64
	fit   fitScratch
	sink  SinkScratch
}

// scratchPool holds runScratch sets between runs.
var scratchPool sync.Pool

// takeScratch returns a pooled (or new) run scratch fitted to a run of
// n points in count chunks of cp points on a ring of `ring` slots,
// with a ratio cache when cache is set.
func takeScratch(n, cp, count, ring int, cache bool) *runScratch {
	rs, _ := scratchPool.Get().(*runScratch)
	if rs == nil {
		rs = new(runScratch)
	}
	rs.slots = resize(rs.slots, ring)
	for i := range rs.slots {
		rs.slots[i].fitTo(cp)
	}
	if cache {
		rs.cache = resize(rs.cache, count)
	} else {
		rs.cache = nil
	}
	for i := range rs.cache {
		rs.cache[i].fitTo(cp)
	}
	rs.ti = within(rs.ti, n)
	return rs
}

// release puts rs back in the pool. kept says the sink kept its
// chunks' ratios, indices and exact values, as an Encoded does; those
// leave the set first.
func (rs *runScratch) release(kept bool) {
	for i := range rs.slots {
		s := &rs.slots[i]
		s.r, s.Delta = nil, nil // the last chunk's aliases
		if kept {
			s.ratios.Delta, s.Indices, s.Exact = nil, nil, nil
		}
	}
	if kept {
		for i := range rs.cache {
			rs.cache[i].Delta = nil
		}
	}
	scratchPool.Put(rs)
}

// within returns s, or nil when its capacity exceeds max: a pooled
// buffer larger than the run would allocate is dropped, not held.
func within[T any](s []T, max int) []T {
	if cap(s) > max {
		return nil
	}
	return s
}

// resize returns s with length n, keeping its first n elements and
// zeroing the rest of its backing array, so nothing past n stays
// reachable from a pooled set.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return append(s[:cap(s)], make([]T, n-cap(s))...)
	}
	clear(s[n:cap(s)])
	return s[:n]
}

// encodeChunks is EncodeChunks with an optional fixed binner: when
// fixed is non-nil, the run assigns against it instead of learning one
// (EncodeWithTable, EncodeWithStats).
func encodeChunks(prev, cur Source, opt Options, plan Plan, fixed Binner, sink Sink) (int, int, error) {
	if prev.Len() != cur.Len() {
		return 0, 0, fmt.Errorf("%w: %d vs %d", ErrLength, prev.Len(), cur.Len())
	}
	n, cp := cur.Len(), plan.ChunkPoints
	if opt.Workers == 0 {
		// Table learning runs on the run's workers.
		opt.Workers = plan.Workers
	}
	count := (n + cp - 1) / cp
	ring, split := plan.Workers, 1
	if count < ring {
		ring, split = 1, plan.Workers
	}
	rs := takeScratch(n, cp, count, ring, plan.CacheRatios)
	tableInput, exact, err := rs.encode(prev, cur, opt, cp, split, fixed, sink)
	// A panic may have left the scratch half written, so a run that
	// panicked drops it; one that panicked on this goroutine never gets
	// here.
	if !panics.Raised(err) {
		_, kept := sink.(*encodedSink)
		rs.release(kept)
	}
	return tableInput, exact, err
}

// encode is the body of encodeChunks: a run of cp-point chunks on the
// ring of rs's slots, each chunk's stages split over split workers.
func (rs *runScratch) encode(prev, cur Source, opt Options, cp, split int, fixed Binner, sink Sink) (int, int, error) {
	n, rec := cur.Len(), opt.Obs
	count, ring := (n+cp-1)/cp, len(rs.slots)
	slots, cache := rs.slots, rs.cache

	// load reads chunk i into its slot and, if withRatios, computes the
	// chunk's ratios, selecting its table input too if withTable. It
	// returns the slot and cur's window.
	load := func(i, slot int, withRatios, withTable bool) (*encodeSlot, []float64, error) {
		s := &slots[slot]
		lo, np := i*cp, min(cp, n-i*cp)
		s.r = &s.ratios
		if cache != nil {
			s.r = &cache[i]
		}
		t := rec.Start()
		var p, c []float64
		var err error
		if withRatios {
			p, s.pbuf, err = ReadWindow(prev, lo, np, s.pbuf)
		}
		if err == nil {
			c, s.cbuf, err = ReadWindow(cur, lo, np, s.cbuf)
		}
		t.Stop(obs.StageRead)
		if err != nil {
			return nil, nil, err
		}
		if !withRatios {
			rec.Add(obs.CounterBytesRead, 8*int64(np))
			return s, c, nil
		}
		rec.Add(obs.CounterBytesRead, 16*int64(np))
		var ti []float64
		if withTable {
			ti = grow(s.ti, np)
		}
		t = rec.Start()
		sel, err := computeRatios(p, c, lo, split, opt, s.r, ti)
		t.Stop(obs.StageRatio)
		if withTable {
			s.ti = ti[:sel]
		}
		return s, c, err
	}

	// Pass 1: ratios and each chunk's table input, gathered in point
	// order. A lone chunk's slot is never reused, so its table input is
	// the run's.
	ti := rs.ti[:0]
	err := OrderedChunks(count, ring, "encode-pass1", rec,
		func(i, slot int) ([]float64, error) {
			s, _, err := load(i, slot, true, true)
			if err != nil {
				return nil, err
			}
			return s.ti, nil
		},
		func(_ int, v []float64) error {
			if count == 1 {
				ti = v
				return nil
			}
			if need := len(ti) + len(v); need > cap(ti) {
				// Doubling, but never past the run's n points, so the
				// pooled buffer stays within what this run allocates.
				ti = append(make([]float64, 0, min(n, max(need, 2*cap(ti)))), ti...)
				rs.ti = ti
			}
			ti = append(ti, v...)
			return nil
		})
	if err != nil {
		return 0, 0, err
	}

	t := rec.Start()
	bins, reps, err := fit(ti, fixed, opt, &rs.fit)
	t.Stop(obs.StageTable)
	if err != nil {
		return 0, 0, err
	}
	rec.Add(obs.CounterTableInput, int64(len(ti)))
	rec.SetMax(obs.GaugeBinCount, int64(len(reps)))
	if err := sink.Table(reps, &rs.sink); err != nil {
		return 0, 0, err
	}

	// Pass 2: assign bins and hand the chunks over in order, recomputing
	// only the ratios pass 1 did not cache.
	exact := 0
	err = OrderedChunks(count, ring, "encode-pass2", rec,
		func(i, slot int) (*encodeSlot, error) {
			s, c, err := load(i, slot, cache == nil, false)
			if err != nil {
				return nil, err
			}
			s.Delta = s.r.Delta
			s.Indices = grow(s.Indices, len(c))
			s.Flags = grow(s.Flags, (len(c)+7)/8)
			t := rec.Start()
			if split > 1 {
				forEachRange(len(c), splitPoints, split, func(_, lo, hi int) {
					assignRange(s.r, bins, reps, opt, lo, hi, s.Indices, s.Flags)
				})
			} else {
				assignRange(s.r, bins, reps, opt, 0, len(c), s.Indices, s.Flags)
			}
			// Sized to the flag count, so the appends never regrow it.
			s.Exact = grow(s.Exact, bitpack.CountFirst(s.Flags, len(c)))[:0]
			for b, f := range s.Flags {
				for ; f != 0; f &= f - 1 {
					s.Exact = append(s.Exact, c[b<<3|bits.TrailingZeros8(f)])
				}
			}
			t.Stop(obs.StageAssign)
			return s, nil
		},
		func(i int, s *encodeSlot) error {
			exact += len(s.Exact)
			return sink.Chunk(&s.Chunk)
		})
	if err != nil {
		return 0, 0, err
	}
	rec.Add(obs.CounterEncodes, 1)
	rec.Add(obs.CounterPointsEncoded, int64(n))
	rec.Add(obs.CounterExactValues, int64(exact))
	return len(ti), exact, nil
}

// fit learns the binner from the table input ti, or serves the fixed
// one when it is given. bins and reps are nil when ti is empty.
func fit(ti []float64, fixed Binner, opt Options, fs *fitScratch) (bins Binner, reps []float64, err error) {
	if len(ti) == 0 {
		return nil, nil, nil
	}
	bins = fixed
	if bins == nil {
		if bins, err = fitBinner(ti, opt, fs); err != nil {
			return nil, nil, err
		}
	}
	reps = bins.Representatives()
	if len(reps) > opt.NumBins() {
		return nil, nil, fmt.Errorf("core: internal error: %d representatives exceed %d bins", len(reps), opt.NumBins())
	}
	return bins, reps, nil
}

// assignRange runs the per-point bin-assignment stage over points
// [lo, hi): it writes each point's index value into indices and sets
// the flag bits of the points the error bound forces to be stored
// exactly. Every index of the range and every byte of flags the range
// touches are written — the slices may be pooled buffers carrying a
// previous chunk's values — so lo must be a multiple of 8 and hi one
// too unless it is the chunk's end. reps must be bins.Representatives()
// (nil when no large ratios exist anywhere and bins is nil); opt must
// be validated.
func assignRange(ratios *Ratios, bins Binner, reps []float64, opt Options, lo, hi int, indices []uint32, flags []byte) {
	clear(flags[lo>>3 : (hi+7)>>3])
	for j := lo; j < hi; j++ {
		indices[j] = 0
		if ratios.Kind[j] != RatioOK {
			flags[j>>3] |= 1 << (j & 7)
			continue
		}
		d := ratios.Delta[j]
		if !opt.DisableZeroIndex && math.Abs(d) < opt.ErrorBound {
			continue // within tolerance of "unchanged"
		}
		g := bins.Lookup(d)
		rep := reps[g]
		if math.Abs(rep-d) > opt.ErrorBound {
			// The learned distribution cannot represent this point
			// within the bound: store it exactly. This is the
			// mechanism that makes the bound a guarantee (§II-C).
			flags[j>>3] |= 1 << (j & 7)
			continue
		}
		// g+1 <= NumBins <= 2^MaxIndexBits, enforced by Options.Validate
		indices[j] = uint32(g + 1)
	}
}

// encodedSink fills an Encoded. Encode runs its input as one chunk, so
// no later chunk reuses the slices Chunk receives, and it keeps them.
type encodedSink Encoded

// Table stores the representatives.
func (e *encodedSink) Table(reps []float64, _ *SinkScratch) error {
	e.BinRatios = reps
	return nil
}

// Chunk stores the one chunk's results.
func (e *encodedSink) Chunk(c *Chunk) (err error) {
	e.TrueRatios, e.Indices, e.Exact = c.Delta, c.Indices, c.Exact
	e.Incompressible, err = bitpack.BitmapFromBytes(c.Flags, e.N)
	return err
}
