package core

// The one encode driver. Encode, EncodeWithTable and the streaming
// encoder (internal/chunk) all run encodeChunks: an ordered ring of
// chunks, ratio → table input, one fit, ratio-cached assignment, and
// the exact values gathered in point order. Encode runs its two slices
// as one chunk; the streaming encoder runs fixed-size windows of
// re-readable sources. Only the Sink differs, so their outputs agree
// by construction.

import (
	"context"
	"fmt"
	"math"
	"runtime/pprof"
	"sync"

	"numarck/internal/obs"
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
// chunk unless the run has only one.
//
// A run of at most one chunk or one worker is served inline on the
// caller's goroutine, so small inputs pay for no goroutine or channel.
//
// label names the pipeline pass in profiles: each worker goroutine runs
// under the pprof label numarck_pipeline=<label>, so CPU profiles of a
// streaming run attribute samples to encode-pass1/encode-pass2/decode.
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
	if workers <= 1 {
		for i := 0; i < count; i++ {
			v, err := process(i, 0)
			if err != nil {
				if count > 1 {
					err = fmt.Errorf("chunk %d: %w", i, err)
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
					v, err := process(i, w)
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
			firstErr = fmt.Errorf("chunk %d: %w", i, r.err)
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

// splitPoints is the range length a chunk's ratio and assign stages
// split over when a run has fewer chunks than workers. It is far below
// the fit scans' statRangePoints so that a small chunk still divides
// evenly: 8192-point ranges would leave one of two workers 63 % of a
// 12 960-point state.
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
	Table(reps []float64) error
	// Chunk receives each chunk's results, in chunk order. The run
	// reuses c and its slices for a later chunk once Chunk returns,
	// except a cached chunk's ratios.
	Chunk(c *Chunk) error
}

// Chunk is one chunk's encode results, in point order.
type Chunk struct {
	// Delta holds the change ratios, 0 where none exists.
	Delta []float64
	// Indices holds each point's index value.
	Indices []uint32
	// Incompressible flags the points stored exactly; Flags holds the
	// same flags packed LSB-first, as the format's bitmap, so that an
	// Encoded adopts them without a second pass over the points.
	Incompressible []bool
	Flags          []byte
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
	r          *Ratios // the chunk's ratios: &ratios or its cache entry
	ti         []float64
	Chunk
}

// encodeChunks is EncodeChunks with an optional fixed table: when
// table is non-nil, the run assigns against it instead of learning one
// (EncodeWithTable).
func encodeChunks(prev, cur Source, opt Options, plan Plan, table []float64, sink Sink) (int, int, error) {
	if prev.Len() != cur.Len() {
		return 0, 0, fmt.Errorf("%w: %d vs %d", ErrLength, prev.Len(), cur.Len())
	}
	n, cp, rec := cur.Len(), plan.ChunkPoints, opt.Obs
	count := (n + cp - 1) / cp
	ring, split := plan.Workers, 1
	if count < ring {
		ring, split = 1, plan.Workers
	}
	var cache []Ratios
	if plan.CacheRatios {
		cache = make([]Ratios, count)
	}
	slots := make([]encodeSlot, ring)

	// load reads chunk i into its slot and, if withRatios, computes the
	// chunk's ratios. It returns the slot and cur's window.
	load := func(i, slot int, withRatios bool) (*encodeSlot, []float64, error) {
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
		t = rec.Start()
		err = computeRatios(p, c, lo, split, s.r)
		t.Stop(obs.StageRatio)
		return s, c, err
	}

	// Pass 1: ratios, gathering the table input in point order. A lone
	// chunk's slot is never reused, so its table input is the run's.
	var ti []float64
	err := OrderedChunks(count, ring, "encode-pass1", rec,
		func(i, slot int) ([]float64, error) {
			s, _, err := load(i, slot, true)
			if err != nil {
				return nil, err
			}
			t := rec.Start()
			s.ti = s.r.tableInput(opt, s.ti)
			t.Stop(obs.StageTable)
			return s.ti, nil
		},
		func(_ int, v []float64) error {
			if count == 1 {
				ti = v
			} else {
				ti = append(ti, v...)
			}
			return nil
		})
	if err != nil {
		return 0, 0, err
	}

	t := rec.Start()
	bins, reps, err := fit(ti, table, opt)
	t.Stop(obs.StageTable)
	if err != nil {
		return 0, 0, err
	}
	rec.Add(obs.CounterTableInput, int64(len(ti)))
	rec.SetMax(obs.GaugeBinCount, int64(len(reps)))
	if err := sink.Table(reps); err != nil {
		return 0, 0, err
	}

	// Pass 2: assign bins and hand the chunks over in order, recomputing
	// only the ratios pass 1 did not cache.
	exact := 0
	err = OrderedChunks(count, ring, "encode-pass2", rec,
		func(i, slot int) (*encodeSlot, error) {
			s, c, err := load(i, slot, cache == nil)
			if err != nil {
				return nil, err
			}
			s.Delta = s.r.Delta
			s.Indices = grow(s.Indices, len(c))
			s.Incompressible = grow(s.Incompressible, len(c))
			s.Flags = grow(s.Flags, (len(c)+7)/8)
			clear(s.Flags)
			t := rec.Start()
			if split > 1 {
				forEachRange(len(c), splitPoints, split, func(_, lo, hi int) {
					assignRange(s.r, bins, reps, opt, lo, hi, s.Indices, s.Incompressible)
				})
			} else {
				assignRange(s.r, bins, reps, opt, 0, len(c), s.Indices, s.Incompressible)
			}
			s.Exact = s.Exact[:0]
			for j, inc := range s.Incompressible {
				if inc {
					s.Exact = append(s.Exact, c[j])
					s.Flags[j>>3] |= 1 << (j & 7)
				}
			}
			t.Stop(obs.StageAssign)
			return s, nil
		},
		func(i int, s *encodeSlot) error {
			exact += len(s.Exact)
			if err := sink.Chunk(&s.Chunk); err != nil {
				return err
			}
			if cache != nil {
				// Release the chunk's cached ratios as the pass moves
				// past it instead of holding the whole array to the end.
				cache[i] = Ratios{}
			}
			return nil
		})
	if err != nil {
		return 0, 0, err
	}
	rec.Add(obs.CounterEncodes, 1)
	rec.Add(obs.CounterPointsEncoded, int64(n))
	rec.Add(obs.CounterExactValues, int64(exact))
	return len(ti), exact, nil
}

// fit learns the bin table from the table input ti, or serves the fixed
// table when one is given. bins and reps are nil when ti is empty.
func fit(ti, table []float64, opt Options) (bins Binner, reps []float64, err error) {
	if len(ti) == 0 {
		return nil, nil, nil
	}
	if table != nil {
		bins = newTableBinner(table)
	} else if bins, err = fitBinner(ti, opt); err != nil {
		return nil, nil, err
	}
	reps = bins.Representatives()
	if len(reps) > opt.NumBins() {
		return nil, nil, fmt.Errorf("core: internal error: %d representatives exceed %d bins", len(reps), opt.NumBins())
	}
	return bins, reps, nil
}

// assignRange runs the per-point bin-assignment stage over points
// [lo, hi): it writes each point's index value into indices and flags
// the points the error bound forces to be stored exactly. Both output
// fields are written unconditionally for every point — the slices may
// be pooled buffers carrying a previous chunk's values. reps must be
// bins.Representatives() (nil when no large ratios exist anywhere and
// bins is nil); opt must be validated.
func assignRange(ratios *Ratios, bins Binner, reps []float64, opt Options, lo, hi int, indices []uint32, incompressible []bool) {
	for j := lo; j < hi; j++ {
		if ratios.Kind[j] != RatioOK {
			indices[j] = 0
			incompressible[j] = true
			continue
		}
		d := ratios.Delta[j]
		if !opt.DisableZeroIndex && math.Abs(d) < opt.ErrorBound {
			indices[j] = 0 // within tolerance of "unchanged"
			incompressible[j] = false
			continue
		}
		g := bins.Lookup(d)
		rep := reps[g]
		if math.Abs(rep-d) > opt.ErrorBound {
			// The learned distribution cannot represent this point
			// within the bound: store it exactly. This is the
			// mechanism that makes the bound a guarantee (§II-C).
			indices[j] = 0
			incompressible[j] = true
			continue
		}
		// g+1 <= NumBins <= 2^MaxIndexBits, enforced by Options.Validate
		indices[j] = uint32(g + 1)
		incompressible[j] = false
	}
}

// encodedSink fills an Encoded. Encode runs its input as one chunk, so
// no later chunk reuses the slices Chunk receives, and it keeps them.
type encodedSink Encoded

// Table stores the representatives.
func (e *encodedSink) Table(reps []float64) error {
	e.BinRatios = reps
	return nil
}

// Chunk stores the one chunk's results.
func (e *encodedSink) Chunk(c *Chunk) error {
	e.TrueRatios, e.Indices, e.Exact = c.Delta, c.Indices, c.Exact
	return e.Incompressible.LoadBytes(c.Flags, e.N)
}
