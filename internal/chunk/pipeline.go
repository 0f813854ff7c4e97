package chunk

import (
	"context"
	"fmt"
	"io"
	"runtime/pprof"
	"sync"

	"numarck/internal/checkpoint"
	"numarck/internal/core"
	"numarck/internal/obs"
)

// orderedChunks runs process(i, slot) for i in [0, count) across up to
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
// process or emit error cancels the run.
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
func orderedChunks[T any](count, workers int, label string, rec *obs.Recorder, process func(i, slot int) (T, error), emit func(i int, v T) error) error {
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
				return fmt.Errorf("chunk %d: %w", i, err)
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

// chunkSpan returns the point range [lo, lo+np) of chunk i.
func chunkSpan(n, chunkPoints, i int) (lo, np int) {
	lo = i * chunkPoints
	np = chunkPoints
	if rem := n - lo; rem < np {
		np = rem
	}
	return lo, np
}

// growF returns a length-n float64 slice, reusing buf's backing array
// when it is large enough.
func growF(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n)
	}
	return buf[:n]
}

// growU32 is growF for index slices.
func growU32(buf []uint32, n int) []uint32 {
	if cap(buf) < n {
		return make([]uint32, n)
	}
	return buf[:n]
}

// growB is growF for flag slices.
func growB(buf []bool, n int) []bool {
	if cap(buf) < n {
		return make([]bool, n)
	}
	return buf[:n]
}

// readWindow returns the [lo, lo+np) window of src: a zero-copy view
// when src is a WindowSource that can expose one, otherwise the window
// is read into buf (grown as needed). The possibly-grown scratch buffer
// is returned either way so callers can keep it for reuse; win aliases
// it only on the copying path.
func readWindow(src Source, lo, np int, buf []float64) (win, scratch []float64, err error) {
	if ws, ok := src.(WindowSource); ok {
		if v, ok := ws.Window(lo, np); ok {
			return v, buf, nil
		}
	}
	buf = growF(buf, np)
	if err := src.ReadFloats(buf, lo); err != nil {
		return nil, buf, err
	}
	return buf, buf, nil
}

// encodeSlot is one ring slot's reusable buffer set. orderedChunks
// guarantees a slot's previous chunk has been emitted — and the v2
// writer copies what it keeps — before the slot is reused, so every
// field can be overwritten freely. In steady state (all chunks the same
// size) no field reallocates after the first lap of the ring.
type encodeSlot struct {
	pbuf, cbuf     []float64 // read scratch; unused when the source is windowed
	ratios         core.Ratios
	ti             []float64
	indices        []uint32
	incompressible []bool
	exact          []float64
}

// chunkOut is one chunk's encode result, in the shape
// checkpoint.DeltaV2Writer.AppendChunk consumes.
// Its slices alias the chunk's encodeSlot and are valid until the slot
// is refreed (i.e. through the emit call).
type chunkOut struct {
	indices        []uint32
	incompressible []bool
	exact          []float64
}

// EncodeDeltaV2 runs the streaming two-pass encode of the transition
// prev → cur into the chunked v2 delta format on w: pass 1 reads every
// chunk once to gather the table-input ratios, the bin table is fitted
// and written with the header, and pass 2 re-reads every chunk, assigns
// bins, and writes one section per chunk in chunk order before the
// directory and footer finalize the file. Both sources must be
// re-readable and of equal length. Memory use is bounded by the Config
// budget; nothing proportional to the data size is held.
//
// When the run is entirely uncapped (BudgetBytes == 0 and
// MaxTableInput == 0) pass 1 retains each chunk's ratios for pass 2,
// which then re-reads only cur (for the exact values) and skips the
// ratio recomputation. The cache holds 9 bytes per point — acceptable
// only because the caller asked for no memory bound; any cap disables
// it and the two passes stay fully streaming.
func EncodeDeltaV2(w io.Writer, variable string, iteration int, prev, cur Source, opt core.Options, cfg Config) (*Result, error) {
	vopt, err := opt.Validate()
	if err != nil {
		return nil, err
	}
	if prev.Len() != cur.Len() {
		return nil, fmt.Errorf("%w: %d vs %d", core.ErrLength, prev.Len(), cur.Len())
	}
	n := cur.Len()
	cfg, err = cfg.resolve()
	if err != nil {
		return nil, err
	}
	// One recorder serves both layers: setting either Config.Obs or
	// Options.Obs instruments the pipeline and the v2 writer alike.
	rec := cfg.Obs
	if rec == nil {
		rec = vopt.Obs
	} else if vopt.Obs == nil {
		vopt.Obs = rec
	}
	rec.SetMax(obs.GaugeWorkers, int64(cfg.Workers))
	rec.SetMax(obs.GaugeChunkPoints, int64(cfg.ChunkPoints))
	rec.SetMax(obs.GaugePeakBufferBytes, cfg.peakBufferBytes())
	chunkCount := 0
	if n > 0 {
		chunkCount = (n + cfg.ChunkPoints - 1) / cfg.ChunkPoints
	}

	var cache []core.Ratios
	if cfg.BudgetBytes == 0 && cfg.MaxTableInput == 0 {
		cache = make([]core.Ratios, chunkCount)
	}
	slots := make([]encodeSlot, cfg.Workers)

	// Pass 1: ratios only, gathering the table input in point order.
	// Each chunk's table-input slice is a contiguous piece of the exact
	// sequence the in-memory encoder hands to core.Fit.
	res := newReservoir(cfg.MaxTableInput)
	err = orderedChunks(chunkCount, cfg.Workers, "encode-pass1", rec,
		func(i, slot int) ([]float64, error) {
			lo, np := chunkSpan(n, cfg.ChunkPoints, i)
			s := &slots[slot]
			t := rec.Start()
			pbuf, pscratch, err := readWindow(prev, lo, np, s.pbuf)
			s.pbuf = pscratch
			var cbuf []float64
			if err == nil {
				cbuf, s.cbuf, err = readWindow(cur, lo, np, s.cbuf)
			}
			t.Stop(obs.StageRead)
			if err != nil {
				return nil, err
			}
			rec.Add(obs.CounterBytesRead, 16*int64(np))
			r := &s.ratios
			if cache != nil {
				r = &cache[i]
			}
			t = rec.Start()
			rerr := core.ComputeRatiosInto(pbuf, cbuf, 1, r)
			t.Stop(obs.StageRatio)
			if rerr != nil {
				return nil, rerr
			}
			s.ti = r.TableInputInto(vopt, s.ti)
			return s.ti, nil
		},
		func(_ int, ti []float64) error {
			res.add(ti)
			return nil
		})
	if err != nil {
		return nil, err
	}

	t := rec.Start()
	var bins core.Binner
	var binRatios []float64
	if len(res.vals) > 0 {
		bins, err = core.Fit(res.vals, vopt)
		if err != nil {
			t.Stop(obs.StageTable)
			return nil, err
		}
		binRatios = bins.Representatives()
		if len(binRatios) > vopt.NumBins() {
			t.Stop(obs.StageTable)
			return nil, fmt.Errorf("chunk: internal error: %d representatives exceed %d bins", len(binRatios), vopt.NumBins())
		}
	}
	t.Stop(obs.StageTable)
	rec.Add(obs.CounterTableInput, res.total)
	rec.SetMax(obs.GaugeBinCount, int64(len(binRatios)))

	dw, err := checkpoint.NewDeltaV2Writer(w, variable, iteration, n, vopt, binRatios, cfg.ChunkPoints)
	if err != nil {
		return nil, err
	}

	// Pass 2: assign bins and stream sections out in order, re-reading
	// only what pass 1 did not cache.
	exactCount := 0
	err = orderedChunks(chunkCount, cfg.Workers, "encode-pass2", rec,
		func(i, slot int) (chunkOut, error) {
			lo, np := chunkSpan(n, cfg.ChunkPoints, i)
			s := &slots[slot]
			var ratios *core.Ratios
			var cbuf []float64
			var err error
			if cache != nil {
				ratios = &cache[i]
				t := rec.Start()
				cbuf, s.cbuf, err = readWindow(cur, lo, np, s.cbuf)
				t.Stop(obs.StageRead)
				if err != nil {
					return chunkOut{}, err
				}
				rec.Add(obs.CounterBytesRead, 8*int64(np))
			} else {
				t := rec.Start()
				var pbuf []float64
				pbuf, s.pbuf, err = readWindow(prev, lo, np, s.pbuf)
				if err == nil {
					cbuf, s.cbuf, err = readWindow(cur, lo, np, s.cbuf)
				}
				t.Stop(obs.StageRead)
				if err != nil {
					return chunkOut{}, err
				}
				rec.Add(obs.CounterBytesRead, 16*int64(np))
				t = rec.Start()
				rerr := core.ComputeRatiosInto(pbuf, cbuf, 1, &s.ratios)
				t.Stop(obs.StageRatio)
				if rerr != nil {
					return chunkOut{}, rerr
				}
				ratios = &s.ratios
			}
			s.indices = growU32(s.indices, np)
			s.incompressible = growB(s.incompressible, np)
			t := rec.Start()
			core.AssignChunk(ratios, bins, vopt, s.indices, s.incompressible)
			exact := s.exact[:0]
			for j, inc := range s.incompressible {
				if inc {
					exact = append(exact, cbuf[j])
				}
			}
			s.exact = exact
			t.Stop(obs.StageAssign)
			if cache != nil {
				// Release the chunk's cached ratios as the pass moves
				// past it instead of holding the whole array to the end.
				cache[i] = core.Ratios{}
			}
			return chunkOut{indices: s.indices, incompressible: s.incompressible, exact: exact}, nil
		},
		func(_ int, out chunkOut) error {
			exactCount += len(out.exact)
			return dw.AppendChunk(out.indices, out.incompressible, out.exact)
		})
	if err != nil {
		return nil, err
	}
	if err := dw.Finish(); err != nil {
		return nil, err
	}
	rec.Add(obs.CounterEncodes, 1)
	rec.Add(obs.CounterPointsEncoded, int64(n))
	rec.Add(obs.CounterExactValues, int64(exactCount))

	return &Result{
		N:               n,
		ChunkPoints:     cfg.ChunkPoints,
		ChunkCount:      chunkCount,
		Workers:         cfg.Workers,
		BinRatios:       binRatios,
		ExactCount:      exactCount,
		TableInputTotal: res.total,
		TableInputUsed:  len(res.vals),
		TableThinned:    res.thinned,
		PeakBufferBytes: cfg.peakBufferBytes(),
	}, nil
}

// decodeSlot is one ring slot's reusable decode state: a chunk decoder
// (section, index, bitmap, and exact-value scratch) plus the prev
// window and output buffers. Keyed by slot, so reuse is safe under the
// orderedChunks ring invariant.
type decodeSlot struct {
	dec  *checkpoint.ChunkDecoder
	pbuf []float64
	dst  []float64
}

// DecodeDeltaV2 streams the reconstruction of an opened delta of either
// format (a v1 file is one chunk): chunks are decoded concurrently off
// the chunk directory (each worker reads, unpacks, and reconstructs its
// chunk fully independently), and emit receives the reconstructed
// values in chunk order. The emit callback must copy anything it wants
// to keep — the slice is a per-slot buffer reused for a later chunk.
// cfg.Workers bounds the concurrency; ChunkPoints is fixed by the file.
func DecodeDeltaV2(d *checkpoint.DeltaReader, prev Source, cfg Config, emit func(vals []float64) error) error {
	meta := d.Meta()
	if prev.Len() != meta.N {
		return fmt.Errorf("%w: prev has %d points, checkpoint has %d", core.ErrLength, prev.Len(), meta.N)
	}
	cfg, err := cfg.resolve()
	if err != nil {
		return err
	}
	rec := cfg.Obs
	if rec != nil {
		d.SetRecorder(rec)
		rec.SetMax(obs.GaugeWorkers, int64(cfg.Workers))
	}
	slots := make([]decodeSlot, cfg.Workers)
	for s := range slots {
		slots[s].dec = d.NewChunkDecoder()
	}
	err = orderedChunks(meta.ChunkCount, cfg.Workers, "decode", rec,
		func(i, slot int) ([]float64, error) {
			lo, np := d.ChunkSpan(i)
			s := &slots[slot]
			t := rec.Start()
			pbuf, pscratch, rerr := readWindow(prev, lo, np, s.pbuf)
			s.pbuf = pscratch
			t.Stop(obs.StageRead)
			if rerr != nil {
				return nil, rerr
			}
			rec.Add(obs.CounterBytesRead, 8*int64(np))
			s.dst = growF(s.dst, np)
			if err := s.dec.DecodeChunkInto(i, pbuf, s.dst); err != nil {
				return nil, err
			}
			return s.dst, nil
		},
		func(_ int, vals []float64) error {
			return emit(vals)
		})
	if err != nil {
		return err
	}
	rec.Add(obs.CounterDecodes, 1)
	rec.Add(obs.CounterPointsDecoded, int64(meta.N))
	return nil
}
