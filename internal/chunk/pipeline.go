package chunk

import (
	"errors"
	"fmt"
	"io"
	"sync"

	"numarck/internal/checkpoint"
	"numarck/internal/core"
	"numarck/internal/obs"
	"numarck/internal/panics"
)

// v2Sink writes an encode run into the chunked v2 delta format: the
// header goes out with the fitted table, then one section per chunk.
type v2Sink struct {
	w                     io.Writer
	variable              string
	iteration, n, chunkPt int
	opt                   core.Options
	dw                    *checkpoint.DeltaV2Writer
	reps                  []float64
}

// Table writes the header, which carries the table, and lends the
// writer the run's byte scratch.
func (s *v2Sink) Table(reps []float64, scratch *core.SinkScratch) (err error) {
	s.reps = reps
	s.dw, err = checkpoint.NewDeltaV2Writer(s.w, s.variable, s.iteration, s.n, s.opt, reps, s.chunkPt)
	if err == nil {
		s.dw.Borrow(scratch)
	}
	return err
}

// Chunk appends the chunk's section; the writer copies what it keeps.
func (s *v2Sink) Chunk(c *core.Chunk) error {
	return s.dw.AppendChunk(c.Indices, c.Flags, c.Exact)
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
// When the run has no budget (BudgetBytes == 0) pass 1 retains each
// chunk's ratios for pass 2, which then re-reads only cur (for the
// exact values) and skips the ratio recomputation. The cache holds 9
// bytes per point — acceptable only because the caller asked for no
// memory bound; a budget disables it and the two passes stay fully
// streaming.
func EncodeDeltaV2(w io.Writer, variable string, iteration int, prev, cur Source, opt core.Options, cfg Config) (*Result, error) {
	vopt, err := opt.Validate()
	if err != nil {
		return nil, err
	}
	cfg, err = cfg.resolve()
	if err != nil {
		return nil, err
	}
	// One recorder serves both layers: Config.Obs, or else Options.Obs,
	// instruments the driver and the v2 writer alike.
	if cfg.Obs != nil {
		vopt.Obs = cfg.Obs
	}
	rec := vopt.Obs
	rec.SetMax(obs.GaugeWorkers, int64(cfg.Workers))
	rec.SetMax(obs.GaugeChunkPoints, int64(cfg.ChunkPoints))
	rec.SetMax(obs.GaugePeakBufferBytes, cfg.peakBufferBytes())

	n := cur.Len()
	sink := &v2Sink{w: w, variable: variable, iteration: iteration, n: n, chunkPt: cfg.ChunkPoints, opt: vopt}
	plan := core.Plan{ChunkPoints: cfg.ChunkPoints, Workers: cfg.Workers, CacheRatios: cfg.BudgetBytes == 0}
	tableInput, exact, err := core.EncodeChunks(prev, cur, vopt, plan, sink)
	if err != nil {
		return nil, err
	}
	if err := sink.dw.Finish(); err != nil {
		return nil, err
	}
	return &Result{
		N:               n,
		ChunkPoints:     cfg.ChunkPoints,
		ChunkCount:      (n + cfg.ChunkPoints - 1) / cfg.ChunkPoints,
		Workers:         cfg.Workers,
		BinRatios:       sink.reps,
		ExactCount:      exact,
		TableInputTotal: int64(tableInput),
		PeakBufferBytes: cfg.peakBufferBytes(),
	}, nil
}

// decodeSlot is one ring slot's reusable decode state: a chunk decoder
// (section, index, bitmap, and exact-value scratch) plus the prev
// window and output buffers. Keyed by slot, so reuse is safe under the
// core.OrderedChunks ring invariant.
type decodeSlot struct {
	dec  *checkpoint.ChunkDecoder
	pbuf []float64
	dst  []float64
}

// decodeScratch is one decode run's slots. A run takes a set from
// decodePool and puts it back when it ends, so a warm decode allocates
// nothing per point; the emit contract — copy what you keep — is what
// makes a slot's output buffer safe to hand to a later run. The encode
// side's two rules (core's run scratch) hold here too: a run drops every
// pooled buffer larger than its own chunks allocate, and a run that
// panicked drops the whole set.
type decodeScratch struct {
	slots []decodeSlot
}

// decodePool holds decodeScratch sets between runs.
var decodePool sync.Pool

// takeDecodeScratch returns a pooled (or new) set of `ring` slots whose
// decoders read d's chunks of at most cp points.
func takeDecodeScratch(d *checkpoint.DeltaReader, ring, cp int) *decodeScratch {
	ds, _ := decodePool.Get().(*decodeScratch)
	if ds == nil {
		ds = new(decodeScratch)
	}
	if cap(ds.slots) < ring {
		ds.slots = append(ds.slots[:cap(ds.slots)], make([]decodeSlot, ring-cap(ds.slots))...)
	}
	clear(ds.slots[ring:cap(ds.slots)])
	ds.slots = ds.slots[:ring]
	for i := range ds.slots {
		s := &ds.slots[i]
		if s.dec == nil {
			s.dec = d.NewChunkDecoder()
		} else {
			s.dec.Reset(d)
		}
		s.pbuf, s.dst = within(s.pbuf, cp), within(s.dst, cp)
	}
	return ds
}

// within returns s, or nil when its capacity exceeds max.
func within(s []float64, max int) []float64 {
	if cap(s) > max {
		return nil
	}
	return s
}

// DecodeDeltaV2 streams the reconstruction of an opened delta of either
// format (a v1 file is one chunk): chunks are decoded concurrently off
// the chunk directory (each worker reads, unpacks, and reconstructs its
// chunk fully independently), and emit receives the reconstructed
// values in chunk order. The emit callback must copy anything it wants
// to keep — the slice is a pooled buffer reused for a later chunk or a
// later decode. cfg.Workers bounds the concurrency; ChunkPoints is
// fixed by the file. Any corruption fails the decode.
func DecodeDeltaV2(d *checkpoint.DeltaReader, prev Source, cfg Config, emit func(vals []float64) error) error {
	_, err := decode(d, prev, cfg, false, emit)
	return err
}

// DecodeRecover is DecodeDeltaV2 in salvage mode: a chunk that fails
// with a *checkpoint.ChunkError is quarantined — emit receives prev's
// values for its range — while every healthy chunk decodes on the same
// workers. The report is (*checkpoint.DeltaReader).Settle's, as in a
// salvage restart; a failure that is not chunk-local fails the decode.
func DecodeRecover(d *checkpoint.DeltaReader, prev Source, cfg Config, emit func(vals []float64) error) (*checkpoint.PartialDataError, error) {
	return decode(d, prev, cfg, true, emit)
}

// decode is DecodeDeltaV2 and DecodeRecover, by salvage.
func decode(d *checkpoint.DeltaReader, prev Source, cfg Config, salvage bool, emit func(vals []float64) error) (*checkpoint.PartialDataError, error) {
	meta := d.Meta()
	if prev.Len() != meta.N {
		return nil, fmt.Errorf("%w: prev has %d points, checkpoint has %d", core.ErrLength, prev.Len(), meta.N)
	}
	cfg, err := cfg.resolve()
	if err != nil {
		return nil, err
	}
	rec := cfg.Obs
	if rec != nil {
		d.SetRecorder(rec)
		rec.SetMax(obs.GaugeWorkers, int64(cfg.Workers))
	}
	var errs []error // chunk i's quarantine, written by its worker only
	if salvage {
		errs = make([]error, meta.ChunkCount)
	}
	ds := takeDecodeScratch(d, min(cfg.Workers, meta.ChunkCount), meta.ChunkPoints)
	err = core.OrderedChunks(meta.ChunkCount, cfg.Workers, "decode", rec,
		func(i, slot int) ([]float64, error) {
			lo, np := d.ChunkSpan(i)
			s := &ds.slots[slot]
			t := rec.Start()
			pbuf, pscratch, rerr := core.ReadWindow(prev, lo, np, s.pbuf)
			s.pbuf = pscratch
			t.Stop(obs.StageRead)
			if rerr != nil {
				return nil, rerr
			}
			rec.Add(obs.CounterBytesRead, 8*int64(np))
			if cap(s.dst) < np {
				s.dst = make([]float64, np)
			}
			s.dst = s.dst[:np]
			if err := s.dec.DecodeChunkInto(i, pbuf, s.dst); err != nil {
				var ce *checkpoint.ChunkError
				if !salvage || !errors.As(err, &ce) {
					return nil, err
				}
				errs[i] = err
				copy(s.dst, pbuf)
			}
			return s.dst, nil
		},
		func(_ int, vals []float64) error {
			return emit(vals)
		})
	// A panic may have left the slots half written: drop them.
	if !panics.Raised(err) {
		for i := range ds.slots {
			ds.slots[i].dec.Reset(nil)
		}
		decodePool.Put(ds)
	}
	if err != nil {
		return nil, err
	}
	return d.Settle(errs, checkpoint.RecoverOptions{Salvage: salvage, Obs: rec}, cfg.Workers)
}
