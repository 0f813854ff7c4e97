package chunk

import (
	"fmt"
	"io"

	"numarck/internal/checkpoint"
	"numarck/internal/core"
	"numarck/internal/obs"
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

// Table writes the header, which carries the table.
func (s *v2Sink) Table(reps []float64) (err error) {
	s.reps = reps
	s.dw, err = checkpoint.NewDeltaV2Writer(s.w, s.variable, s.iteration, s.n, s.opt, reps, s.chunkPt)
	return err
}

// Chunk appends the chunk's section; the writer copies what it keeps.
func (s *v2Sink) Chunk(c *core.Chunk) error {
	return s.dw.AppendChunk(c.Indices, c.Incompressible, c.Exact)
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
	err = core.OrderedChunks(meta.ChunkCount, cfg.Workers, "decode", rec,
		func(i, slot int) ([]float64, error) {
			lo, np := d.ChunkSpan(i)
			s := &slots[slot]
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
