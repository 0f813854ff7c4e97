package experiments

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"runtime"
	"time"

	"numarck/internal/checkpoint"
	"numarck/internal/chunk"
	"numarck/internal/core"
	"numarck/internal/obs"
)

// CodecBenchConfig sizes the codec benchmark.
type CodecBenchConfig struct {
	// Points is the dataset size (the CMIP5 substitute is tiled to
	// reach it). Default 200_000.
	Points int
	// Iters is how many times each measurement repeats; the minimum is
	// reported. Default 3.
	Iters int
	// ChunkPoints is the streaming chunk size. Default 1 << 15.
	ChunkPoints int
	// DecodeWorkers are the worker counts for the parallel chunked
	// decode. Default {1, 8}.
	DecodeWorkers []int
	// Seed fixes the workload.
	Seed int64
}

func (cfg CodecBenchConfig) withDefaults() CodecBenchConfig {
	if cfg.Points <= 0 {
		cfg.Points = 200_000
	}
	if cfg.Iters <= 0 {
		cfg.Iters = 3
	}
	if cfg.ChunkPoints <= 0 {
		cfg.ChunkPoints = 1 << 15
	}
	if len(cfg.DecodeWorkers) == 0 {
		cfg.DecodeWorkers = []int{1, 8}
	}
	if cfg.Seed == 0 {
		cfg.Seed = DefaultSeed
	}
	return cfg
}

// CodecDecodeTiming is one parallel-decode measurement of the chunked
// format.
type CodecDecodeTiming struct {
	Workers int     `json:"workers"`
	Ns      int64   `json:"ns_per_op"`
	Speedup float64 `json:"speedup_vs_1"`
	// EnvLimited marks a row whose worker count exceeds GOMAXPROCS:
	// its speedup measures scheduling overhead, not parallelism, and
	// must not be quoted as a scaling result.
	EnvLimited bool `json:"env_limited,omitempty"`
}

// CodecStrategyTiming is the benchmark row of one binning strategy.
// All times are the minimum over the configured repetitions. The
// per-stage maps come from one extra instrumented (internal/obs) run
// of each path after the timed repetitions, so the recorder overhead —
// tiny as it is — never pollutes the headline numbers; their keys are
// the obs stage names (ratio, table, assign, bitpack, crc, read,
// write, queue-wait, decode) and values are total nanoseconds.
type CodecStrategyTiming struct {
	Strategy string `json:"strategy"`
	// EncodeInMemoryNs times the in-memory route to the same output
	// bytes the streaming path produces: core.Encode plus the chunked
	// v2 serialization. Comparing it against EncodeStreamNs therefore
	// isolates the streaming pipeline's overhead, not the cost of
	// serializing at all.
	EncodeInMemoryNs int64 `json:"encode_inmemory_ns"`
	EncodeStreamNs   int64               `json:"encode_stream_ns"`
	DecodeInMemoryNs int64               `json:"decode_inmemory_ns"`
	DecodeChunked    []CodecDecodeTiming `json:"decode_chunked"`
	EncodedBytes     int                 `json:"encoded_bytes"`
	Gamma            float64             `json:"gamma"`
	// EncodeStreamStages breaks the streaming encode into per-stage
	// totals (ns by stage name).
	EncodeStreamStages map[string]int64 `json:"encode_stream_stage_ns,omitempty"`
	// DecodeStreamStages breaks the single-worker chunked decode into
	// per-stage totals (ns by stage name).
	DecodeStreamStages map[string]int64 `json:"decode_stream_stage_ns,omitempty"`
}

// stageTotals flattens a snapshot into a stage-name → total-ns map,
// dropping stages the run never touched.
func stageTotals(rec *obs.Recorder) map[string]int64 {
	totals := map[string]int64{}
	for _, st := range rec.Snapshot().Stages {
		if st.Count > 0 {
			totals[st.Name] = st.TotalNs
		}
	}
	return totals
}

// CodecBenchResult is the machine-readable output of the codec
// benchmark (BENCH_codec.json). NumCPU and GoMaxProcs record the
// machine honestly: parallel-decode speedups are only meaningful when
// the host actually has the cores.
type CodecBenchResult struct {
	Points      int                   `json:"points"`
	ChunkPoints int                   `json:"chunk_points"`
	Iters       int                   `json:"iters"`
	NumCPU      int                   `json:"num_cpu"`
	GoMaxProcs  int                   `json:"gomaxprocs"`
	Rows        []CodecStrategyTiming `json:"rows"`
	// EnvNote is set when any decode worker count exceeds GOMAXPROCS,
	// so a reader of the JSON cannot miss that those rows are
	// environment-limited.
	EnvNote string `json:"env_note,omitempty"`
}

// Validate checks the result's environment honesty invariants: the
// recorded CPU counts are sane and every decode row whose worker count
// exceeds GOMAXPROCS is marked env-limited (with the top-level note
// set). The bench runner refuses to emit results that fail this — a
// benchmark that misreports its environment is worse than none.
func (r *CodecBenchResult) Validate() error {
	if r.NumCPU < 1 {
		return fmt.Errorf("experiments: benchmark recorded num_cpu=%d", r.NumCPU)
	}
	if r.GoMaxProcs < 1 {
		return fmt.Errorf("experiments: benchmark recorded gomaxprocs=%d", r.GoMaxProcs)
	}
	anyLimited := false
	for _, row := range r.Rows {
		for _, t := range row.DecodeChunked {
			limited := t.Workers > r.GoMaxProcs
			if t.EnvLimited != limited {
				return fmt.Errorf("experiments: %s decode@%dw env_limited=%v with GOMAXPROCS=%d", row.Strategy, t.Workers, t.EnvLimited, r.GoMaxProcs)
			}
			anyLimited = anyLimited || limited
		}
	}
	if anyLimited && r.EnvNote == "" {
		return fmt.Errorf("experiments: env-limited decode rows present but env_note is empty")
	}
	return nil
}

// codecDataset tiles the synthetic CMIP5 rlus transition to n points.
func codecDataset(n int, seed int64) (prev, cur []float64, err error) {
	series, err := CMIP5Series("rlus", 2, seed)
	if err != nil {
		return nil, nil, err
	}
	base, next := series[0], series[1]
	prev = make([]float64, n)
	cur = make([]float64, n)
	for i := 0; i < n; i++ {
		prev[i] = base[i%len(base)]
		cur[i] = next[i%len(next)]
	}
	return prev, cur, nil
}

// timeMin runs fn iters times and returns the fastest wall-clock run.
func timeMin(iters int, fn func() error) (int64, error) {
	best := int64(math.MaxInt64)
	for i := 0; i < iters; i++ {
		start := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		if ns := time.Since(start).Nanoseconds(); ns < best {
			best = ns
		}
	}
	return best, nil
}

// RunCodecBench measures encode and decode throughput of the in-memory
// and streaming paths for every binning strategy.
func RunCodecBench(cfg CodecBenchConfig) (*CodecBenchResult, error) {
	cfg = cfg.withDefaults()
	prev, cur, err := codecDataset(cfg.Points, cfg.Seed)
	if err != nil {
		return nil, err
	}
	res := &CodecBenchResult{
		Points:      cfg.Points,
		ChunkPoints: cfg.ChunkPoints,
		Iters:       cfg.Iters,
		NumCPU:      runtime.NumCPU(),
		GoMaxProcs:  runtime.GOMAXPROCS(0),
	}
	ccfg := chunk.Config{ChunkPoints: cfg.ChunkPoints}
	// All four strategies, not just the paper's three: equal-frequency
	// rides through the same pipeline.
	strategies := []core.Strategy{core.EqualWidth, core.LogScale, core.Clustering, core.EqualFrequency}
	for _, strategy := range strategies {
		opt := core.Options{ErrorBound: 0.001, IndexBits: 8, Strategy: strategy}
		row := CodecStrategyTiming{Strategy: strategy.String()}

		var enc *core.Encoded
		row.EncodeInMemoryNs, err = timeMin(cfg.Iters, func() error {
			enc, err = core.Encode(prev, cur, opt)
			if err != nil {
				return err
			}
			_, err = checkpoint.MarshalDeltaV2("bench", 1, enc, cfg.ChunkPoints)
			return err
		})
		if err != nil {
			return nil, err
		}
		row.Gamma = enc.Gamma()

		var v2 bytes.Buffer
		row.EncodeStreamNs, err = timeMin(cfg.Iters, func() error {
			v2.Reset()
			_, err := chunk.EncodeDeltaV2(&v2, "bench", 1, chunk.SliceSource(prev), chunk.SliceSource(cur), opt, ccfg)
			return err
		})
		if err != nil {
			return nil, err
		}
		row.EncodedBytes = v2.Len()

		// One extra instrumented run for the per-stage breakdown, after
		// the timed repetitions so the headline min stays clean.
		encRec := obs.NewRecorder()
		var instrumented bytes.Buffer
		icfg := ccfg
		icfg.Obs = encRec
		if _, err := chunk.EncodeDeltaV2(&instrumented, "bench", 1, chunk.SliceSource(prev), chunk.SliceSource(cur), opt, icfg); err != nil {
			return nil, err
		}
		row.EncodeStreamStages = stageTotals(encRec)

		row.DecodeInMemoryNs, err = timeMin(cfg.Iters, func() error {
			_, err := enc.Decode(prev)
			return err
		})
		if err != nil {
			return nil, err
		}

		d, err := checkpoint.OpenDelta(bytes.NewReader(v2.Bytes()), int64(v2.Len()))
		if err != nil {
			return nil, err
		}
		var baseNs int64
		for _, workers := range cfg.DecodeWorkers {
			w := workers
			ns, err := timeMin(cfg.Iters, func() error {
				_, err := d.Decode(prev, w)
				return err
			})
			if err != nil {
				return nil, err
			}
			t := CodecDecodeTiming{Workers: w, Ns: ns, EnvLimited: w > res.GoMaxProcs}
			if baseNs == 0 {
				baseNs = ns
			}
			if ns > 0 {
				t.Speedup = float64(baseNs) / float64(ns)
			}
			if t.EnvLimited && res.EnvNote == "" {
				res.EnvNote = fmt.Sprintf("decode rows with workers > GOMAXPROCS=%d are env_limited: their speedups measure scheduling overhead on this host, not parallel scaling", res.GoMaxProcs)
			}
			row.DecodeChunked = append(row.DecodeChunked, t)
		}

		decRec := obs.NewRecorder()
		err = chunk.DecodeDeltaV2(d, chunk.SliceSource(prev), chunk.Config{Workers: 1, Obs: decRec}, func([]float64) error { return nil })
		if err != nil {
			return nil, err
		}
		row.DecodeStreamStages = stageTotals(decRec)
		res.Rows = append(res.Rows, row)
	}
	if err := res.Validate(); err != nil {
		return nil, err
	}
	return res, nil
}

// WriteJSON emits the result as indented JSON.
func (r *CodecBenchResult) WriteJSON(w io.Writer) error {
	e := json.NewEncoder(w)
	e.SetIndent("", "  ")
	return e.Encode(r)
}

// WriteText prints a human-readable table.
func (r *CodecBenchResult) WriteText(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "codec bench: %d points, chunks of %d, min of %d runs, %d CPU (GOMAXPROCS %d)\n",
		r.Points, r.ChunkPoints, r.Iters, r.NumCPU, r.GoMaxProcs); err != nil {
		return err
	}
	for _, row := range r.Rows {
		if _, err := fmt.Fprintf(w, "  %-16s encode mem %8.2fms  stream %8.2fms | decode mem %7.2fms",
			row.Strategy,
			float64(row.EncodeInMemoryNs)/1e6, float64(row.EncodeStreamNs)/1e6,
			float64(row.DecodeInMemoryNs)/1e6); err != nil {
			return err
		}
		for _, t := range row.DecodeChunked {
			mark := ""
			if t.EnvLimited {
				mark = " ENV-LIMITED"
			}
			if _, err := fmt.Fprintf(w, "  v2@%dw %7.2fms (%.2fx%s)", t.Workers, float64(t.Ns)/1e6, t.Speedup, mark); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "  | %d bytes, gamma %.2f%%\n", row.EncodedBytes, row.Gamma*100); err != nil {
			return err
		}
	}
	if r.EnvNote != "" {
		if _, err := fmt.Fprintf(w, "  note: %s\n", r.EnvNote); err != nil {
			return err
		}
	}
	return nil
}
