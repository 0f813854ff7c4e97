package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"numarck"
)

// Common codec parameters of every workload: E = 0.1 %, B = 8.
const (
	errorBound = 0.001
	indexBits  = 8
)

// setupPasses is how many times an untraced run sets a workload up.
// Each pass generates the inputs, builds the fixture, opens the store
// or daemon and runs one warm-up round; setup_s is the median pass, and
// the passes before the last are the warm-up of the process.
const setupPasses = 3

// scale holds every size and op count of the four workloads. The
// benchmark runs fullScale; the smoke test runs the same code on
// smokeScale.
type scale struct {
	// codec_large: points per state, transitions cycled, ops per round.
	codecPoints, codecTransitions, codecWrites, codecReads int
	// store_small and restart_chain.
	small, chain storeParams
	// service_mixed: points per state, iterations per client per round,
	// a fetch after every svcFetchEvery-th push.
	svcPoints, svcIters, svcFetchEvery int
}

// svcClients is the number of closed-loop clients of service_mixed: one
// per core of the reference host, fixed so that op counts repeat on any
// host.
const svcClients = 2

func fullScale() scale {
	return scale{
		codecPoints: 524288, codecTransitions: 8, codecWrites: 60, codecReads: 120,
		small: storeParams{
			vars: 4, points: 12960, profile: rough, strategy: numarck.EqualWidth,
			fullEvery: 16, fixtureIters: 240, writes: 48, reads: 48,
		},
		chain: storeParams{
			vars: 1, points: 65536, profile: smooth, strategy: numarck.LogScale,
			fullEvery: 0, fixtureIters: 33, writes: 40, reads: 40, readFixed: true,
		},
		svcPoints: 32768, svcIters: 96, svcFetchEvery: 3,
	}
}

// env is what a workload is given to run with.
type env struct {
	gen    generator
	dir    string // scratch directory on a real filesystem; the caller removes it
	rounds int    // measured rounds of an untraced run
	sc     scale
	// traced selects the traced run: stores open on the counting
	// filesystem and the daemon behind the span middleware.
	traced bool
	// traceOut, when not empty, is where a traced run writes its spans.
	traceOut string
	// log receives the traced run's per-layer share of op time.
	log io.Writer
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// instance is one set-up workload: inputs generated, fixture built,
// store or daemon open.
type instance interface {
	// round runs the workload's op sequence once. With tr nil every op
	// goes through the root façade (or server.Client); otherwise the
	// harness performs it as explicit calls into each layer with a span
	// around each.
	round(rs *roundStats, tr *tracer)
	// finish runs the end-of-run checks and sets
	// stored_bytes_per_user_byte.
	finish(m metrics)
	// layers fills the workload's per-layer metrics from the spans of
	// the traced rounds. It runs after finish.
	layers(m metrics, tr *tracer)
	// close stops what setup started and removes its files.
	close()
}

// workload is one named set of inputs and ops.
type workload struct {
	name, why string
	setup     func(e env, dir string, out *outcome) (instance, error)
}

var workloads = []workload{
	{"codec_large", "4 MiB states streamed through the codec in memory: core, kmeans, bitpack, chunk and the v2 format do all the work, the store and the daemon none", setupCodec},
	{"store_small", "101 KiB states appended with real fsyncs to a store of 1000 to 2000 chain entries: the commit path (checkpoint.store, faultfs) dominates, the codec is a small share", setupSmall},
	{"restart_chain", "cold restarts that replay 32 deltas: file read, unmarshal, unpack and decode dominate, the commit path is a small share", setupChain},
	{"service_mixed", "two closed-loop clients push and fetch through the HTTP daemon in one tenant: the only workload that runs server and server.client, under contention", setupService},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// runUntraced measures the end-to-end metrics of w.
func runUntraced(w *workload, e env) (metrics, *outcome, error) {
	out := &outcome{}
	var inst instance
	var setups []float64
	for p := 0; p < setupPasses; p++ {
		if inst != nil {
			inst.close()
		}
		t0 := time.Now()
		var err error
		inst, err = w.setup(e, filepath.Join(e.dir, fmt.Sprintf("pass%d", p)), out)
		if err != nil {
			return nil, nil, fmt.Errorf("%s: set-up: %w", w.name, err)
		}
		inst.round(&roundStats{}, nil)
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer inst.close()

	rounds := make([]roundStats, e.rounds)
	for i := range rounds {
		runtime.GC()
		inst.round(&rounds[i], nil)
	}
	m := newMetrics(endToEnd)
	m.set("setup_s", median(setups))
	m.timings(rounds)
	inst.finish(m)
	m.set("max_err_over_bound", out.worst)
	return m, out, nil
}

// runTraced measures the per-layer metrics of w: two warm-up rounds,
// then a façade round, two rounds performed as layer calls, and a
// second façade round. On the store workloads an op costs more as the
// chain grows; in this order that drift falls on both kinds alike, and
// bench.trace_overhead_share compares their median latencies.
func runTraced(w *workload, e env) (metrics, *outcome, error) {
	out := &outcome{}
	inst, err := w.setup(e, filepath.Join(e.dir, "traced"), out)
	if err != nil {
		return nil, nil, fmt.Errorf("%s: set-up: %w", w.name, err)
	}
	defer inst.close()
	t0 := time.Now()
	inst.round(&roundStats{}, nil)
	inst.round(&roundStats{}, nil)
	warmup := time.Since(t0)

	tr := newTracer()
	var facade, traced roundStats
	var wmb []float64
	for _, withTrace := range []bool{false, true, true, false} {
		pool, t := &facade, (*tracer)(nil)
		if withTrace {
			pool, t = &traced, tr
		}
		runtime.GC()
		var rs roundStats
		inst.round(&rs, t)
		wmb = append(wmb, mbPerS(rs.writeBytes, rs.writeWall))
		pool.writeMs = append(pool.writeMs, rs.writeMs...)
		pool.readMs = append(pool.readMs, rs.readMs...)
	}

	m := newMetrics(perLayer)
	m.set("bench.warmup_s", warmup.Seconds())
	if med := median(wmb); med > 0 {
		m.set("bench.round_spread", (percentile(wmb, 100)-percentile(wmb, 0))/med)
	}
	m.set("bench.trace_overhead_share", max(
		median(traced.writeMs)/median(facade.writeMs)-1,
		median(traced.readMs)/median(facade.readMs)-1))
	// The 95th percentiles are reported here, ungated: on this host they
	// sit on a mode boundary (ops that a GC cycle or an index rewrite
	// hits) and do not repeat within any bound worth gating.
	m.set("bench.write_p95_ms", percentile(facade.writeMs, 95))
	m.set("bench.read_p95_ms", percentile(facade.readMs, 95))
	byLayer, opWall := tr.layerShares()
	if opWall > 0 {
		m.set("bench.layer_sum_over_op", float64(opWall-byLayer[harnessLayer])/float64(opWall))
		for _, layer := range sortedKeys(byLayer) {
			fmt.Fprintf(e.log, "bench: %s: %-18s %5.1f %% of traced op time is self time of this layer\n",
				w.name, layer, 100*float64(byLayer[layer])/float64(opWall))
		}
	}
	inst.finish(newMetrics(endToEnd))
	inst.layers(m, tr)
	if e.traceOut != "" {
		if err := os.MkdirAll(filepath.Dir(e.traceOut), 0o755); err != nil {
			return nil, nil, err
		}
		if err := tr.write(e.traceOut); err != nil {
			return nil, nil, fmt.Errorf("%s: write trace: %w", w.name, err)
		}
	}
	return m, out, nil
}
