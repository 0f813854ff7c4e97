package main

import (
	"fmt"
	"math"
	"time"

	"numarck/internal/stats"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricDef names a metric of the benchmark; BENCHMARK.json lists the
// same names and units, and the smoke test compares the two.
type metricDef struct {
	name, unit string
}

// endToEnd is the set of end-to-end metrics, the same on every
// workload, printed by an untraced run.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"write_mb_per_s", "MB/s"},
	{"write_p50_ms", "ms"},
	{"read_mb_per_s", "MB/s"},
	{"read_p50_ms", "ms"},
	{"stored_bytes_per_user_byte", "ratio"},
	{"max_err_over_bound", "ratio"},
}

// perLayer is the set of per-layer metrics, printed by a traced run. A
// layer that a workload does not execute reports 0 there.
var perLayer = []metricDef{
	{"core.encode_ns_per_point", "ns"},
	{"core.decode_ns_per_point", "ns"},
	{"core.ratio_ns_per_point", "ns"},
	{"core.table_ns_per_point", "ns"},
	{"core.assign_ns_per_point", "ns"},
	{"core.incompressible_share", "ratio"},
	{"core.encode_ns_per_point.equal-width", "ns"},
	{"core.encode_ns_per_point.log-scale", "ns"},
	{"core.encode_ns_per_point.equal-frequency", "ns"},
	{"bitpack.pack_ns_per_point", "ns"},
	{"bitpack.unpack_ns_per_point", "ns"},
	{"chunk.encode_stream_ns_per_point", "ns"},
	{"chunk.decode_stream_ns_per_point", "ns"},
	{"chunk.stream_over_inmem_encode", "ratio"},
	{"chunk.stream_over_inmem_decode", "ratio"},
	{"chunk.queue_wait_share", "ratio"},
	{"checkpoint.marshal_delta_ns_per_point", "ns"},
	{"checkpoint.unmarshal_delta_ns_per_point", "ns"},
	{"checkpoint.marshal_full_mb_per_s", "MB/s"},
	{"checkpoint.unmarshal_full_mb_per_s", "MB/s"},
	{"checkpoint.commit_ms", "ms"},
	{"checkpoint.commit_ms_per_1k_chain_entries", "ms"},
	{"checkpoint.commit_share_of_write", "ratio"},
	{"checkpoint.open_writer_ms", "ms"},
	{"checkpoint.open_readonly_ms", "ms"},
	{"checkpoint.restart_full_ms", "ms"},
	{"checkpoint.restart_ms_per_delta", "ms"},
	{"checkpoint.verify_issues", "count"},
	{"faultfs.fsyncs_per_commit", "count"},
	{"faultfs.dir_syncs_per_commit", "count"},
	{"faultfs.bytes_written_per_commit", "bytes"},
	{"faultfs.device_bytes_per_user_byte", "ratio"},
	{"faultfs.sync_ms_per_commit", "ms"},
	{"faultfs.files_opened_per_restart", "count"},
	{"faultfs.bytes_read_per_restart", "bytes"},
	{"rawio.read_mb_per_s", "MB/s"},
	{"server.handler_push_ms", "ms"},
	{"server.handler_fetch_ms", "ms"},
	{"server.http_overhead_ms", "ms"},
	{"server.prev_replay_ms", "ms"},
	{"server.codec_stage_ms_per_push", "ms"},
	{"server.governor_waits", "count"},
	{"server.commit_replays", "count"},
	{"server.status_non2xx", "count"},
	{"server.client_push_ms", "ms"},
	{"server.client_fetch_ms", "ms"},
	{"server.client_retries", "count"},
	{"bench.trace_overhead_share", "ratio"},
	{"bench.layer_sum_over_op", "ratio"},
	{"bench.warmup_s", "s"},
	{"bench.round_spread", "ratio"},
	{"bench.write_p95_ms", "ms"},
	{"bench.read_p95_ms", "ms"},
}

// metrics maps a metric name to its value. set refuses names the
// tables above do not define, so a typo cannot invent a metric.
type metrics map[string]metric

// newMetrics returns defs with every value 0.
func newMetrics(defs []metricDef) metrics {
	m := metrics{}
	for _, d := range defs {
		m[d.name] = metric{Unit: d.unit}
	}
	return m
}

func (m metrics) set(name string, v float64) {
	cur, ok := m[name]
	if !ok {
		panic("bench: undefined metric " + name)
	}
	cur.Value = v
	m[name] = cur
}

// median returns the median of xs (0 for none).
func median(xs []float64) float64 { return percentile(xs, 50) }

// percentile returns the p-th percentile of xs by linear interpolation
// between order statistics (0 for none). xs is not modified.
func percentile(xs []float64, p float64) float64 {
	v, err := stats.Quantile(xs, p/100)
	if err != nil {
		return 0
	}
	return v
}

// slope returns the least-squares slope of y against x (0 when x does
// not vary).
func slope(x, y []float64) float64 {
	n := float64(len(x))
	if n < 2 {
		return 0
	}
	var sx, sy, sxx, sxy float64
	for i := range x {
		sx += x[i]
		sy += y[i]
		sxx += x[i] * x[i]
		sxy += x[i] * y[i]
	}
	den := n*sxx - sx*sx
	if den <= 0 {
		return 0
	}
	return (n*sxy - sx*sy) / den
}

// ms converts a duration to milliseconds.
func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// roundStats is what one round of a workload's op sequence measured.
type roundStats struct {
	// writeMs and readMs are the per-op latencies.
	writeMs, readMs []float64
	// writeBytes and readBytes are the user bytes (8 per float64 point)
	// handed to write ops and returned by read ops.
	writeBytes, readBytes int64
	// writeWall and readWall are the times the throughputs are taken
	// over: the time inside the ops of each kind on a single-caller
	// workload, the whole round's wall time on service_mixed.
	writeWall, readWall time.Duration
}

// write records one write op of n user bytes on a single-caller
// workload.
func (r *roundStats) write(d time.Duration, n int) {
	r.writeMs = append(r.writeMs, ms(d))
	r.writeBytes += int64(n)
	r.writeWall += d
}

// read records one read op of n user bytes on a single-caller workload.
func (r *roundStats) read(d time.Duration, n int) {
	r.readMs = append(r.readMs, ms(d))
	r.readBytes += int64(n)
	r.readWall += d
}

func mbPerS(bytes int64, d time.Duration) float64 {
	if d <= 0 {
		return 0
	}
	return float64(bytes) / 1e6 / d.Seconds()
}

// timings fills the four timing metrics from the measured rounds. Each
// is computed per round and reported as the median over the rounds, so
// that a slow phase of the host that covers fewer than half of the
// rounds does not move it.
func (m metrics) timings(rounds []roundStats) {
	var wmb, rmb, wp50, rp50 []float64
	for _, r := range rounds {
		wmb = append(wmb, mbPerS(r.writeBytes, r.writeWall))
		rmb = append(rmb, mbPerS(r.readBytes, r.readWall))
		wp50 = append(wp50, median(r.writeMs))
		rp50 = append(rp50, median(r.readMs))
	}
	m.set("write_mb_per_s", median(wmb))
	m.set("write_p50_ms", median(wp50))
	m.set("read_mb_per_s", median(rmb))
	m.set("read_p50_ms", median(rp50))
}

// outcome counts ops and keeps the worst verified error. An op that
// returns an error, or whose output is further from the true state than
// its path's bound allows, is a failed op.
type outcome struct {
	attempted, failed int
	// worst is the largest verified error ÷ bound seen.
	worst float64
	// first is the first failure, for the report.
	first error
}

// op counts one attempted op and, when err is not nil, its failure.
func (o *outcome) op(err error) {
	o.attempted++
	if err != nil {
		o.fail(err)
	}
}

// fail counts a failure of an op already counted as attempted.
func (o *outcome) fail(err error) {
	o.failed++
	if o.first == nil {
		o.first = err
	}
}

// merge adds the counts of o, which another goroutine collected.
func (o *outcome) merge(other *outcome) {
	o.attempted += other.attempted
	o.failed += other.failed
	o.worst = math.Max(o.worst, other.worst)
	if o.first == nil {
		o.first = other.first
	}
}

// verified records the error ÷ bound of one checked output; above 1 the
// op has failed.
func (o *outcome) verified(what string, ratio float64) {
	if math.IsNaN(ratio) {
		ratio = inf
	}
	o.worst = math.Max(o.worst, ratio)
	if ratio > 1 {
		o.fail(fmt.Errorf("%s: error is %.4g times its bound", what, ratio))
	}
}

// check records a correctness check that is not an op of its own (byte
// identity, Store.Verify, metrics reconciliation).
func (o *outcome) check(err error) {
	if err != nil {
		o.fail(err)
	}
}
