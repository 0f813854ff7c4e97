// Package obs is the instrumentation layer of the encode/decode
// pipeline: a Recorder of per-stage wall times (with log2 latency
// histograms), monotonic counters, and high-water-mark gauges, all
// updated with atomic operations so the goroutine-parallel pipeline
// stages (internal/chunk workers, the parallel v2 decode) can report
// into one Recorder without locks.
//
// The paper's value proposition is quantitative — compression ratio R,
// incompressible ratio γ, and per-stage cost (§III-B) — and this
// package makes the per-stage cost visible at runtime: where encode
// time goes (ratio computation, table learning, assignment, bit
// packing, CRC, IO), how long pipeline workers wait for an in-flight
// slot, and how many bytes each section of the output took.
//
// Every method is nil-safe: a nil *Recorder is the valid "off" state,
// costing uninstrumented callers exactly one predictable branch and no
// allocations (verified by TestNilRecorderAllocFree). Callers therefore
// never need to guard instrumentation sites:
//
//	t := rec.Start()        // rec may be nil
//	...stage work...
//	t.Stop(obs.StageAssign) // no-op when rec was nil
//
// A point-in-time view is taken with Snapshot, which renders as an
// aligned text table (WriteText) or JSON (WriteJSON); cmd/numarck
// exposes both through -metrics and -metrics-json.
package obs

import (
	"math/bits"
	"sync/atomic"
	"time"
)

// Stage names one timed phase of the encode/decode pipeline. Stages are
// deliberately coarse — one per algorithmic phase of the paper's
// pipeline, not one per function — so their sum is interpretable
// against wall time.
type Stage uint8

// The pipeline stages, in encode order followed by decode order.
const (
	// StageRatio is change-ratio computation (paper Eq. 1).
	StageRatio Stage = iota
	// StageTable is table learning: binning or k-means fit (§II-C).
	StageTable
	// StageAssign is per-point bin assignment and error-bound
	// enforcement.
	StageAssign
	// StageBitpack is B-bit index packing and unpacking.
	StageBitpack
	// StageCRC is checksum computation and verification.
	StageCRC
	// StageRead is source reads: raw input windows and checkpoint
	// sections.
	StageRead
	// StageWrite is output writes: headers, chunk sections, directory.
	StageWrite
	// StageQueueWait is time pipeline workers spend blocked waiting for
	// an in-flight slot (backpressure from the ordered emitter).
	StageQueueWait
	// StageDecode is chunk reconstruction from a parsed section.
	StageDecode
	// StageWriteWait is the time a daemon write spends waiting for its
	// tenant's write section (the per-tenant mutex every commit of the
	// tenant passes through), from arrival to entry.
	StageWriteWait

	numStages
)

// stageNames must match the Stage constant order above.
var stageNames = [numStages]string{
	"ratio", "table", "assign", "bitpack", "crc",
	"read", "write", "queue-wait", "decode", "write-wait",
}

// String returns the stage's snapshot name.
func (s Stage) String() string {
	if int(s) < len(stageNames) {
		return stageNames[s]
	}
	return "unknown"
}

// Counter names one monotonic count.
type Counter uint8

// The counters. Byte counters are defined so that on a streaming
// encode, BytesWritten equals the size of the finished file (header +
// bin table + sections + directory + footer), which Snapshot tests
// reconcile against the actual output.
const (
	// CounterEncodes and CounterDecodes count whole encode/decode runs.
	CounterEncodes Counter = iota
	CounterDecodes
	// CounterPointsEncoded / CounterPointsDecoded count data points.
	CounterPointsEncoded
	CounterPointsDecoded
	// CounterChunksEncoded / CounterChunksDecoded count pipeline chunks.
	CounterChunksEncoded
	CounterChunksDecoded
	// CounterExactValues counts incompressible points stored raw.
	CounterExactValues
	// CounterTableInput counts ratios offered to the table-learning
	// stage.
	CounterTableInput
	// CounterBytesRead / CounterBytesWritten count IO bytes through the
	// instrumented readers and writers.
	CounterBytesRead
	CounterBytesWritten
	// CounterSectionBytes counts bytes of chunk sections only (the v2
	// payload without header, table, directory, footer).
	CounterSectionBytes
	// CounterRecoveryScans counts store-open recovery scans.
	CounterRecoveryScans
	// CounterTornFilesDetected counts truncated checkpoint files and
	// leftover write temporaries found by recovery scans.
	CounterTornFilesDetected
	// CounterChunksQuarantined counts chunks skipped by degraded-mode
	// (salvage) decodes because their CRC or structure check failed.
	CounterChunksQuarantined
	// CounterIndexRebuilds counts chain-index rebuilds from the MANIFEST
	// journal (a missing, stale, or corrupt CHAININDEX).
	CounterIndexRebuilds
	// CounterIndexRereads counts read-view snapshot refreshes: the
	// seqlock-style reread a reader performs when it observes the store
	// changed under it.
	CounterIndexRereads
	// CounterLockTakeovers counts stale writer locks broken by a new
	// writer (crashed owner detected at lock acquisition).
	CounterLockTakeovers
	// CounterCommitReplays counts idempotent commit replays: a retried
	// commit whose iteration was already journaled with the same
	// payload CRC, answered as a cheap success instead of re-applied.
	CounterCommitReplays
	// CounterRetries counts client-side retry attempts (every attempt
	// after the first, whatever its outcome).
	CounterRetries
	// CounterSpoolsReaped counts orphaned request-spool files removed
	// by the janitor.
	CounterSpoolsReaped
	// CounterSessionsReaped counts expired upload sessions removed by
	// the janitor.
	CounterSessionsReaped
	// CounterHeadHits counts daemon delta pushes encoded against the
	// series head: the state the tenant kept from the series' last
	// commit, used because the chain segment it came from is still the
	// one the read view lists.
	CounterHeadHits
	// CounterHeadMisses counts daemon delta pushes that replayed the
	// previous iteration from the chain instead: no head was kept (first
	// push, eviction, restart) or the chain moved under it.
	CounterHeadMisses
	// CounterLeaseReuses counts daemon commits that wrote through the
	// store a previous write of the tenant left open (the writer lease)
	// instead of opening and lock-claiming it again.
	CounterLeaseReuses
	// CounterFetchHeadHits counts daemon fetches (not ?raw=1) served
	// from the series head: it was at the fetched iteration, the read
	// view still lists its chain segment, and every file of that
	// segment matched its journaled length and CRC-32 when read.
	CounterFetchHeadHits
	// CounterFetchHeadMisses counts daemon fetches (not ?raw=1) that
	// replayed the chain instead: no head at that iteration (any other
	// iteration is always a miss), a segment that moved, or a file
	// that was missing, unreadable or not its journaled bytes.
	CounterFetchHeadMisses

	numCounters
)

// counterNames must match the Counter constant order above.
var counterNames = [numCounters]string{
	"encodes", "decodes",
	"points_encoded", "points_decoded",
	"chunks_encoded", "chunks_decoded",
	"exact_values", "table_input",
	"bytes_read", "bytes_written", "section_bytes",
	"recovery_scans", "torn_files_detected", "chunks_quarantined",
	"index_rebuilds", "index_rereads", "lock_takeovers",
	"commit_replays", "retries",
	"spools_reaped", "sessions_reaped",
	"head_hits", "head_misses", "lease_reuses",
	"fetch_head_hits", "fetch_head_misses",
}

// String returns the counter's snapshot name.
func (c Counter) String() string {
	if int(c) < len(counterNames) {
		return counterNames[c]
	}
	return "unknown"
}

// Gauge names one high-water-mark value: Set keeps the maximum ever
// observed, not the last.
type Gauge uint8

// The gauges.
const (
	// GaugePeakBufferBytes is the budget model's peak buffer footprint
	// of a streaming run (chunk.Result.PeakBufferBytes).
	GaugePeakBufferBytes Gauge = iota
	// GaugeWorkers is the resolved pipeline worker count.
	GaugeWorkers
	// GaugeChunkPoints is the resolved points-per-chunk.
	GaugeChunkPoints
	// GaugeBinCount is the learned bin table size.
	GaugeBinCount

	numGauges
)

// gaugeNames must match the Gauge constant order above.
var gaugeNames = [numGauges]string{
	"peak_buffer_bytes", "workers", "chunk_points", "bin_count",
}

// String returns the gauge's snapshot name.
func (g Gauge) String() string {
	if int(g) < len(gaugeNames) {
		return gaugeNames[g]
	}
	return "unknown"
}

// NumBuckets is the number of log2 latency buckets per stage: bucket i
// counts observations with duration in [2^i, 2^(i+1)) nanoseconds
// (bucket 0 also holds sub-nanosecond observations), and the last
// bucket absorbs everything from ~9.2 minutes up.
const NumBuckets = 40

// stageStats is one stage's accumulated timing, all fields atomic.
type stageStats struct {
	count   atomic.Int64
	totalNs atomic.Int64
	maxNs   atomic.Int64
	buckets [NumBuckets]atomic.Int64
}

// Recorder accumulates pipeline metrics. The zero value is ready to
// use; so is nil, which turns every method into a cheap no-op. One
// Recorder may be shared by any number of goroutines and by the
// encode and decode sides at once.
type Recorder struct {
	start    time.Time
	stages   [numStages]stageStats
	counters [numCounters]atomic.Int64
	gauges   [numGauges]atomic.Int64
}

// NewRecorder returns an empty Recorder anchored at the current time;
// Snapshot's WallNs measures from this anchor.
func NewRecorder() *Recorder {
	return &Recorder{start: time.Now()}
}

// Add increments counter c by n. Nil-safe.
func (r *Recorder) Add(c Counter, n int64) {
	if r == nil {
		return
	}
	r.counters[c].Add(n)
}

// SetMax raises gauge g to v if v exceeds the recorded maximum.
// Nil-safe.
func (r *Recorder) SetMax(g Gauge, v int64) {
	if r == nil {
		return
	}
	maxOf(&r.gauges[g], v)
}

// maxOf CAS-loops a into holding at least v.
func maxOf(a *atomic.Int64, v int64) {
	for {
		old := a.Load()
		if old >= v || a.CompareAndSwap(old, v) {
			return
		}
	}
}

// Observe records one completed run of stage s that took d. Nil-safe.
func (r *Recorder) Observe(s Stage, d time.Duration) {
	if r == nil {
		return
	}
	ns := d.Nanoseconds()
	if ns < 0 {
		ns = 0
	}
	st := &r.stages[s]
	st.count.Add(1)
	st.totalNs.Add(ns)
	maxOf(&st.maxNs, ns)
	st.buckets[bucketOf(ns)].Add(1)
}

// bucketOf maps a nanosecond duration to its log2 bucket index.
func bucketOf(ns int64) int {
	b := bits.Len64(uint64(ns)) - 1
	if b < 0 {
		b = 0
	}
	if b >= NumBuckets {
		b = NumBuckets - 1
	}
	return b
}

// Timer is an in-flight stage measurement, returned by Start. The zero
// Timer (from a nil Recorder) is valid and Stop on it does nothing.
type Timer struct {
	rec   *Recorder
	start time.Time
}

// Start begins timing a stage. On a nil Recorder it returns the zero
// Timer without reading the clock, so the uninstrumented path costs
// one branch. Nil-safe.
func (r *Recorder) Start() Timer {
	if r == nil {
		return Timer{}
	}
	return Timer{rec: r, start: time.Now()}
}

// Stop ends the measurement and records it under stage s.
func (t Timer) Stop(s Stage) {
	if t.rec == nil {
		return
	}
	t.rec.Observe(s, time.Since(t.start))
}
