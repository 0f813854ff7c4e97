package server

import (
	"numarck/internal/checkpoint"
	"numarck/internal/obs"
)

// This file is the daemon's wire vocabulary: the JSON bodies its
// endpoints produce, shared verbatim by the Client so the CLIs and
// the handlers cannot drift.

// CommitResponse reports one committed checkpoint.
type CommitResponse struct {
	// Tenant, Variable, Iteration, Kind identify what was committed
	// ("full" or "delta").
	Tenant    string `json:"tenant"`
	Variable  string `json:"variable"`
	Iteration int    `json:"iteration"`
	Kind      string `json:"kind"`
	// Points is the number of float64 values the checkpoint covers.
	Points int `json:"points"`
	// FileBytes is the committed file's size.
	FileBytes int64 `json:"file_bytes"`
	// Chunks, ChunkPoints, Workers, ExactValues describe a delta
	// encode's resolved pipeline run (zero for full or raw commits).
	Chunks      int `json:"chunks,omitempty"`
	ChunkPoints int `json:"chunk_points,omitempty"`
	Workers     int `json:"workers,omitempty"`
	ExactValues int `json:"exact_values,omitempty"`
	// Replayed reports that this commit was already journaled with the
	// same payload CRC and nothing new was written — the response of a
	// retried request whose first attempt actually landed (200, not
	// 201). Points and pipeline fields are zero on a replay.
	Replayed bool `json:"replayed,omitempty"`
}

// ChainEntryJSON is one committed chain file in a chain report.
type ChainEntryJSON struct {
	// Kind and Iteration identify the entry; Name is its file name in
	// the store directory.
	Kind      string `json:"kind"`
	Iteration int    `json:"iteration"`
	Name      string `json:"name"`
	// Bytes and CRC32 are the journaled length and checksum.
	Bytes int64  `json:"bytes"`
	CRC32 uint32 `json:"crc32"`
}

// IndexHealthJSON is checkpoint.IndexHealth flattened for the wire
// (its Err field does not marshal).
type IndexHealthJSON struct {
	// Present, Fresh, Seq, Entries mirror checkpoint.IndexHealth.
	Present bool   `json:"present"`
	Fresh   bool   `json:"fresh"`
	Seq     uint64 `json:"seq"`
	Entries int    `json:"entries"`
	// Detail is the health's one-line rendering.
	Detail string `json:"detail"`
}

// indexHealthJSON flattens h for the wire.
func indexHealthJSON(h checkpoint.IndexHealth) IndexHealthJSON {
	return IndexHealthJSON{Present: h.Present, Fresh: h.Fresh, Seq: h.Seq, Entries: h.Entries, Detail: h.String()}
}

// SeriesChainResponse is one series' chain report.
type SeriesChainResponse struct {
	// Tenant and Variable identify the series.
	Tenant   string `json:"tenant"`
	Variable string `json:"variable"`
	// LatestRestorable is the highest reconstructable iteration, -1
	// when no full checkpoint exists.
	LatestRestorable int `json:"latest_restorable"`
	// Entries lists the committed files in iteration order.
	Entries []ChainEntryJSON `json:"entries"`
	// Index is the chain index's health.
	Index IndexHealthJSON `json:"index"`
	// Verified reports whether the deep check ran (?verify=1); Issues
	// holds what it found for this series.
	Verified bool     `json:"verified"`
	Issues   []string `json:"issues,omitempty"`
}

// TenantChainResponse is a whole tenant's chain report.
type TenantChainResponse struct {
	// Tenant is the tenant name.
	Tenant string `json:"tenant"`
	// Variables lists the series in the tenant's store.
	Variables []string `json:"variables"`
	// Stats is the per-series storage breakdown.
	Stats []checkpoint.VariableStats `json:"stats"`
	// Latest maps each series to its latest restorable iteration
	// (absent when none).
	Latest map[string]int `json:"latest"`
	// Index is the chain index's health.
	Index IndexHealthJSON `json:"index"`
	// Verified reports whether the deep check ran (?verify=1); Issues
	// holds everything it found.
	Verified bool     `json:"verified"`
	Issues   []string `json:"issues,omitempty"`
}

// RestartResponse tells a restarting application where to resume.
type RestartResponse struct {
	// Tenant and Variable identify the series.
	Tenant   string `json:"tenant"`
	Variable string `json:"variable"`
	// Iteration is the latest restorable iteration — the state to GET
	// and resume from.
	Iteration int `json:"iteration"`
}

// PartialInfo describes salvage losses on a ?recover=1 read; it rides
// in the X-Numarck-Partial response header as compact JSON.
type PartialInfo struct {
	// LostPoints is the total number of points whose values were not
	// recovered (they hold the previous iteration's values).
	LostPoints int `json:"lost_points"`
	// Lost lists the half-open [lo, hi) index ranges that were lost.
	Lost []RangeJSON `json:"lost"`
}

// RangeJSON is one half-open lost index range.
type RangeJSON struct {
	// Lo and Hi bound the range: indices lo through hi-1 are lost.
	Lo int `json:"lo"`
	Hi int `json:"hi"`
}

// MetricsResponse is the /metrics body.
type MetricsResponse struct {
	// UptimeNs is nanoseconds since the server was built.
	UptimeNs int64 `json:"uptime_ns"`
	// Draining reports whether shutdown has begun.
	Draining bool `json:"draining"`
	// Governor is the admission controller's state.
	Governor GovernorStats `json:"governor"`
	// Tenants maps tenant name to that tenant's obs snapshot.
	Tenants map[string]obs.Snapshot `json:"tenants"`
	// Process merges every tenant snapshot into the process-wide view.
	Process obs.Snapshot `json:"process"`
	// Janitor is the self-healing sweeper's counters (spools_reaped,
	// sessions_reaped), kept apart from the tenant pipelines they clean
	// up after.
	Janitor obs.Snapshot `json:"janitor"`
}

// UploadResponse describes one resumable upload session: returned by
// session creation, every accepted range, status reads, and (with
// Commit set) finalize.
type UploadResponse struct {
	// ID names the session in /v1/uploads/{id} URLs.
	ID string `json:"id"`
	// Tenant, Variable, Iteration identify the commit the session will
	// finalize into.
	Tenant    string `json:"tenant"`
	Variable  string `json:"variable"`
	Iteration int    `json:"iteration"`
	// Size is the declared total payload size; Received is the
	// contiguous prefix stored so far. The client resumes a broken
	// upload by re-reading Received and sending from there.
	Size     int64 `json:"size"`
	Received int64 `json:"received"`
	// State is "open" while ranges are accepted, "done" once finalized.
	State string `json:"state"`
	// Commit is the finalize result (present only once State is done).
	Commit *CommitResponse `json:"commit,omitempty"`
}
