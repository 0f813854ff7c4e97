package numarck_test

import (
	"bytes"
	"math/rand"
	"testing"

	"numarck"
)

// observeDataset builds a smooth transition large enough to span
// several chunks.
func observeDataset(n int) (prev, cur []float64) {
	rng := rand.New(rand.NewSource(42))
	prev = make([]float64, n)
	cur = make([]float64, n)
	for i := range prev {
		prev[i] = 100 + rng.Float64()*50
		cur[i] = prev[i] * (1 + rng.NormFloat64()*0.002)
	}
	return prev, cur
}

// TestSnapshotReconciles checks, for every strategy, that the
// recorder's totals agree with ground truth: the byte counter equals
// the encoded output size exactly, the point and chunk counters match
// the input, and — with a single worker, so no stage time overlaps —
// the per-stage time sum does not exceed the snapshot's wall time.
func TestSnapshotReconciles(t *testing.T) {
	const (
		n           = 20_000
		chunkPoints = 4096
		wantChunks  = (n + chunkPoints - 1) / chunkPoints
	)
	prev, cur := observeDataset(n)
	for _, s := range numarck.Strategies {
		t.Run(s.String(), func(t *testing.T) {
			rec := numarck.NewRecorder()
			enc := numarck.StreamEncoder{
				Opt:      numarck.Options{ErrorBound: 0.001, IndexBits: 8, Strategy: s},
				Config:   numarck.StreamConfig{ChunkPoints: chunkPoints, Workers: 1},
				Recorder: rec,
			}
			var out bytes.Buffer
			if _, err := enc.Encode(&out, "obs", 1, numarck.SliceSource(prev), numarck.SliceSource(cur)); err != nil {
				t.Fatal(err)
			}
			snap := rec.Snapshot()

			if got := snap.Counters["bytes_written"]; got != int64(out.Len()) {
				t.Errorf("bytes_written = %d, encoded output is %d bytes", got, out.Len())
			}
			if got := snap.Counters["points_encoded"]; got != n {
				t.Errorf("points_encoded = %d, want %d", got, n)
			}
			if got := snap.Counters["chunks_encoded"]; got != wantChunks {
				t.Errorf("chunks_encoded = %d, want %d", got, wantChunks)
			}
			// Pass 1 reads prev+cur (16 bytes per point); an uncapped run
			// caches the ratios, so pass 2 re-reads only cur (8 bytes per
			// point) for the exact values.
			if got := snap.Counters["bytes_read"]; got != 24*n {
				t.Errorf("bytes_read = %d, want %d", got, 24*n)
			}
			if sum := snap.StageTotalNs(); sum > snap.WallNs {
				t.Errorf("single-worker stage time sum %dns exceeds wall time %dns", sum, snap.WallNs)
			}
			for _, st := range snap.Stages {
				if st.Count == 0 {
					continue
				}
				var bucketed int64
				for _, b := range st.Buckets {
					bucketed += b.Count
				}
				if bucketed != st.Count {
					t.Errorf("stage %s: bucket counts sum to %d, want %d observations", st.Name, bucketed, st.Count)
				}
			}

			// Decode side: a fresh recorder must account for every point
			// and chunk it reconstructed.
			drec := numarck.NewRecorder()
			dec := numarck.StreamDecoder{
				Config:   numarck.StreamConfig{Workers: 1},
				Recorder: drec,
			}
			var got int
			err := dec.Decode(bytes.NewReader(out.Bytes()), int64(out.Len()), numarck.SliceSource(prev), func(vals []float64) error {
				got += len(vals)
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			dsnap := drec.Snapshot()
			if c := dsnap.Counters["points_decoded"]; c != int64(got) || got != n {
				t.Errorf("points_decoded = %d, emitted %d, want %d", c, got, n)
			}
			if c := dsnap.Counters["chunks_decoded"]; c != wantChunks {
				t.Errorf("chunks_decoded = %d, want %d", c, wantChunks)
			}
			if sum := dsnap.StageTotalNs(); sum > dsnap.WallNs {
				t.Errorf("single-worker decode stage sum %dns exceeds wall %dns", sum, dsnap.WallNs)
			}
		})
	}
}

// TestWithRecorderInMemory checks the facade option constructor feeds
// the in-memory Encode/Decode counters.
func TestWithRecorderInMemory(t *testing.T) {
	prev, cur := observeDataset(5000)
	rec := numarck.NewRecorder()
	opt := numarck.WithRecorder(numarck.Options{ErrorBound: 0.001, IndexBits: 8, Strategy: numarck.EqualWidth}, rec)
	enc, err := numarck.Encode(prev, cur, opt)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := enc.Decode(prev); err != nil {
		t.Fatal(err)
	}
	snap := rec.Snapshot()
	if got := snap.Counters["points_encoded"]; got != 5000 {
		t.Errorf("points_encoded = %d, want 5000", got)
	}
	if got := snap.Counters["points_decoded"]; got != 5000 {
		t.Errorf("points_decoded = %d, want 5000", got)
	}
	for _, stage := range []string{"ratio", "table", "assign", "decode"} {
		if st := snap.Stage(stage); st.Count == 0 {
			t.Errorf("stage %s was never observed", stage)
		}
	}
}

// TestNilRecorderStreams checks the zero-value encoder (no recorder)
// still produces byte-identical output to an instrumented one: the
// no-op path must not change behavior, only skip accounting.
func TestNilRecorderStreams(t *testing.T) {
	prev, cur := observeDataset(10_000)
	opt := numarck.Options{ErrorBound: 0.001, IndexBits: 8, Strategy: numarck.EqualWidth}
	cfg := numarck.StreamConfig{ChunkPoints: 4096, Workers: 1}

	var plain, observed bytes.Buffer
	if _, err := (numarck.StreamEncoder{Opt: opt, Config: cfg}).Encode(&plain, "obs", 1, numarck.SliceSource(prev), numarck.SliceSource(cur)); err != nil {
		t.Fatal(err)
	}
	rec := numarck.NewRecorder()
	if _, err := (numarck.StreamEncoder{Opt: opt, Config: cfg, Recorder: rec}).Encode(&observed, "obs", 1, numarck.SliceSource(prev), numarck.SliceSource(cur)); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(plain.Bytes(), observed.Bytes()) {
		t.Fatalf("instrumented encode produced different bytes (%d vs %d)", observed.Len(), plain.Len())
	}
}

// TestRecoveryCountersZeroOnCleanRun checks the durability counter
// family stays at zero across a healthy write/reopen/restart cycle: a
// clean store must report no recovery work beyond the scan itself, and
// no quarantined chunks or torn files ever.
func TestRecoveryCountersZeroOnCleanRun(t *testing.T) {
	dir := t.TempDir() + "/store"
	st, err := numarck.CreateStore(dir, numarck.Options{ErrorBound: 0.001, IndexBits: 8, Strategy: numarck.EqualWidth})
	if err != nil {
		t.Fatal(err)
	}
	prev, cur := observeDataset(3000)
	w := numarck.NewWriter(st, 0)
	for i, x := range [][]float64{prev, cur} {
		if _, err := w.Append(i, map[string][]float64{"obs": x}); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	rec := numarck.NewRecorder()
	st2, err := numarck.OpenStoreObserved(dir, rec)
	if err != nil {
		t.Fatal(err)
	}
	if !st2.Recovery().Clean() {
		t.Fatalf("clean store reported recovery work: %s", st2.Recovery())
	}
	if _, err := st2.Restart("obs", 1); err != nil {
		t.Fatal(err)
	}
	if _, pde, err := st2.RestartSalvage("obs", 1); err != nil || pde != nil {
		t.Fatalf("salvage restart of clean store: pde=%v err=%v", pde, err)
	}
	snap := rec.Snapshot()
	if got := snap.Counters["recovery_scans"]; got != 1 {
		t.Errorf("recovery_scans = %d, want 1 (the open-time scan)", got)
	}
	// index_rebuilds stays zero too: a cleanly closed writer leaves a
	// fresh CHAININDEX that the reopen adopts instead of rebuilding.
	for _, c := range []string{"chunks_quarantined", "torn_files_detected", "index_rebuilds", "lock_takeovers"} {
		if got := snap.Counters[c]; got != 0 {
			t.Errorf("%s = %d on a clean run, want 0", c, got)
		}
	}
}
