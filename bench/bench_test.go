package main

import (
	"encoding/json"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"testing"

	"numarck"
	"numarck/internal/checkpoint"
	"numarck/internal/core"
)

// TestGeneratorPinned pins the first generated states of both profiles,
// so a workload's inputs cannot change silently.
func TestGeneratorPinned(t *testing.T) {
	g := generator{seed: 1}
	for _, tc := range []struct {
		name string
		p    profile
		want uint32
	}{
		{"smooth", smooth, 0x74fddea0},
		{"rough", rough, 0x6cb10eba},
	} {
		states := g.series(7, tc.p, 1024, 3)
		h := crc32.NewIEEE()
		for _, st := range states {
			h.Write(leBytes(st))
		}
		if got := h.Sum32(); got != tc.want {
			t.Errorf("%s: CRC of the first states = %#08x, want %#08x", tc.name, got, tc.want)
		}
	}
	a, b := g.series(7, smooth, 64, 2), generator{seed: 2}.series(7, smooth, 64, 2)
	if exactErr(a[1], b[1]) == 0 {
		t.Error("seeds 1 and 2 generate the same states")
	}
}

// TestSyncsPerCommit pins what the counting filesystem sees for one
// Store.WriteRawDelta at today's value: three file syncs (data file,
// journal, index) and two directory syncs (after the data file's and
// the index's rename). A commit-path change must move this number on
// purpose.
func TestSyncsPerCommit(t *testing.T) {
	cfs := newCountingFS()
	opt := numarck.Options{ErrorBound: errorBound, IndexBits: indexBits}
	st, err := checkpoint.CreateFS(filepath.Join(t.TempDir(), "store"), opt, cfs)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	states := generator{seed: 1}.series(7, rough, 512, 2)
	if err := st.WriteFull("v", 0, states[0]); err != nil {
		t.Fatal(err)
	}
	enc, err := core.Encode(states[0], states[1], opt)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := checkpoint.MarshalDelta("v", 1, enc)
	if err != nil {
		t.Fatal(err)
	}
	before := cfs.n
	if err := st.WriteRawDelta("v", 1, raw); err != nil {
		t.Fatal(err)
	}
	got := cfs.n.sub(before)
	if got.Syncs != 3 || got.DirSyncs != 2 || got.Renames != 2 {
		t.Errorf("one commit: %d file syncs, %d dir syncs, %d renames; want 3, 2, 2", got.Syncs, got.DirSyncs, got.Renames)
	}
	if got.BytesWritten < int64(len(raw)) {
		t.Errorf("one commit wrote %d bytes, less than the %d-byte file", got.BytesWritten, len(raw))
	}
}

// smokeScale is every workload at a few percent of its size.
func smokeScale() scale {
	return scale{
		codecPoints: 16384, codecTransitions: 2, codecWrites: 4, codecReads: 4,
		small: storeParams{
			vars: 4, points: 512, profile: rough, strategy: numarck.EqualWidth,
			fullEvery: 4, fixtureIters: 8, writes: 4, reads: 2,
		},
		chain: storeParams{
			vars: 1, points: 2048, profile: smooth, strategy: numarck.LogScale,
			fullEvery: 0, fixtureIters: 5, writes: 2, reads: 2, readFixed: true,
		},
		svcPoints: 2048, svcIters: 6, svcFetchEvery: 3,
	}
}

// benchmarkJSON is the shape of ../BENCHMARK.json the test reads.
type benchmarkJSON struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

// TestSmoke runs every workload, untraced and traced, at smoke scale
// and checks what the benchmark promises: the metric names and units of
// BENCHMARK.json, finite values, no failed op, and spans that nest and
// account for the op they belong to.
func TestSmoke(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(raw, &bj); err != nil {
		t.Fatal(err)
	}
	want := map[bool]map[string]string{false: {}, true: {}}
	for _, d := range bj.EndToEnd {
		want[false][d.Name] = d.Unit
	}
	for _, d := range bj.PerLayer {
		want[true][d.Name] = d.Unit
	}
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(bj.Workloads), len(workloads))
	}

	for i := range workloads {
		w := &workloads[i]
		if bj.Workloads[i].Name != w.name {
			t.Errorf("BENCHMARK.json workload %d is %q, the benchmark's is %q", i, bj.Workloads[i].Name, w.name)
		}
		for _, traced := range []bool{false, true} {
			e := env{
				gen: generator{seed: 1}, dir: t.TempDir(), rounds: 1, sc: smokeScale(),
				traced: traced, traceOut: filepath.Join(t.TempDir(), "trace.json"), log: io.Discard,
			}
			run := runUntraced
			if traced {
				run = runTraced
			}
			m, oc, err := run(w, e)
			if err != nil {
				t.Fatal(err)
			}
			if oc.failed != 0 || oc.attempted == 0 {
				t.Errorf("%s traced=%v: %d of %d ops failed: %v", w.name, traced, oc.failed, oc.attempted, oc.first)
			}
			if len(m) != len(want[traced]) {
				t.Errorf("%s traced=%v: %d metrics, BENCHMARK.json has %d", w.name, traced, len(m), len(want[traced]))
			}
			for _, name := range sortedKeys(m) {
				if unit, ok := want[traced][name]; !ok || unit != m[name].Unit {
					t.Errorf("%s: metric %s [%s] is not in BENCHMARK.json with that unit", w.name, name, m[name].Unit)
				}
				if v := m[name].Value; math.IsNaN(v) || math.IsInf(v, 0) {
					t.Errorf("%s: metric %s = %v", w.name, name, v)
				}
			}
			if !traced {
				for _, name := range []string{"setup_s", "write_mb_per_s", "write_p50_ms", "read_mb_per_s", "read_p50_ms", "stored_bytes_per_user_byte"} {
					if m[name].Value <= 0 {
						t.Errorf("%s: %s = %v, want > 0", w.name, name, m[name].Value)
					}
				}
				if v := m["max_err_over_bound"].Value; v > 1 {
					t.Errorf("%s: max_err_over_bound = %v", w.name, v)
				}
				continue
			}
			if v := m["bench.layer_sum_over_op"].Value; v < 0.9 || v > 1.1 {
				t.Errorf("%s: bench.layer_sum_over_op = %v, want within 0.9–1.1", w.name, v)
			}
			checkSpans(t, w.name, e.traceOut)
		}
	}
}

// checkSpans reads a written trace and checks that every child span
// lies within its parent and shares its op.
func checkSpans(t *testing.T, workload, path string) {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var spans []span
	if err := json.Unmarshal(raw, &spans); err != nil {
		t.Fatal(err)
	}
	if len(spans) == 0 {
		t.Fatalf("%s: empty trace", workload)
	}
	tr := &tracer{}
	for i := range spans {
		s := &spans[i]
		tr.spans = append(tr.spans, s)
		if s.ID != i+1 || s.End < s.Start {
			t.Fatalf("%s: span %d has id %d, interval [%d, %d]", workload, i+1, s.ID, s.Start, s.End)
		}
		if s.Parent == 0 {
			if s.Layer != harnessLayer || s.Op != s.ID {
				t.Errorf("%s: root span %d is in layer %q, op %d", workload, s.ID, s.Layer, s.Op)
			}
			continue
		}
		p := spans[s.Parent-1]
		if s.Parent >= s.ID || s.Start < p.Start || s.End > p.End || s.Op != p.Op {
			t.Errorf("%s: span %d %s/%s [%d, %d] op %d does not nest in parent %d [%d, %d] op %d",
				workload, s.ID, s.Layer, s.Name, s.Start, s.End, s.Op, p.ID, p.Start, p.End, p.Op)
		}
	}
	for id, self := range tr.selfTimes() {
		if self < 0 {
			t.Errorf("%s: span %d has self time %d", workload, id, self)
		}
	}
}
