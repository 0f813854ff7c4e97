//go:build corpusgen

package checkpoint

import (
	"encoding/binary"
	"encoding/json"
	"hash/crc32"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"numarck/internal/core"
	"numarck/internal/faultfs"
	"numarck/internal/obs"
)

// TestGenerateCorpus writes a new frozen store corpus into
// testdata/corpus/<name>/ and its expected.json. It runs only under the
// corpusgen build tag:
//
//	go test -tags corpusgen -run TestGenerateCorpus ./internal/checkpoint
//
// A corpus is never regenerated: one that exists is left alone, and a
// change to what the writers emit adds a new corpus beside the old ones.
// pr31/ was written by this generator at the commit that added it, when
// Store.WriteEncodedDelta still wrote NMRKD1: its dens deltas are v1
// files, which today's writers no longer produce.
func TestGenerateCorpus(t *testing.T) {
	const name = "pr31"
	dir := filepath.Join("testdata", "corpus", name)
	if _, err := os.Stat(dir); err == nil {
		t.Skipf("%s exists; a corpus is never regenerated", dir)
	}
	writeCorpus(t, dir)
	want := recordCorpus(t, dir)
	raw, err := json.MarshalIndent(want, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, corpusExpected), append(raw, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
}

// writeCorpus writes the store: three variables, iterations 0..11 of
// corpusPoints points each, through every writer path there is —
//
//   - dens: the library Writer (full every corpusFullEvery), journal
//     records without pcrc;
//   - pres: the daemon's path, closed-loop deltas marshalled at default
//     chunking (one chunk) and committed raw with the payload's CRC;
//   - temp: the same as four-chunk files (256 points a chunk), plus a
//     library full at 8.
//
// and then the leftovers of interrupted commits at iteration 11:
// temp@11 staged as a .tmp and never renamed; pres@11 renamed into
// place with its journal record torn halfway (a committed file the
// journal missed, and a torn tail); and the LOCK of a writer whose PID
// no longer exists. No single crash leaves all three; the corpus holds
// them together so that one open exercises every repair.
func writeCorpus(t *testing.T, dir string) {
	t.Helper()
	opt := core.Options{ErrorBound: 0.001, IndexBits: 8, Strategy: core.Clustering, Workers: 1}
	st, err := Create(dir, opt)
	if err != nil {
		t.Fatal(err)
	}
	dens := NewWriter(st, corpusFullEvery)
	rng := rand.New(rand.NewSource(2014))
	states := map[string][]float64{
		"dens": make([]float64, corpusPoints),
		"pres": make([]float64, corpusPoints),
		"temp": make([]float64, corpusPoints),
	}
	for j := 0; j < corpusPoints; j++ {
		states["dens"][j] = 50 + rng.Float64()*100
		states["pres"][j] = 1e5 * (1 + 0.1*math.Sin(float64(j)/40))
		states["temp"][j] = 280 + 20*math.Cos(float64(j)/17)
		if j%97 == 0 {
			states["dens"][j] = 0
		}
	}
	for i := 0; i < corpusIterations; i++ {
		if i > 0 {
			for v, s := range states {
				corpusAdvance(rng, s, i, v == "dens")
			}
		}
		last := i == corpusIterations-1
		if _, err := dens.Append(i, map[string][]float64{"dens": states["dens"]}); err != nil {
			t.Fatal(err)
		}
		for _, v := range []string{"pres", "temp"} {
			cur := states[v]
			var raw []byte
			switch {
			case i == 0:
				raw, err = MarshalFull(v, i, cur)
			case v == "temp" && i == 8:
				if err := st.WriteFull(v, i, cur); err != nil {
					t.Fatal(err)
				}
				continue
			default:
				prev, rerr := st.Restart(v, i-1)
				if rerr != nil {
					t.Fatal(rerr)
				}
				enc, eerr := core.Encode(prev, cur, opt)
				if eerr != nil {
					t.Fatal(eerr)
				}
				chunkPoints := 0
				if v == "temp" {
					chunkPoints = 256
				}
				raw, err = MarshalDeltaV2(v, i, enc, chunkPoints)
			}
			if err != nil {
				t.Fatal(err)
			}
			kind := "delta"
			if i == 0 {
				kind = "full"
			}
			path := filepath.Join(dir, fileName(v, kind, i))
			switch {
			case last && v == "temp":
				if err := os.WriteFile(path+".tmp", raw, 0o644); err != nil {
					t.Fatal(err)
				}
			case last && v == "pres":
				if err := os.WriteFile(path, raw, 0o644); err != nil {
					t.Fatal(err)
				}
				line, err := json.Marshal(journalRecord{Op: "add", Name: filepath.Base(path), Len: int64(len(raw)), CRC: crc32.ChecksumIEEE(raw), PayloadCRC: corpusPayloadCRC(cur)})
				if err != nil {
					t.Fatal(err)
				}
				f, err := os.OpenFile(filepath.Join(dir, journalName), os.O_WRONLY|os.O_APPEND, 0)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := f.Write(line[:len(line)/2]); err != nil {
					t.Fatal(err)
				}
				if err := f.Close(); err != nil {
					t.Fatal(err)
				}
			case kind == "full", v == "pres":
				_, err = st.WriteRaw(v, i, raw, corpusPayloadCRC(cur))
			default:
				err = st.WriteRawDelta(v, i, raw)
			}
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	lock := marshalLock(lockInfo{PID: 1999999999, Nonce: 0x5eed, Acquired: 1760000000e9})
	if err := os.WriteFile(filepath.Join(dir, lockName), lock, 0o644); err != nil {
		t.Fatal(err)
	}
}

// corpusPayloadCRC is the CRC the daemon journals: that of the raw
// little-endian float64 body a client pushed.
func corpusPayloadCRC(vals []float64) uint32 {
	body := make([]byte, 8*len(vals))
	for j, v := range vals {
		binary.LittleEndian.PutUint64(body[8*j:], math.Float64bits(v))
	}
	return crc32.ChecksumIEEE(body)
}

// recordCorpus opens a copy of the freshly written corpus the way
// TestCorpus does and records what it sees.
func recordCorpus(t *testing.T, src string) corpusExpectation {
	t.Helper()
	var want corpusExpectation
	dir := copyCorpus(t, src)
	want.IndexBefore = corpusIndexOf(indexHealth(faultfs.OS(), dir))
	rec := obs.NewRecorder()
	st, err := OpenFS(dir, faultfs.OS(), rec)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	want.Recovery = *st.Recovery()
	want.LockTakeovers = rec.Snapshot().Counters[obs.CounterLockTakeovers.String()]
	want.IndexSeqAfterOpen = st.IndexSeq()
	issues, err := st.Verify()
	if err != nil {
		t.Fatal(err)
	}
	for _, is := range issues {
		want.Verify = append(want.Verify, is.String())
	}
	if want.LatestConsistent, err = st.LatestConsistent(); err != nil {
		t.Fatal(err)
	}
	want.Restarts = map[string]string{}
	vars, _ := st.Variables()
	for _, v := range vars {
		entries, _ := st.List(v)
		for _, e := range entries {
			data, err := st.Restart(v, e.Iteration)
			if err != nil {
				t.Fatal(err)
			}
			want.Restarts[corpusKey(v, e.Iteration)] = stateSHA256(data)
		}
	}
	return want
}
