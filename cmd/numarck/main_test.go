package main

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"numarck/internal/checkpoint"
	"numarck/internal/core"
	"numarck/internal/ncdf"
	"numarck/internal/rawio"
)

func writeSeries(t *testing.T, dir string) (prevPath, curPath string, prev, cur []float64) {
	t.Helper()
	rng := rand.New(rand.NewSource(1))
	prev = make([]float64, 2000)
	cur = make([]float64, 2000)
	for i := range prev {
		prev[i] = 10 + rng.Float64()*10
		cur[i] = prev[i] * (1 + rng.NormFloat64()*0.002)
	}
	prevPath = filepath.Join(dir, "prev.f64")
	curPath = filepath.Join(dir, "cur.f64")
	if err := rawio.WriteFile(prevPath, prev); err != nil {
		t.Fatal(err)
	}
	if err := rawio.WriteFile(curPath, cur); err != nil {
		t.Fatal(err)
	}
	return prevPath, curPath, prev, cur
}

func TestCompressDecompressRoundTrip(t *testing.T) {
	dir := t.TempDir()
	prevPath, curPath, prev, cur := writeSeries(t, dir)
	ckPath := filepath.Join(dir, "ck.nmk")
	recPath := filepath.Join(dir, "rec.f64")

	err := cmdCompress([]string{
		"-prev", prevPath, "-cur", curPath, "-out", ckPath,
		"-e", "0.001", "-b", "8", "-strategy", "clustering",
		"-var", "dens", "-iter", "3",
	})
	if err != nil {
		t.Fatalf("compress: %v", err)
	}
	if err := cmdDecompress([]string{"-prev", prevPath, "-in", ckPath, "-out", recPath}); err != nil {
		t.Fatalf("decompress: %v", err)
	}
	rec, err := rawio.ReadFile(recPath)
	if err != nil {
		t.Fatal(err)
	}
	for i := range cur {
		trueR := (cur[i] - prev[i]) / prev[i]
		recR := (rec[i] - prev[i]) / prev[i]
		if math.Abs(recR-trueR) > 0.001+1e-12 {
			t.Fatalf("bound violated at %d", i)
		}
	}
	if err := cmdInspect([]string{"-in", ckPath}); err != nil {
		t.Errorf("inspect: %v", err)
	}
}

func TestCompressValidation(t *testing.T) {
	if err := cmdCompress([]string{"-prev", "a", "-cur", "b"}); err == nil {
		t.Error("missing -out accepted")
	}
	if err := cmdCompress([]string{"-prev", "/nope", "-cur", "/nope", "-out", "/nope", "-strategy", "bogus"}); err == nil {
		t.Error("bogus strategy accepted")
	}
	if err := cmdCompress([]string{"-prev", "/nope.f64", "-cur", "/nope.f64", "-out", filepath.Join(t.TempDir(), "x")}); err == nil {
		t.Error("missing input accepted")
	}
}

func TestDecompressValidation(t *testing.T) {
	if err := cmdDecompress([]string{"-prev", "a"}); err == nil {
		t.Error("missing flags accepted")
	}
}

func TestInspectFull(t *testing.T) {
	dir := t.TempDir()
	_, _, prev, _ := writeSeries(t, dir)
	raw, err := checkpoint.MarshalFull("v", 0, prev)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "full.nmk")
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := cmdInspect([]string{"-in", path}); err != nil {
		t.Errorf("inspect full: %v", err)
	}
	// Garbage file is rejected.
	bad := filepath.Join(dir, "bad.nmk")
	if err := os.WriteFile(bad, []byte("not a checkpoint"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := cmdInspect([]string{"-in", bad}); err == nil {
		t.Error("garbage accepted")
	}
	if err := cmdInspect([]string{}); err == nil {
		t.Error("missing -in accepted")
	}
}

func TestRestartCommand(t *testing.T) {
	dir := t.TempDir()
	storeDir := filepath.Join(dir, "store")
	st, err := checkpoint.Create(storeDir, core.Options{ErrorBound: 0.001, IndexBits: 8, Strategy: core.Clustering})
	if err != nil {
		t.Fatal(err)
	}
	_, _, prev, cur := writeSeries(t, dir)
	w := checkpoint.NewWriter(st, 0)
	for i, x := range [][]float64{prev, cur} {
		if _, err := w.Append(i, map[string][]float64{"v": x}); err != nil {
			t.Fatal(err)
		}
	}
	out := filepath.Join(dir, "rec.f64")
	if err := cmdRestart([]string{"-dir", storeDir, "-var", "v", "-iter", "1", "-out", out}); err != nil {
		t.Fatalf("restart: %v", err)
	}
	rec, err := rawio.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if len(rec) != len(cur) {
		t.Errorf("restart produced %d points", len(rec))
	}
	if err := cmdRestart([]string{"-dir", storeDir}); err == nil {
		t.Error("missing flags accepted")
	}
}

func TestCompressFromNetCDF(t *testing.T) {
	dir := t.TempDir()
	// Build a small netCDF file with 3 timesteps of a 4x5 grid.
	f := &ncdf.File{
		Dims: []ncdf.Dim{{Name: "time", Len: 3}, {Name: "y", Len: 4}, {Name: "x", Len: 5}},
	}
	data := make([]float64, 3*4*5)
	for ti := 0; ti < 3; ti++ {
		for j := 0; j < 20; j++ {
			data[ti*20+j] = (100 + float64(j)) * (1 + 0.0005*float64(ti))
		}
	}
	f.Vars = []ncdf.Var{{Name: "temp", DimIDs: []int{0, 1, 2}, Data: data}}
	ncPath := filepath.Join(dir, "in.nc")
	if err := f.WriteFile(ncPath); err != nil {
		t.Fatal(err)
	}
	out := filepath.Join(dir, "ck.nmk")
	err := cmdCompress([]string{"-nc", ncPath, "-var", "temp", "-from", "1", "-to", "2", "-out", out})
	if err != nil {
		t.Fatalf("compress -nc: %v", err)
	}
	if err := cmdInspect([]string{"-in", out}); err != nil {
		t.Errorf("inspect: %v", err)
	}
	// Missing -from/-to rejected.
	if err := cmdCompress([]string{"-nc", ncPath, "-var", "temp", "-out", out + "2"}); err == nil {
		t.Error("missing -from/-to accepted")
	}
	// Unknown variable rejected.
	if err := cmdCompress([]string{"-nc", ncPath, "-var", "nope", "-from", "0", "-to", "1", "-out", out + "3"}); err == nil {
		t.Error("unknown nc variable accepted")
	}
}

// corruptOneByte flips a byte at 60% of the file — inside a chunk
// section for any realistically sized v2 delta.
func corruptOneByte(t *testing.T, path string) {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)*3/5] ^= 0x20
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestDecompressRecoverSalvagesCorruptV2(t *testing.T) {
	dir := t.TempDir()
	prevPath, curPath, prev, _ := writeSeries(t, dir)
	ckPath := filepath.Join(dir, "ck.nmk")
	recPath := filepath.Join(dir, "rec.f64")
	err := cmdCompress([]string{
		"-prev", prevPath, "-cur", curPath, "-out", ckPath,
		"-chunk", "256",
	})
	if err != nil {
		t.Fatalf("compress: %v", err)
	}
	corruptOneByte(t, ckPath)

	// Fail-closed by default.
	if err := cmdDecompress([]string{"-prev", prevPath, "-in", ckPath, "-out", recPath}); err == nil {
		t.Fatal("decompress of corrupt v2 without -recover succeeded")
	}
	// Salvage mode writes the output and keeps going.
	if err := cmdDecompress([]string{"-prev", prevPath, "-in", ckPath, "-out", recPath, "-recover"}); err != nil {
		t.Fatalf("decompress -recover: %v", err)
	}
	rec, err := rawio.ReadFile(recPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(rec) != len(prev) {
		t.Fatalf("salvaged output has %d points, want %d", len(rec), len(prev))
	}

	// Two adjacent corrupt chunks, 2 and 3: at one worker and at four,
	// the output is ReplayDelta's salvage of the same bytes, and stderr
	// reports the one merged lost range.
	if err := cmdCompress([]string{"-prev", prevPath, "-cur", curPath, "-out", ckPath, "-chunk", "256"}); err != nil {
		t.Fatalf("compress: %v", err)
	}
	raw, err := os.ReadFile(ckPath)
	if err != nil {
		t.Fatal(err)
	}
	dirOff := binary.LittleEndian.Uint64(raw[len(raw)-20:])
	for _, c := range []uint64{2, 3} {
		ent := raw[dirOff+20*c : dirOff+20*(c+1)]
		raw[binary.LittleEndian.Uint64(ent)+uint64(binary.LittleEndian.Uint32(ent[8:]))/2] ^= 0x20
	}
	if err := os.WriteFile(ckPath, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	want := slices.Clone(prev)
	rp, err := checkpoint.ReplayDelta(raw, "data", 1, want, &checkpoint.ChunkDecoder{}, checkpoint.RecoverOptions{Salvage: true})
	if err != nil || rp == nil || len(rp.Lost) != 1 || rp.Lost[0] != (checkpoint.Range{Lo: 512, Hi: 1024}) {
		t.Fatalf("ReplayDelta's salvage of chunks 2 and 3 = %v, %v", rp, err)
	}
	for _, workers := range []string{"1", "4"} {
		stderr := captureStderr(t, func() {
			err = cmdDecompress([]string{"-prev", prevPath, "-in", ckPath, "-out", recPath, "-recover", "-workers", workers})
		})
		if err != nil {
			t.Fatalf("decompress -recover -workers %s: %v", workers, err)
		}
		if !strings.Contains(stderr, "lost points [512,1024)\n") {
			t.Fatalf("decompress -recover -workers %s reported %q, want the one lost range [512,1024)", workers, stderr)
		}
		got, err := rawio.ReadFile(recPath)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("decompress -recover -workers %s wrote other values than ReplayDelta's salvage", workers)
		}
	}
}

// TestDecompressFailureKeepsExistingOut pins that a fail-closed
// decompress writes nothing: with chunk 7 of a 16-chunk delta corrupt,
// an -out that existed before is byte-identical after the error and no
// temporary file is left beside it, while -recover still writes its
// salvage there.
func TestDecompressFailureKeepsExistingOut(t *testing.T) {
	dir := t.TempDir()
	prevPath, curPath, prev, _ := writeSeries(t, dir)
	ckPath := filepath.Join(dir, "ck.nmk")
	recPath := filepath.Join(dir, "rec.f64")
	if err := cmdCompress([]string{"-prev", prevPath, "-cur", curPath, "-out", ckPath, "-chunk", "128"}); err != nil {
		t.Fatalf("compress: %v", err)
	}
	raw, err := os.ReadFile(ckPath)
	if err != nil {
		t.Fatal(err)
	}
	dirOff := binary.LittleEndian.Uint64(raw[len(raw)-20:])
	if chunks := (uint64(len(raw)) - 20 - dirOff) / 20; chunks != 16 {
		t.Fatalf("delta has %d chunks, want 16", chunks)
	}
	ent := raw[dirOff+20*7 : dirOff+20*8]
	raw[binary.LittleEndian.Uint64(ent)+uint64(binary.LittleEndian.Uint32(ent[8:]))/2] ^= 0x20
	if err := os.WriteFile(ckPath, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	before := []byte("the previous reconstruction")
	if err := os.WriteFile(recPath, before, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, workers := range []string{"1", "4"} {
		if err := cmdDecompress([]string{"-prev", prevPath, "-in", ckPath, "-out", recPath, "-workers", workers}); err == nil {
			t.Fatalf("-workers %s: decompress of a corrupt delta succeeded", workers)
		}
		after, err := os.ReadFile(recPath)
		if err != nil || !bytes.Equal(after, before) {
			t.Fatalf("-workers %s: -out holds %d bytes after a failed decompress (%v), want the %d it held before", workers, len(after), err, len(before))
		}
		if _, err := os.Stat(recPath + ".tmp"); !os.IsNotExist(err) {
			t.Fatalf("-workers %s: a failed decompress left its temporary file: %v", workers, err)
		}
	}
	if err := cmdDecompress([]string{"-prev", prevPath, "-in", ckPath, "-out", recPath, "-recover"}); err != nil {
		t.Fatalf("decompress -recover: %v", err)
	}
	if rec, err := rawio.ReadFile(recPath); err != nil || len(rec) != len(prev) {
		t.Fatalf("salvaged output has %d points (%v), want %d", len(rec), err, len(prev))
	}
}

// captureStderr returns what fn writes to os.Stderr.
func captureStderr(t *testing.T, fn func()) string {
	t.Helper()
	f, err := os.CreateTemp(t.TempDir(), "stderr")
	if err != nil {
		t.Fatal(err)
	}
	saved := os.Stderr
	os.Stderr = f
	fn()
	os.Stderr = saved
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	out, err := os.ReadFile(f.Name())
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}

// writeDeltaV2 commits prev → cur to st as a chunked v2 delta, the way
// a streaming producer does: marshalled bytes through WriteRawDelta.
func writeDeltaV2(t *testing.T, st *checkpoint.Store, variable string, iteration int, prev, cur []float64) {
	t.Helper()
	enc, err := core.Encode(prev, cur, st.Options())
	if err != nil {
		t.Fatal(err)
	}
	raw, err := checkpoint.MarshalDeltaV2(variable, iteration, enc, 256)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.WriteRawDelta(variable, iteration, raw); err != nil {
		t.Fatal(err)
	}
}

func TestRestartRecoverCommand(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "store")
	st, err := checkpoint.Create(dir, core.Options{ErrorBound: 0.001, IndexBits: 8, Strategy: core.Clustering})
	if err != nil {
		t.Fatal(err)
	}
	_, _, prev, cur := writeSeries(t, t.TempDir())
	if err := st.WriteFull("dens", 0, prev); err != nil {
		t.Fatal(err)
	}
	writeDeltaV2(t, st, "dens", 1, prev, cur)
	corruptOneByte(t, filepath.Join(dir, "dens.delta.000001.nmk"))

	outPath := filepath.Join(t.TempDir(), "rec.f64")
	if err := cmdRestart([]string{"-dir", dir, "-var", "dens", "-iter", "1", "-out", outPath}); err == nil {
		t.Fatal("restart over corrupt delta without -recover succeeded")
	}
	if err := cmdRestart([]string{"-dir", dir, "-var", "dens", "-iter", "1", "-out", outPath, "-recover"}); err != nil {
		t.Fatalf("restart -recover: %v", err)
	}
	rec, err := rawio.ReadFile(outPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(rec) != len(prev) {
		t.Fatalf("salvaged restart has %d points, want %d", len(rec), len(prev))
	}
}
