package main

import (
	"math"
	"math/rand"
	"os"
	"path/filepath"
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
	if err := st.WriteFull("v", 0, prev); err != nil {
		t.Fatal(err)
	}
	if _, err := st.WriteDelta("v", 1, prev, cur); err != nil {
		t.Fatal(err)
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
		"-stream", "-chunk", "256",
	})
	if err != nil {
		t.Fatalf("compress -stream: %v", err)
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

func TestVerifyCommand(t *testing.T) {
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
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if err := cmdVerify([]string{"-dir", dir}); err != nil {
		t.Fatalf("verify of healthy store: %v", err)
	}
	// Truncate the delta: verify must quarantine it and report unhealth.
	path := filepath.Join(dir, "dens.delta.000001.nmk")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, raw[:len(raw)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if err := cmdVerify([]string{"-dir", dir}); err == nil {
		t.Fatal("verify of damaged store reported healthy")
	}
	if err := cmdVerify([]string{}); err == nil {
		t.Fatal("verify without -dir should fail")
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
