package checkpoint

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io/fs"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"numarck/internal/bitpack"
	"numarck/internal/core"
	"numarck/internal/faultfs"
)

// ---- the file-serial reference ---------------------------------------

// refDecodeChunk is the per-point decode of one chunk the way it was
// first written: unpack everything, then one branch per point. It is the
// definition the blocked kernel and the two-phase restart are tested
// against, and shares no code with them below bitpack.Get.
func refDecodeChunk(t testing.TB, d *DeltaReader, i int, state []float64) {
	t.Helper()
	ent := d.dir[i]
	start, np := d.ChunkSpan(i)
	section := d.mem[ent.off : ent.off+ent.length]
	bits := d.meta.Opt.IndexBits
	flags := section[bitpack.PackedLen(np, bits):]
	exact := flags[(np+7)/8:]
	used := 0
	for j := 0; j < np; j++ {
		idx, err := bitpack.Get(section, j, bits)
		if err != nil {
			t.Fatal(err)
		}
		switch {
		case flags[j>>3]&(1<<uint(j&7)) != 0:
			state[start+j] = math.Float64frombits(binary.LittleEndian.Uint64(exact[8*used:]))
			used++
		case idx != 0:
			state[start+j] *= 1 + d.meta.BinRatios[idx-1]
		}
	}
}

// refRestart replays a chain one file after another, one chunk after
// another, skipping (in salvage mode) or failing on (fail-closed) the
// chunks whose CRC does not match: the restart of ROADMAP item 3 before
// it was blocked, kept here as the specification.
func refRestart(t testing.TB, dir string, chain []ChainEntry, iteration int, salvage bool) (state []float64, lost []Range, failed bool) {
	t.Helper()
	for _, ce := range chain {
		if ce.Iteration > iteration {
			break
		}
		raw, err := os.ReadFile(filepath.Join(dir, ce.Name))
		if err != nil {
			t.Fatal(err)
		}
		if ce.Kind == "full" {
			if _, _, state, err = UnmarshalFull(raw); err != nil {
				t.Fatal(err)
			}
			lost = nil
			continue
		}
		d, err := openDelta(nil, raw, int64(len(raw)))
		if err != nil {
			return nil, nil, true
		}
		for i, ent := range d.dir {
			if d.meta.Version == 2 && crc32.ChecksumIEEE(raw[ent.off:ent.off+ent.length]) != ent.crc {
				if !salvage {
					return nil, nil, true
				}
				start, np := d.ChunkSpan(i)
				lost = append(lost, Range{Lo: start, Hi: start + np})
				continue
			}
			refDecodeChunk(t, d, i, state)
		}
	}
	return state, mergeRanges(lost), false
}

// ---- fixtures --------------------------------------------------------

// mixedChain writes full@0 and `depth` closed-loop deltas of n points
// whose formats cycle through v1 and v2 files of differing chunk sizes —
// including sizes that are not multiples of 8, so that chunks start
// inside flag bytes and apply blocks straddle them. The values include
// zeros of both signs that become non-zero, denormals and sign flips, so
// every delta carries exact values and the state carries bit patterns
// only an exact replay preserves. (The encoder refuses NaN and Inf; the
// kernel's handling of those is core's TestReconstructMatchesReference.)
func mixedChain(t testing.TB, dir string, n, depth int) {
	rng := rand.New(rand.NewSource(int64(1000*n + depth)))
	cur := make([]float64, n)
	for j := range cur {
		cur[j] = 50 + rng.Float64()*100
		switch j % 89 {
		case 0:
			cur[j] = 0
		case 1:
			cur[j] = math.Copysign(0, -1)
		case 2:
			cur[j] = math.SmallestNonzeroFloat64
		}
	}
	opt := core.Options{ErrorBound: 0.001, IndexBits: 8, Strategy: core.EqualWidth, Workers: 1}
	chunkings := []int{0, 512, 0, 1000, 7, 4096, 0, 333} // 0: a v1 file
	closedLoopChain(t, dir, opt, cur, depth, func(i int) int { return chunkings[i%len(chunkings)] }, func(i int, cur []float64) {
		for j := range cur {
			switch {
			case j%97 == i%97:
				cur[j] = -cur[j] + 1
			case rng.Intn(3) != 0:
				cur[j] *= 1 + rng.NormFloat64()*0.003
			}
		}
	})
}

// flipByte damages one byte of a file in place, keeping its length.
func flipByte(t testing.TB, path string, off int64) {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[off] ^= 0x40
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
}

// ---- (a) the decode funnel against the per-point reference -----------

// handEncoding builds an encoding directly, with no encoder in the way:
// any index width, a table that may or may not be full, any flag
// pattern, and exact values of every awkward kind.
func handEncoding(rng *rand.Rand, n, bits int, pattern string) *core.Encoded {
	opt, err := core.Options{ErrorBound: 0.001, IndexBits: bits, Strategy: core.EqualWidth}.Validate()
	if err != nil {
		panic(err)
	}
	nbins := min(opt.NumBins(), 1+rng.Intn(300))
	enc := &core.Encoded{Opt: opt, N: n, Indices: make([]uint32, n), Incompressible: bitpack.NewBitmap(n)}
	for g := 0; g < nbins; g++ {
		enc.BinRatios = append(enc.BinRatios, rng.NormFloat64()*0.01)
	}
	for j := 0; j < n; j++ {
		enc.Indices[j] = uint32(rng.Intn(nbins + 1))
		var flagged bool
		switch pattern {
		case "random":
			flagged = rng.Intn(8) == 0
		case "ones":
			flagged = true
		case "alternating":
			flagged = j%2 == 0
		}
		if flagged {
			enc.Incompressible.Set(j, true)
			enc.Exact = append(enc.Exact, awkwardValues[rng.Intn(len(awkwardValues))])
		}
	}
	return enc
}

// awkwardValues are bit patterns a replay must carry through unharmed.
var awkwardValues = []float64{
	math.NaN(), math.Float64frombits(0x7FF0000000000001), math.Inf(1), math.Inf(-1),
	math.Copysign(0, -1), 0, math.SmallestNonzeroFloat64, -math.MaxFloat64,
}

// TestDecodeKernelMatchesReference drives the one funnel every read goes
// through — validate, unpack a block, reconstruct it — against the
// per-point reference for every index width 1…24, every boundary size,
// every flag pattern, both formats and chunk sizes that put chunk starts
// inside flag bytes; out of place, in place, and over arbitrary
// sub-ranges of a chunk the way the blocked replay cuts them. Outputs
// are compared by bit pattern.
func TestDecodeKernelMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	for bits := 1; bits <= 24; bits++ {
		for _, n := range []int{0, 1, 7, 8, 9, 63, 65, 4097} {
			for _, pattern := range []string{"random", "zero", "ones", "alternating"} {
				enc := handEncoding(rng, n, bits, pattern)
				prev := make([]float64, n)
				for j := range prev {
					prev[j] = rng.NormFloat64() * 100
					if rng.Intn(4) == 0 {
						prev[j] = awkwardValues[rng.Intn(len(awkwardValues))]
					}
				}
				for _, cp := range []int{0, 7, 64, 1500} { // 0: a v1 file
					name := fmt.Sprintf("B=%d n=%d %s chunk=%d", bits, n, pattern, cp)
					var raw []byte
					var err error
					if cp == 0 {
						raw, err = MarshalDelta("v", 1, enc)
					} else {
						raw, err = MarshalDeltaV2("v", 1, enc, cp)
					}
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					d, err := openDelta(nil, raw, int64(len(raw)))
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					want := append([]float64(nil), prev...)
					for i := range d.dir {
						refDecodeChunk(t, d, i, want)
					}
					got, err := d.Decode(prev, 2)
					if err != nil || !bitsEqual(got, want) {
						t.Fatalf("%s: Decode differs from the reference (%v)", name, err)
					}
					state := append([]float64(nil), prev...)
					if lost, err := replayDelta(raw, "v", 1, state, &ChunkDecoder{}, RecoverOptions{}); err != nil || lost != nil || !bitsEqual(state, want) {
						t.Fatalf("%s: in-place replay differs from the reference (%v)", name, err)
					}
					// Sub-ranges with every alignment of both ends, each
					// through a fresh cursor and through one carried along.
					dec, carried := d.NewChunkDecoder(), &exactCursor{}
					state = append(state[:0], prev...)
					for i, ent := range d.dir {
						start, np := d.ChunkSpan(i)
						section := raw[ent.off : ent.off+ent.length]
						for lo := 0; lo < np; {
							hi := min(np, lo+1+rng.Intn(40))
							piece := append([]float64(nil), prev[start+lo:start+hi]...)
							if err := dec.apply(d, i, section, lo, hi, &exactCursor{}, piece, piece); err != nil {
								t.Fatalf("%s: apply [%d,%d) of chunk %d: %v", name, lo, hi, i, err)
							}
							if !bitsEqual(piece, want[start+lo:start+hi]) {
								t.Fatalf("%s: apply [%d,%d) of chunk %d differs from the reference", name, lo, hi, i)
							}
							if err := dec.apply(d, i, section, lo, hi, carried, state[start+lo:start+hi], state[start+lo:start+hi]); err != nil {
								t.Fatal(err)
							}
							lo = hi
						}
					}
					if !bitsEqual(state, want) {
						t.Fatalf("%s: piecewise apply with a carried cursor differs from the reference", name)
					}
				}
			}
		}
	}
}

// ---- (c) blocked, parallel restart ≡ file-serial replay --------------

// TestReplayMatchesSerialReference is the equivalence the two-phase
// restart rests on: over chains mixing v1 and v2 files of differing
// chunk sizes, with a point count that is not a multiple of 8, at depth
// 1, 16 and 64, with the window budget forced down to a file or two and
// the fan-out forced on (so -cpu 2,4 runs the parallel apply on states
// production would keep serial), fail-closed and in salvage mode with a
// corrupted chunk in the middle of the chain — the restart equals the
// file-serial reference replay bit for bit, loses exactly the ranges it
// loses, and fails exactly when it fails.
func TestReplayMatchesSerialReference(t *testing.T) {
	const n = 10003
	for _, depth := range []int{1, 16, 64} {
		dir := filepath.Join(t.TempDir(), fmt.Sprintf("ck%d", depth))
		mixedChain(t, dir, n, depth)
		rv, err := OpenReadOnly(dir)
		if err != nil {
			t.Fatal(err)
		}
		chain, err := rv.Chain("v")
		if err != nil {
			t.Fatal(err)
		}
		// Damage the second chunk of a v2 file in the middle of the chain
		// (the first v2 file when the chain is only one delta long does
		// not exist: depth 1 runs clean only).
		damaged := ""
		for _, ce := range chain[len(chain)/2:] {
			raw, err := os.ReadFile(filepath.Join(dir, ce.Name))
			if err != nil {
				t.Fatal(err)
			}
			if d, err := openDelta(nil, raw, int64(len(raw))); ce.Kind == "delta" && err == nil && d.meta.Version == 2 && len(d.dir) > 2 {
				damaged = filepath.Join(dir, ce.Name)
				defer flipByte(t, damaged, d.dir[1].off+3) // undo
				break
			}
		}
		for _, corrupt := range []bool{false, true} {
			if corrupt {
				if damaged == "" {
					continue
				}
				raw, _ := os.ReadFile(damaged)
				d, _ := openDelta(nil, raw, int64(len(raw)))
				flipByte(t, damaged, d.dir[1].off+3)
			}
			for _, salvage := range []bool{false, true} {
				want, wantLost, wantFail := refRestart(t, dir, chain, depth, salvage)
				if corrupt && (wantFail == salvage || (salvage && len(wantLost) == 0)) {
					t.Fatalf("depth %d: the reference did not see the corruption (failed=%v lost=%v)", depth, wantFail, wantLost)
				}
				limits := []replayLimits{
					{replayWindowBytes, replayFanOutWork}, // production
					{1, 0},                                // one file per window, always fanned out
					{3 * chain[1].Len, 0},                 // a few files per window
					{replayWindowBytes, math.MaxInt},      // one window, never fanned out
				}
				for _, lim := range limits {
					name := fmt.Sprintf("depth %d corrupt=%v salvage=%v window=%d fanout=%d", depth, corrupt, salvage, lim.windowBytes, lim.fanOutWork)
					got, partial, err := restartWithin(lim, faultfs.OS(), dir, chain, "v", depth, RecoverOptions{Salvage: salvage})
					if wantFail {
						var ce *ChunkError
						if !errors.As(err, &ce) || ce.Chunk != 1 || !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), damaged) {
							t.Fatalf("%s: err = %v, want chunk 1 of %s as a *ChunkError", name, err, damaged)
						}
						continue
					}
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					if !bitsEqual(got, want) {
						t.Fatalf("%s: restart differs from the file-serial reference", name)
					}
					var lost []Range
					if partial != nil {
						lost = partial.Lost
					}
					if fmt.Sprint(lost) != fmt.Sprint(wantLost) {
						t.Fatalf("%s: lost %v, reference lost %v", name, lost, wantLost)
					}
				}
			}
		}
	}
}

// ---- (b) crafted sections fail before the first write ----------------

// TestCraftedSectionsFailBeforeWrite builds, for both formats, sections
// that are wrong in each way the validation pass exists to catch — with
// every CRC recomputed, so nothing but that pass stands between them and
// the state: the last index one beyond the bin table, a flag count that
// disagrees with the stored exact count, a flag set in the pad bits, an
// exact tail cut short. Each must come back as a *ChunkError wrapping
// ErrCorrupt (an open error for the v1 file, whose one CRC and one
// length cover everything) and leave the state it was applied to
// untouched.
func TestCraftedSectionsFailBeforeWrite(t *testing.T) {
	const n, cp, nbins = 1003, 500, 10 // three chunks, the last of 3 points: pad bits in every bitmap
	// A hand-built encoding, so the table is known not to be full: index
	// nbins+1 fits the 8-bit field and is out of range.
	rng := rand.New(rand.NewSource(43))
	opt, err := core.Options{ErrorBound: 0.001, IndexBits: 8, Strategy: core.EqualWidth}.Validate()
	if err != nil {
		t.Fatal(err)
	}
	enc := &core.Encoded{Opt: opt, N: n, Indices: make([]uint32, n), Incompressible: bitpack.NewBitmap(n)}
	for g := 0; g < nbins; g++ {
		enc.BinRatios = append(enc.BinRatios, (float64(g)-4.5)*0.002)
	}
	prev := make([]float64, n)
	for j := range prev {
		prev[j] = 50 + rng.Float64()*100
		enc.Indices[j] = uint32(rng.Intn(nbins + 1))
	}
	for _, j := range []int{7, 8, 499, 1002} { // exact values in the first and last chunk
		enc.Indices[j] = 0
		enc.Incompressible.Set(j, true)
		enc.Exact = append(enc.Exact, -prev[j])
	}
	series := [][]float64{prev}
	good, err := MarshalDeltaV2("v", 1, enc, cp)
	if err != nil {
		t.Fatal(err)
	}
	d0, err := openDelta(nil, good, int64(len(good)))
	if err != nil {
		t.Fatal(err)
	}
	last := len(d0.dir) - 1
	bins := uint32(nbins)

	// reseal rewrites chunk i's directory CRC (and the directory's own)
	// after its section was edited in place.
	reseal := func(raw []byte, d *DeltaReader, i int) {
		ent := d.dir[i]
		dirOff := int(binary.LittleEndian.Uint64(raw[len(raw)-footerSize:]))
		binary.LittleEndian.PutUint32(raw[dirOff+i*dirEntrySize+12:], crc32.ChecksumIEEE(raw[ent.off:ent.off+ent.length]))
		dirRaw := raw[dirOff : dirOff+len(d.dir)*dirEntrySize]
		binary.LittleEndian.PutUint32(raw[len(raw)-footerSize+8:], crc32.ChecksumIEEE(dirRaw))
	}
	crafts := []struct {
		name  string
		chunk int
		edit  func(section []byte, np int)
	}{
		{"index beyond the table in the last field", last, func(s []byte, np int) { s[np-1] = byte(bins + 1) }},
		{"one flag more than exact values", 0, func(s []byte, np int) { s[np+1] |= 1 << 3 }},
		{"one flag fewer than exact values", 0, func(s []byte, np int) { s[np] &^= 1 << 7 }},
		{"a set pad bit", last, func(s []byte, np int) { s[np+(np-1)/8] |= 1 << 7 }},
		{"a pad bit standing in for a real flag", last, func(s []byte, np int) {
			s[np+(np-1)/8] = s[np+(np-1)/8]&^(1<<uint((np-1)%8)) | 1<<7
		}},
	}
	for _, c := range crafts {
		raw := append([]byte(nil), good...)
		ent := d0.dir[c.chunk]
		_, np := d0.ChunkSpan(c.chunk)
		c.edit(raw[ent.off:ent.off+ent.length], np) // B = 8: field j is byte j, the bitmap starts at byte np
		reseal(raw, d0, c.chunk)
		for _, salvage := range []bool{false, true} {
			state := append([]float64(nil), series[0]...)
			lost, err := replayDelta(raw, "v", 1, state, &ChunkDecoder{}, RecoverOptions{Salvage: salvage})
			if !salvage {
				var ce *ChunkError
				if !errors.As(err, &ce) || ce.Chunk != c.chunk || !errors.Is(err, ErrCorrupt) {
					t.Errorf("%s: fail-closed replay = %v, want a *ChunkError for chunk %d", c.name, err, c.chunk)
				}
				if !bitsEqual(state, series[0]) {
					t.Errorf("%s: a failed replay wrote to the state", c.name)
				}
				continue
			}
			start, _ := d0.ChunkSpan(c.chunk)
			if err != nil || lost == nil || len(lost.Lost) != 1 || lost.Lost[0] != (Range{Lo: start, Hi: start + np}) {
				t.Errorf("%s: salvage replay lost %v (%v), want exactly chunk %d", c.name, lost, err, c.chunk)
			}
			if !bitsEqual(state[start:start+np], series[0][start:start+np]) {
				t.Errorf("%s: the quarantined chunk's points moved", c.name)
			}
			// The out-of-place decoder agrees, and leaves its output alone too.
			d, err := openDelta(nil, raw, int64(len(raw)))
			if err != nil {
				t.Fatal(err)
			}
			dst := make([]float64, np)
			err = d.NewChunkDecoder().DecodeChunkInto(c.chunk, series[0][start:start+np], dst)
			var ce *ChunkError
			if !errors.As(err, &ce) || !bitsEqual(dst, make([]float64, np)) {
				t.Errorf("%s: DecodeChunkInto = %v with dst written=%v, want a *ChunkError and dst untouched", c.name, err, !bitsEqual(dst, make([]float64, np)))
			}
		}
	}
	// A truncated exact tail cannot be given a consistent directory — the
	// section length is a function of the counts — so it is an open error
	// in v2, and in v1, where the payload CRC is recomputed to match, the
	// length check of the one section catches it.
	short := append([]byte(nil), good[:d0.dir[0].off+d0.dir[0].length-8]...)
	short = append(short, good[d0.dir[0].off+d0.dir[0].length:]...)
	if _, err := openDelta(nil, short, int64(len(short))); !errors.Is(err, ErrCorrupt) {
		t.Errorf("v2 file with a truncated exact tail opened: %v", err)
	}
	v1, err := MarshalDelta("v", 1, enc)
	if err != nil {
		t.Fatal(err)
	}
	hdr, payload, err := readFile(v1, magicDelta)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		edit func(payload []byte) []byte
	}{
		{"v1 truncated exact tail", func(p []byte) []byte { return p[:len(p)-8] }},
		{"v1 index beyond the table", func(p []byte) []byte { p[8*nbins+n-1] = byte(bins + 1); return p }},
		{"v1 set pad bit", func(p []byte) []byte { p[8*nbins+n+(n-1)/8] |= 1 << 7; return p }},
	} {
		var buf strings.Builder
		if err := writeFile(&buf, magicDelta, hdr, c.edit(append([]byte(nil), payload...))); err != nil {
			t.Fatal(err)
		}
		raw := []byte(buf.String())
		state := append([]float64(nil), series[0]...)
		if _, err := replayDelta(raw, "v", 1, state, &ChunkDecoder{}, RecoverOptions{}); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: replay = %v, want ErrCorrupt", c.name, err)
		}
		if !bitsEqual(state, series[0]) {
			t.Errorf("%s: a failed replay wrote to the state", c.name)
		}
	}
}

// ---- (d) every filesystem call on the calling goroutine --------------

// recordingFS records every call made through it with no lock at all:
// the benchmark's counting filesystem and the fault injectors are
// single-goroutine by contract, and this is the test that restart keeps
// that contract. Under -race any call from a worker goroutine is a
// reported data race on calls; without it, the recorded goroutine IDs
// still tell.
type recordingFS struct {
	faultfs.FS
	calls []string
	gids  map[uint64]bool
}

func (r *recordingFS) note(op, name string) {
	r.calls = append(r.calls, op+" "+filepath.Base(name))
	r.gids[goroutineID()] = true
}

func (r *recordingFS) Open(name string) (faultfs.File, error) {
	r.note("open", name)
	f, err := r.FS.Open(name)
	if err != nil {
		return nil, err
	}
	return &recordingFile{File: f, r: r, name: name}, nil
}

func (r *recordingFS) Stat(name string) (fs.FileInfo, error) {
	r.note("stat", name)
	return r.FS.Stat(name)
}

type recordingFile struct {
	faultfs.File
	r    *recordingFS
	name string
}

func (f *recordingFile) Read(p []byte) (int, error) {
	f.r.note("read", f.name)
	return f.File.Read(p)
}

func (f *recordingFile) ReadAt(p []byte, off int64) (int, error) {
	f.r.note("readat", f.name)
	return f.File.ReadAt(p, off)
}

func (f *recordingFile) Close() error {
	f.r.note("close", f.name)
	return f.File.Close()
}

// goroutineID parses the current goroutine's number out of its stack
// header ("goroutine 18 [running]:").
func goroutineID() uint64 {
	var buf [64]byte
	var id uint64
	fmt.Sscanf(string(buf[:runtime.Stack(buf[:], false)]), "goroutine %d ", &id)
	return id
}

// TestRestartFilesystemCallsOnCallerGoroutine runs a fanned-out,
// multi-window restart over the recording filesystem and checks that
// every call it saw came from the goroutine that called Restart, and
// that the chain's files were opened, read to EOF and closed one at a
// time in chain order — the full checkpoint, then each delta.
func TestRestartFilesystemCallsOnCallerGoroutine(t *testing.T) {
	const n, depth = 10003, 16
	dir := filepath.Join(t.TempDir(), "ck")
	mixedChain(t, dir, n, depth)
	rv, err := OpenReadOnly(dir)
	if err != nil {
		t.Fatal(err)
	}
	chain, err := rv.Chain("v")
	if err != nil {
		t.Fatal(err)
	}
	want, _, _ := refRestart(t, dir, chain, depth, false)
	for _, lim := range []replayLimits{{replayWindowBytes, 0}, {2 * chain[1].Len, 0}} {
		rfs := &recordingFS{FS: faultfs.OS(), gids: map[uint64]bool{}}
		got, _, err := restartWithin(lim, rfs, dir, chain, "v", depth, RecoverOptions{})
		if err != nil || !bitsEqual(got, want) {
			t.Fatalf("restart over the recording filesystem: %v", err)
		}
		if len(rfs.gids) != 1 || !rfs.gids[goroutineID()] {
			t.Fatalf("filesystem calls came from goroutines %v, want only the caller's (%d)", rfs.gids, goroutineID())
		}
		var wantCalls []string
		for _, ce := range chain {
			wantCalls = append(wantCalls, "open "+ce.Name, "read "+ce.Name, "read "+ce.Name, "close "+ce.Name)
		}
		if fmt.Sprint(rfs.calls) != fmt.Sprint(wantCalls) {
			t.Fatalf("filesystem calls:\n got %v\nwant %v", rfs.calls, wantCalls)
		}
	}
}

// ---- sized reads -----------------------------------------------------

// TestRestartRejectsResizedFile pins the sized read: restart sizes each
// file's buffer from its journal record, and a committed file that has
// since grown or shrunk — with content that would otherwise parse, or
// not — is ErrCorrupt, never a silently truncated or short read.
func TestRestartRejectsResizedFile(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "ck")
	mixedChain(t, dir, 2000, 4)
	rv, err := OpenReadOnly(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rv.Restart("v", 4); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{fileName("v", "full", 0), fileName("v", "delta", 3)} {
		path := filepath.Join(dir, name)
		orig, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range []struct {
			what      string
			content   []byte
			truncated bool
		}{
			{"one byte longer", append(append([]byte(nil), orig...), 0), false},
			{"twice as long", append(append([]byte(nil), orig...), orig...), false},
			{"one byte shorter", orig[:len(orig)-1], true},
			{"empty", nil, true},
		} {
			if err := os.WriteFile(path, c.content, 0o644); err != nil {
				t.Fatal(err)
			}
			_, err := rv.Restart("v", 4)
			if !errors.Is(err, ErrCorrupt) || errors.Is(err, ErrTruncated) != c.truncated || !strings.Contains(err.Error(), "journal recorded") {
				t.Errorf("%s %s: restart = %v, want ErrCorrupt (truncated=%v) naming the journaled length", name, c.what, err, c.truncated)
			}
		}
		if err := os.WriteFile(path, orig, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := rv.Restart("v", 4); err != nil {
		t.Fatalf("restart after the files were restored: %v", err)
	}
}

// ---- (e) allocations per restart: a + b·L, no N term -----------------

// TestRestartAllocs states a restart's allocation count as a + b·L: it
// is measured at two depths and two sizes a factor of 32 apart, and the
// per-delta slope b (a buffer, a reader with its header, tables and
// directory, the task that prepares it) and the intercept a must be the
// same small constants at both sizes — nothing but the state itself and
// the files' bytes grows with N. "The same" is to within the couple of
// allocations by which one run differs from the next: encoding/json
// refills a sync.Pool after each collection, and a larger state collects
// more often.
func TestRestartAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool, and so encoding/json's allocations, random")
	}
	const perDeltaLimit, noise = 24, 3
	measure := func(n, depth int) float64 {
		dir := filepath.Join(t.TempDir(), fmt.Sprintf("ck%d_%d", n, depth))
		benchChain(t, dir, n, depth, 0)
		rv, err := OpenReadOnly(dir)
		if err != nil {
			t.Fatal(err)
		}
		chain, err := rv.Chain("v")
		if err != nil {
			t.Fatal(err)
		}
		// One goroutine: starting workers allocates the same at every
		// size, but whether they start depends on N × L.
		lim := replayLimits{replayWindowBytes, math.MaxInt}
		restart := func() {
			if _, _, err := restartWithin(lim, rv.fs, dir, chain, "v", depth, RecoverOptions{}); err != nil {
				t.Fatal(err)
			}
		}
		allocs := testing.AllocsPerRun(10, restart)
		// Bytes: the state, each file's bytes once, per file a few KiB of
		// reader, and fpc's two predictor tables (1 MiB, whatever N is) —
		// not one more array of N anything.
		budget := uint64(8*n + 1<<20 + 128<<10)
		for _, ce := range chain {
			budget += uint64(ce.Len) + 4<<10
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		restart()
		runtime.ReadMemStats(&after)
		if got := after.TotalAlloc - before.TotalAlloc; got > budget {
			t.Errorf("n=%d depth=%d: a restart allocates %d bytes, want <= %d (state + files + 4 KiB per file + fpc tables)", n, depth, got, budget)
		}
		return allocs
	}
	const shallow, deep = 4, 20
	var a, b [2]float64
	for i, n := range []int{1 << 10, 1 << 15} {
		s, d := measure(n, shallow), measure(n, deep)
		b[i] = (d - s) / (deep - shallow)
		a[i] = s - shallow*b[i]
	}
	t.Logf("allocations per restart = %.0f + %.1f·L at 1 Ki points, %.0f + %.1f·L at 32 Ki", a[0], b[0], a[1], b[1])
	if math.Abs(b[0]-b[1]) > noise/float64(deep-shallow) || b[0] > perDeltaLimit {
		t.Errorf("allocations per replayed delta: %v at 1 Ki points, %v at 32 Ki; want equal and <= %d", b[0], b[1], perDeltaLimit)
	}
	if math.Abs(a[0]-a[1]) > noise {
		t.Errorf("allocations per restart beyond its deltas: %v at 1 Ki points, %v at 32 Ki; want equal", a[0], a[1])
	}
}

// ---- the chain view --------------------------------------------------

// TestChainViewSharedAndFresh pins the per-variable view: a read view
// derives it once per snapshot (the same backing array serves two
// restarts), a writer derives it again only after its chain changed, and
// the copies List and Chain hand out are the caller's to scribble on.
func TestChainViewSharedAndFresh(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "ck")
	series := seedStore(t, dir, 1)
	rv, err := OpenReadOnly(dir)
	if err != nil {
		t.Fatal(err)
	}
	s1, err := rv.snapshot()
	if err != nil {
		t.Fatal(err)
	}
	chain, err := rv.Chain("dens")
	if err != nil || len(chain) != 3 {
		t.Fatalf("Chain = %v, %v", chain, err)
	}
	chain[0].Name, chain[1].Len = "scribbled", -1
	list, _ := rv.List("dens")
	list[0].Iteration = 99
	if s2, _ := rv.snapshot(); s2 != s1 || &s2.chain.files["dens"][0] != &s1.chain.files["dens"][0] {
		t.Fatal("an unchanged store gave a second snapshot or a second view")
	}
	if got, err := rv.LatestRestorable("dens"); err != nil || got != 2 {
		t.Fatalf("LatestRestorable after scribbling on the copies = %d, %v", got, err)
	}
	if _, err := rv.Restart("dens", 2); err != nil {
		t.Fatalf("Restart after scribbling on the copies: %v", err)
	}

	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	v1 := st.chainView()
	if st.chainView() != v1 {
		t.Fatal("the writer derived its view twice for one chain state")
	}
	prev, err := st.Restart("dens", 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.WriteDelta("dens", 3, prev, series[3]); err != nil {
		t.Fatal(err)
	}
	if v2 := st.chainView(); v2 == v1 || len(v2.files["dens"]) != 4 {
		t.Fatalf("after a commit the writer's view has %d files (same view: %v)", len(v2.files["dens"]), v2 == v1)
	}
	if got, err := rv.LatestRestorable("dens"); err != nil || got != 3 {
		t.Fatalf("the read view after the writer's commit: LatestRestorable = %d, %v", got, err)
	}
	if err := st.WriteFull("dens", 4, series[4]); err != nil {
		t.Fatal(err)
	}
	if n, err := st.GC(4); err != nil || n != 4 || len(st.chainView().files["dens"]) != 1 {
		t.Fatalf("GC(4) removed %d (%v), view has %d files", n, err, len(st.chainView().files["dens"]))
	}
}
