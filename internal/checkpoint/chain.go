package checkpoint

import (
	"cmp"
	"errors"
	"fmt"
	"io/fs"
	"math"
	"math/bits"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"sync"

	"numarck/internal/core"
	"numarck/internal/faultfs"
	"numarck/internal/panics"
)

// This file is the layer both writer stores and read views are built
// on: variable-name validation, chain bookkeeping derived from the
// in-memory journal state (list, variables, stats, latest-restorable),
// and the restart walk that loads a full checkpoint and replays deltas.
// Everything here is a pure function of (filesystem, directory, chain
// map) — no handle state — so the single writer and any number of
// lock-free readers share one implementation and cannot drift.

// MaxVariableLen is the longest variable name the store accepts; it is
// the fixed field width of a chain-index record.
const MaxVariableLen = 64

// ErrBadVariable matches, via errors.Is, rejected caller input: a
// variable name, an iteration number, or raw checkpoint bytes that do
// not parse or do not name the variable@iteration they are committed
// under. Names are validated at every write: a name with a path
// separator or a leading dot could otherwise escape the store directory
// or collide with store metadata files.
var ErrBadVariable = errors.New("checkpoint: rejected input")

// ValidateVariable checks a variable name against the store's naming
// rules: 1 to MaxVariableLen bytes, first byte a letter, digit, or
// underscore, remaining bytes letters, digits, underscore, dot, or
// dash. The rules make every name a single safe path component and
// representable in a fixed-width chain-index record.
func ValidateVariable(variable string) error {
	if len(variable) == 0 {
		return fmt.Errorf("%w: empty", ErrBadVariable)
	}
	if len(variable) > MaxVariableLen {
		return fmt.Errorf("%w: %q is %d bytes, limit %d", ErrBadVariable, variable, len(variable), MaxVariableLen)
	}
	for i := 0; i < len(variable); i++ {
		c := variable[i]
		ok := c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9')
		if i > 0 {
			ok = ok || c == '.' || c == '-'
		}
		if !ok {
			return fmt.Errorf("%w: %q has byte %q at position %d", ErrBadVariable, variable, c, i)
		}
	}
	return nil
}

// validateIdentity checks a (variable, iteration) pair before a write
// or targeted read touches the filesystem with a name derived from it.
func validateIdentity(variable string, iteration int) error {
	if err := ValidateVariable(variable); err != nil {
		return err
	}
	if iteration < 0 || iteration > 1<<31-1 {
		return fmt.Errorf("%w: iteration %d out of range", ErrBadVariable, iteration)
	}
	return nil
}

// ChainEntry is one committed checkpoint file as the store's chain
// records it: the parsed identity plus the file name and the journaled
// byte length and CRC. It is what chain-level tooling (the service
// daemon's chain endpoint, read-only verification) needs to account
// for a file without stat'ing or reading it, and what restart sizes its
// reads from.
type ChainEntry struct {
	// Entry is the parsed identity (variable, kind, iteration).
	Entry
	// Name is the file's name inside the store directory.
	Name string
	// Len is the journaled byte length of the committed file.
	Len int64
	// CRC is the journaled CRC-32 (IEEE) of the whole file.
	CRC uint32
}

// chainView is a chain in the form every read wants it: per variable,
// the committed files sorted by iteration. It is derived once per chain
// state — a read view's immutable snapshot, the writer's chain between
// two commits — and shared, never mutated, by every List, Chain,
// LatestRestorable, Restart, Stats and Verify on that state, instead of
// each of them parsing and sorting every file name in the store again.
type chainView struct {
	vars  []string // sorted
	files map[string][]ChainEntry
}

// viewOf groups and sorts a chain's entries, given in any order. A
// delta and a full checkpoint of one iteration sort delta first: the
// full checkpoint then restarts the chain walk instead of breaking it.
//
// A cold read-only open derives the view of its whole chain before the
// first read, so this is linear but for one sort of integer keys per
// variable (viewKey), skipped when a variable's entries come in one or
// two ascending runs. The entries are moved once, into one array the
// variables' slices share.
func viewOf(all []ChainEntry) *chainView {
	// Number the variables in order of first appearance. A chain index
	// lists each variable's files mostly together, so the map is
	// consulted only where the variable changes.
	group := make([]int, len(all))
	ids := map[string]int{}
	var vars []string
	var counts []int
	g := -1
	for i := range all {
		if name := all[i].Variable; g < 0 || vars[g] != name {
			var ok bool
			if g, ok = ids[name]; !ok {
				g = len(vars)
				ids[name] = g
				vars = append(vars, name)
				counts = append(counts, 0)
			}
		}
		group[i] = g
		counts[g]++
	}
	// Variable g's keys, then entries, go to [start[g], start[g+1]).
	start := make([]int, len(vars)+1)
	for g, c := range counts {
		start[g+1] = start[g] + c
	}
	keys := make([]uint64, len(all))
	fill := slices.Clone(start)
	wide := false
	for i := range all {
		key, ok := viewKey(&all[i], i)
		wide = wide || !ok
		keys[fill[group[i]]] = key
		fill[group[i]]++
	}

	v := &chainView{vars: vars, files: make(map[string][]ChainEntry, len(vars))}
	backing := make([]ChainEntry, len(all))
	for g, name := range vars {
		// A name-ordered index lists a variable's deltas, then its fulls:
		// two ascending runs, merged as they are gathered. Anything else
		// is sorted first.
		lo, hi := start[g], start[g+1]
		k := keys[lo:hi]
		mid := 1
		for mid < len(k) && k[mid-1] < k[mid] {
			mid++
		}
		if !slices.IsSorted(k[mid:]) {
			slices.Sort(k)
		}
		a, b := k[:mid], k[mid:]
		files := backing[lo:hi:hi]
		for j := range files {
			if len(b) == 0 || len(a) > 0 && a[0] < b[0] {
				files[j], a = all[a[0]&viewKeyPos], a[1:]
			} else {
				files[j], b = all[b[0]&viewKeyPos], b[1:]
			}
		}
		if wide {
			slices.SortFunc(files, func(a, b ChainEntry) int {
				return cmp.Or(cmp.Compare(a.Iteration, b.Iteration), cmp.Compare(a.Kind, b.Kind))
			})
		}
		v.files[name] = files
	}
	sort.Strings(v.vars)
	return v
}

// viewKey packs the order of the entry at position i of a view's input
// into one integer: its iteration in the top 31 bits, then 0 for a
// delta and 1 for a full, then i in the low 32 bits. ok is false for an
// iteration outside [0, 2^31), which no store writes but a hostile
// journal can name; viewOf then sorts by comparison instead.
func viewKey(ce *ChainEntry, i int) (key uint64, ok bool) {
	key = (uint64(ce.Iteration)&(1<<31-1))<<33 | uint64(i)&viewKeyPos
	if ce.Kind == "full" {
		key |= 1 << 32
	}
	return key, ce.Iteration >= 0 && ce.Iteration <= 1<<31-1
}

// viewKeyPos masks a view key's input position.
const viewKeyPos = 1<<32 - 1

// viewOfChain derives the view of a live chain map (file name → journal
// entry), the writer's and the journal replay's form.
func viewOfChain(chain map[string]journalEntry) *chainView {
	all := make([]ChainEntry, 0, len(chain))
	for name, je := range chain {
		if e, ok := parseName(name); ok {
			all = append(all, ChainEntry{Entry: e, Name: name, Len: je.Len, CRC: je.CRC})
		}
	}
	return viewOf(all)
}

// viewOfIndex derives the view a parsed CHAININDEX describes. The
// entries' names are substrings of one string, not one allocation each.
func viewOfIndex(ix *ChainIndex) *chainView {
	size := 0
	for _, e := range ix.Entries {
		size += len(e.Variable) + len(e.Kind) + len("..2147483647.nmk")
	}
	buf := make([]byte, 0, size)
	ends := make([]int, len(ix.Entries))
	for i, e := range ix.Entries {
		buf = appendFileName(buf, e.Variable, e.Kind, e.Iteration)
		ends[i] = len(buf)
	}
	names := string(buf)
	all := make([]ChainEntry, len(ix.Entries))
	start := 0
	for i, e := range ix.Entries {
		all[i] = ChainEntry{Entry: e.Entry, Name: names[start:ends[i]], Len: e.Len, CRC: e.CRC}
		start = ends[i]
	}
	return viewOf(all)
}

// list returns one variable's entries, sorted by iteration, in a slice
// the caller owns.
func (v *chainView) list(variable string) []Entry {
	files := v.files[variable]
	out := make([]Entry, len(files))
	for i, ce := range files {
		out[i] = ce.Entry
	}
	return out
}

// stats derives per-variable storage statistics, sorted by variable
// name, from the chain alone: the journal records every committed
// file's byte length, so no per-file Stat is needed.
func (v *chainView) stats() []VariableStats {
	out := make([]VariableStats, len(v.vars))
	for i, name := range v.vars {
		files := v.files[name]
		s := VariableStats{Variable: name, FirstIter: files[0].Iteration, LastIter: files[len(files)-1].Iteration}
		for _, ce := range files {
			if ce.Kind == "full" {
				s.Fulls++
				s.FullBytes += ce.Len
			} else {
				s.Deltas++
				s.DeltaBytes += ce.Len
			}
		}
		out[i] = s
	}
	return out
}

// Segment returns the files a restart of iteration k reads, given one
// variable's chain sorted as ReadView.Chain lists it: the latest full
// checkpoint at or before k, then every delta after it through k, as a
// subslice of files. It is ErrNotFound, with no files, when no full
// checkpoint qualifies, and ErrChain when the deltas break off before
// k: the files before the break come back with the error, since a
// restart still replays them before it fails (§II-D). This is the one
// statement of which files a restart reads; restart itself, the
// Writer's depth, latest-restorable, GC and the daemon's series heads
// all take it from here.
func Segment(files []ChainEntry, k int) ([]ChainEntry, error) {
	end := len(files)
	for end > 0 && files[end-1].Iteration > k {
		end--
	}
	full := end - 1
	for full >= 0 && files[full].Kind != "full" {
		full--
	}
	if full < 0 {
		if len(files) == 0 {
			return nil, fmt.Errorf("%w: no full checkpoint at or before iteration %d", ErrNotFound, k)
		}
		return nil, fmt.Errorf("%w: no full checkpoint at or before iteration %d for %s", ErrNotFound, k, files[0].Variable)
	}
	seg := files[full:end]
	first := seg[0].Iteration
	for i, e := range seg[1:] {
		if want := first + 1 + i; e.Iteration != want {
			return seg[:1+i], fmt.Errorf("%w: expected delta %d for %s, found %d", ErrChain, want, e.Variable, e.Iteration)
		}
	}
	if last := seg[len(seg)-1]; last.Iteration != k {
		return seg, fmt.Errorf("%w: chain for %s ends at %d, wanted %d", ErrChain, last.Variable, last.Iteration, k)
	}
	return seg, nil
}

// latestRestorable returns the highest iteration of a variable a
// restart reaches: the end of the segment that reaches for its last
// file. ErrNotFound means no full checkpoint exists.
func (v *chainView) latestRestorable(variable string) (int, error) {
	seg, _ := Segment(v.files[variable], math.MaxInt)
	if len(seg) == 0 {
		return 0, fmt.Errorf("%w: variable %s has no full checkpoint", ErrNotFound, variable)
	}
	return seg[len(seg)-1].Iteration, nil
}

// readCheckpointFile loads one checkpoint file's bytes, mapping absence
// — and only absence: an EIO on a committed file is not a "no such
// checkpoint" — to ErrNotFound with the checkpoint identity in the
// message. size is the file's journaled length when the caller has its
// chain entry (negative otherwise): the read is then sized from it, and
// a file that is longer or shorter than its journal record is ErrCorrupt
// — the store never hands back a file it did not commit. A sized read
// goes into buf's backing array when it is large enough (see
// faultfs.ReadFileInto).
func readCheckpointFile(fsys faultfs.FS, dir, variable, kind string, iteration int, size int64, buf []byte) ([]byte, error) {
	if err := validateIdentity(variable, iteration); err != nil {
		return nil, err
	}
	path := filepath.Join(dir, fileName(variable, kind, iteration))
	var raw []byte
	var err error
	if size < 0 {
		raw, err = faultfs.ReadFile(fsys, path)
	} else {
		raw, err = faultfs.ReadFileInto(fsys, path, size, buf)
	}
	if errors.Is(err, fs.ErrNotExist) {
		return nil, fmt.Errorf("%w: %s checkpoint %s@%d", ErrNotFound, kind, variable, iteration)
	}
	if err != nil {
		return nil, pathErr("read", path, err)
	}
	switch n := int64(len(raw)); {
	case size < 0 || n == size:
		return raw, nil
	case n < size:
		return nil, pathErr("read", path, truncatedErr("file is %d bytes, journal recorded %d", n, size))
	default:
		return nil, pathErr("read", path, fmt.Errorf("%w: file is %d bytes, journal recorded %d", ErrCorrupt, n, size))
	}
}

// checkIdentity is the one comparison of the identity a file's header
// claims against the one it was asked for under. sentinel says whose
// fault a mismatch is: ErrCorrupt for a file read back from the store,
// ErrBadVariable for bytes a caller is trying to commit.
func checkIdentity(sentinel error, v string, it int, variable string, iteration int) error {
	if v != variable || it != iteration {
		return fmt.Errorf("%w: file claims %s@%d, expected %s@%d", sentinel, v, it, variable, iteration)
	}
	return nil
}

// Restart replays in two phases over a window of the chain. The load
// phase reads the window's files — every filesystem call on the caller's
// goroutine, in chain order, one sized read per file — while workers
// decompress the full checkpoint and open and validate each delta as it
// arrives. The apply phase then cuts the state into blocks and, block by
// block, walks every validated file of the window while the block is
// hot in cache, the blocks strided across the workers: each point's
// chain is independent of every other point's, and the arithmetic per
// point, and its order, are those of replaying one file after another.
const (
	// replayBlockPoints is the apply phase's block: 32 KiB of state, a
	// multiple of applyBlockPoints, small enough to stay in a core's L1/L2
	// cache across all the files of a window.
	replayBlockPoints = 4 * applyBlockPoints
	// replayWindowBytes bounds the delta-file bytes a restart holds in
	// memory at once; a longer chain is replayed window after window. At
	// the paper's B = 8 a delta is about an eighth of its state, so this
	// is a few dozen deltas of a 16 MiB state and every delta of a chain
	// of smaller ones — what matters is that it is a bound, not its value.
	replayWindowBytes = 64 << 20
	// replayFanOutWork is the points × files below which a restart runs
	// entirely on the caller's goroutine: starting and joining workers
	// costs a restart 0.1–0.2 ms on the 2-vCPU reference host, which half
	// a million point-files — itself about a millisecond of replay — is
	// the least that earns back (PERF.md §6 has the measurements).
	replayFanOutWork = 1 << 19
)

// replayLimits carries those two sizes into a restart. They are
// constants of the program, not options — restartEntries passes exactly
// the two above — and parameters only so that a test can replay a
// ten-file chain through many windows, or fan a small one out.
type replayLimits struct {
	windowBytes int64
	fanOutWork  int
}

// replayFile is one delta of a restart window: its bytes, then what the
// load phase's workers made of them.
type replayFile struct {
	path string // for error messages; empty outside a store
	d    *DeltaReader
	// err is a failure of the whole file (unparsable, wrong identity,
	// wrong point count): fatal in either mode.
	err error
	// bad holds the chunks that failed validation, by chunk index; nil
	// when all passed.
	bad []error
}

// prepare opens raw as the delta variable@iteration of a state of n
// points and validates every chunk's section, without touching any
// state: everything that can be wrong with the file is known, and
// recorded in f, before the apply phase writes a point.
func (f *replayFile) prepare(raw []byte, variable string, iteration, n int) {
	if f.d, f.err = openDelta(nil, raw, int64(len(raw))); f.err != nil {
		return
	}
	d := f.d
	if f.err = checkIdentity(ErrCorrupt, d.meta.Variable, d.meta.Iteration, variable, iteration); f.err != nil {
		return
	}
	if d.meta.N != n {
		f.err = fmt.Errorf("%w: prev has %d points, encoded has %d", core.ErrLength, n, d.meta.N)
		return
	}
	for i, ent := range d.dir {
		if err := d.checkSection(i, d.mem[ent.off:ent.off+ent.length]); err != nil {
			if f.bad == nil {
				f.bad = make([]error, len(d.dir))
			}
			f.bad[i] = err
		}
	}
}

// apply reconstructs f's share of state[lo:hi) in place: the part of
// each healthy chunk that overlaps the block. A chunk that failed
// validation is skipped — its points keep the previous iteration's
// values, which is what quarantining it means. cur is the calling
// worker's cursor in this file, carried from its previous block.
func (f *replayFile) apply(dec *ChunkDecoder, cur *exactCursor, state []float64, lo, hi int) error {
	d := f.d
	for i := lo / d.meta.ChunkPoints; i < len(d.dir); i++ {
		start, np := d.ChunkSpan(i)
		if start >= hi {
			break
		}
		if f.bad != nil && f.bad[i] != nil {
			continue
		}
		a, b := max(lo, start), min(hi, start+np)
		ent := d.dir[i]
		if err := dec.apply(d, i, d.mem[ent.off:ent.off+ent.length], a-start, b-start, cur, state[a:b], state[a:b]); err != nil {
			return err
		}
	}
	return nil
}

// wrap adds the failing operation and f's path to err, when f has one.
func (f *replayFile) wrap(err error) error {
	if f.path == "" {
		return err
	}
	return pathErr("replay", f.path, err)
}

// replayWindow applies a window of prepared files to state in place,
// one decoder's scratch per worker. It is the whole of what restart does
// with deltas, and the order of its answers is that of replaying the
// files one after another: the files are settled in chain order first,
// so the first one that is unusable as a whole — or, fail-closed, has a
// bad chunk — fails the window before any point is written; in salvage
// mode bad chunks come back in the report and the apply phase skips
// them.
func replayWindow(state []float64, files []*replayFile, decs []*ChunkDecoder, ropt RecoverOptions) (*PartialDataError, error) {
	blocks := (len(state) + replayBlockPoints - 1) / replayBlockPoints
	workers := max(min(len(decs), blocks), 1)
	var partial *PartialDataError
	for _, f := range files {
		if f.err != nil {
			return nil, f.wrap(f.err)
		}
		lost, err := f.d.Settle(f.bad, ropt, workers)
		if err != nil {
			return nil, f.wrap(err)
		}
		if lost != nil {
			partial = mergePartial(partial, lost)
		}
	}
	curs := make([]exactCursor, workers*len(files))
	run := func(w int) error {
		cur := curs[w*len(files):]
		for lo := w * replayBlockPoints; lo < len(state); lo += workers * replayBlockPoints {
			hi := min(lo+replayBlockPoints, len(state))
			for k, f := range files {
				if err := f.apply(decs[w], &cur[k], state, lo, hi); err != nil {
					return f.wrap(err)
				}
			}
		}
		return nil
	}
	if workers == 1 {
		if err := panics.Catch(func() error { return run(0) }); err != nil {
			return nil, err
		}
	} else {
		// Blocks are disjoint ranges of state and the files are read-only
		// by now, so the WaitGroup is the only synchronization.
		errs := make([]error, workers)
		var wg sync.WaitGroup
		for w := range errs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				errs[w] = panics.Catch(func() error { return run(w) })
			}()
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				return nil, err
			}
		}
	}
	return partial, nil
}

// ReplayDelta applies one delta file, of either format, to state in
// place on the caller's goroutine through dec's scratch: a restart
// window of one. A chunk is fully validated before its first point is
// written, so in salvage mode a quarantined chunk's range simply keeps
// the previous iteration's values and comes back in the returned
// report; fail-closed mode, and any failure that is not chunk-local,
// returns the error with state untouched. It is restart's own one-file
// step, exported so that a writer holding iteration i−1's state (the
// daemon's series head) can move it to i without a second
// reconstruction path.
func ReplayDelta(raw []byte, variable string, iteration int, state []float64, dec *ChunkDecoder, ropt RecoverOptions) (*PartialDataError, error) {
	f := &replayFile{}
	f.prepare(raw, variable, iteration, len(state))
	return replayWindow(state, []*replayFile{f}, []*ChunkDecoder{dec}, ropt)
}

// restartEntries reconstructs a variable at the requested iteration
// from its sorted chain entries: load the latest full checkpoint at or
// before it, replay every delta in between on top of it (§II-D).
// Missing intermediate deltas are an ErrChain. ropt.Obs receives the
// decode and quarantine counters.
func restartEntries(fsys faultfs.FS, dir string, files []ChainEntry, variable string, iteration int, ropt RecoverOptions) ([]float64, *PartialDataError, error) {
	return restartWithin(replayLimits{replayWindowBytes, replayFanOutWork}, fsys, dir, files, variable, iteration, ropt)
}

// restartWithin is restartEntries under explicit limits. The files'
// bytes and the workers' decoders come from the package's pools and go
// back to them, unless the restart panicked: a panic may have left them
// half written, so they are dropped. Only the state is the caller's.
func restartWithin(lim replayLimits, fsys faultfs.FS, dir string, files []ChainEntry, variable string, iteration int, ropt RecoverOptions) ([]float64, *PartialDataError, error) {
	var rs restartScratch
	state, partial, err := rs.restart(lim, fsys, dir, files, variable, iteration, ropt)
	if !panics.Raised(err) {
		rs.release()
	}
	return state, partial, err
}

// restartScratch is what one restart holds of the pools: its workers'
// decoders and the buffers of the delta files it has read and not yet
// replayed.
type restartScratch struct {
	decs []*ChunkDecoder
	bufs []*[]byte
}

// release puts every decoder and buffer rs holds back in its pool.
func (rs *restartScratch) release() {
	for _, dec := range rs.decs {
		decoderPool.Put(dec)
	}
	rs.releaseFiles()
}

// releaseFiles puts the file buffers back, once nothing reads them.
func (rs *restartScratch) releaseFiles() {
	for _, b := range rs.bufs {
		putFileBuf(b)
	}
	clear(rs.bufs)
	rs.bufs = rs.bufs[:0]
}

// restart is the body of restartWithin.
func (rs *restartScratch) restart(lim replayLimits, fsys faultfs.FS, dir string, files []ChainEntry, variable string, iteration int, ropt RecoverOptions) ([]float64, *PartialDataError, error) {
	if len(files) == 0 {
		return nil, nil, fmt.Errorf("%w: variable %s", ErrNotFound, variable)
	}
	// On a gap, seg holds the files before it: they replay before
	// chainErr fails the restart, as replaying them one by one would.
	seg, chainErr := Segment(files, iteration)
	if len(seg) == 0 {
		return nil, nil, chainErr
	}
	fe, deltas := seg[0], seg[1:]
	// The full's buffer goes back as soon as it is decompressed, by the
	// load task that decompresses it; until then, only a failure here
	// hands it to rs.
	fullBuf := takeFileBuf(fe.Len)
	raw, err := readCheckpointFile(fsys, dir, variable, "full", fe.Iteration, fe.Len, *fullBuf)
	if err != nil {
		rs.bufs = append(rs.bufs, fullBuf)
		return nil, nil, err
	}
	fullPath := filepath.Join(dir, fe.Name)
	hdr, payload, err := readFile(raw, magicFull)
	if err != nil {
		rs.bufs = append(rs.bufs, fullBuf)
		return nil, nil, pathErr("parse", fullPath, err)
	}
	// The header says how many points there are before anything is
	// decompressed: enough to know whether this restart is worth more
	// than one goroutine.
	workers := 1
	if p := runtime.GOMAXPROCS(0); p > 1 && len(deltas) > 0 && hdr.N >= lim.fanOutWork/len(deltas) {
		workers = p
	}
	for range workers {
		dec, _ := decoderPool.Get().(*ChunkDecoder)
		if dec == nil {
			dec = &ChunkDecoder{}
		}
		rs.decs = append(rs.decs, dec)
	}

	// The first window's load phase also decompresses the full
	// checkpoint; every window's opens and validates its deltas while the
	// caller is still reading the ones after them.
	var state []float64
	var fullErr error
	first := func() {
		state, fullErr = decompressFull(hdr, payload)
		putFileBuf(fullBuf)
		if fullErr != nil {
			fullErr = pathErr("parse", fullPath, fullErr)
		} else {
			fullErr = checkIdentity(ErrCorrupt, hdr.Variable, hdr.Iteration, variable, fe.Iteration)
		}
	}
	var partial *PartialDataError
	for first != nil || len(deltas) > 0 {
		pool := newLoadPool(workers, len(deltas)+1)
		if first != nil {
			pool.do(first)
			first = nil
		}
		// One window: files until the byte budget is spent, at least one.
		window := make([]*replayFile, 0, len(deltas))
		var readErr error
		for budget := lim.windowBytes; len(deltas) > 0 && readErr == nil && (len(window) == 0 || deltas[0].Len <= budget); deltas = deltas[1:] {
			e := deltas[0]
			budget -= e.Len
			buf := takeFileBuf(e.Len)
			rs.bufs = append(rs.bufs, buf)
			var raw []byte
			if raw, readErr = readCheckpointFile(fsys, dir, variable, "delta", e.Iteration, e.Len, *buf); readErr == nil {
				f := &replayFile{path: filepath.Join(dir, e.Name)}
				window = append(window, f)
				pool.do(func() { f.prepare(raw, variable, e.Iteration, hdr.N) })
			}
		}
		if err := pool.wait(); err != nil {
			return nil, nil, err
		}
		if fullErr != nil {
			return nil, nil, fullErr
		}
		lost, err := replayWindow(state, window, rs.decs, ropt)
		if err != nil {
			return nil, nil, err
		}
		rs.releaseFiles()
		if lost != nil {
			partial = mergePartial(partial, lost)
		}
		if readErr != nil {
			return nil, nil, readErr
		}
	}
	if chainErr != nil {
		return nil, nil, chainErr
	}
	return state, partial, nil
}

// decoderPool holds the decoders restarts replay through; a restart's
// files are in memory, so only their fixed block scratch is reused.
var decoderPool sync.Pool

// fileBufs holds the buffers restarts read files into, by size class:
// class c holds buffers of capacity 1<<c, each the home of any file of
// 1<<(c-1) to 1<<c - 1 bytes (a read to EOF needs one byte more than
// the file). A file too large for the last class is read into a buffer
// of its own size, as a read without a pool would.
var fileBufs [37]sync.Pool

// takeFileBuf returns a pooled, or new, empty buffer that holds a file
// of size bytes and the read past its end.
func takeFileBuf(size int64) *[]byte {
	c := bits.Len64(uint64(max(size, 0)))
	if c >= len(fileBufs) {
		return new([]byte)
	}
	if b, ok := fileBufs[c].Get().(*[]byte); ok {
		return b
	}
	b := make([]byte, 0, 1<<c)
	return &b
}

// putFileBuf puts a buffer takeFileBuf made back in its class.
func putFileBuf(b *[]byte) {
	if c := bits.Len(uint(cap(*b))) - 1; c >= 0 && c < len(fileBufs) && cap(*b) == 1<<c {
		*b = (*b)[:0]
		fileBufs[c].Put(b)
	}
}

// loadPool runs the load phase's CPU work — decompressing, opening,
// validating — beside the caller's reads: workers-1 goroutines take
// tasks as the caller hands them over, and the caller joins them once
// its reads are done. A one-worker pool runs each task where it is
// handed over. A task that panics fails the restart: wait returns the
// first such panic as an error.
type loadPool struct {
	tasks chan func()
	wg    sync.WaitGroup
	mu    sync.Mutex
	err   error
}

// newLoadPool starts a pool that will be handed at most `sends` tasks:
// the channel holds them all, so handing one over never blocks a read.
func newLoadPool(workers, sends int) *loadPool {
	p := &loadPool{}
	if workers <= 1 {
		return p
	}
	p.tasks = make(chan func(), sends)
	for w := 1; w < workers; w++ {
		p.wg.Add(1)
		go func() {
			defer p.wg.Done()
			for t := range p.tasks {
				p.run(t)
			}
		}()
	}
	return p
}

// run runs task and keeps the panic it raises, if it is the first.
func (p *loadPool) run(task func()) {
	err := panics.Catch(func() error {
		task()
		return nil
	})
	if err != nil {
		p.mu.Lock()
		p.err = cmp.Or(p.err, err)
		p.mu.Unlock()
	}
}

func (p *loadPool) do(task func()) {
	if p.tasks == nil {
		p.run(task)
		return
	}
	p.tasks <- task
}

// wait returns once every task handed over has run, with the first
// panic one of them raised.
func (p *loadPool) wait() error {
	if p.tasks != nil {
		close(p.tasks)
		for t := range p.tasks {
			p.run(t)
		}
		p.wg.Wait()
	}
	return p.err
}
