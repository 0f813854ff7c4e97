package checkpoint

import (
	"cmp"
	"errors"
	"fmt"
	"io/fs"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"sync"

	"numarck/internal/core"
	"numarck/internal/faultfs"
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

// ErrBadVariable matches, via errors.Is, a rejected variable name or
// iteration number. Names are validated at every write: a name with a
// path separator or a leading dot could otherwise escape the store
// directory or collide with store metadata files.
var ErrBadVariable = errors.New("checkpoint: invalid variable name")

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
func viewOf(all []ChainEntry) *chainView {
	v := &chainView{files: map[string][]ChainEntry{}}
	for _, ce := range all {
		v.files[ce.Variable] = append(v.files[ce.Variable], ce)
	}
	for name, files := range v.files {
		v.vars = append(v.vars, name)
		slices.SortFunc(files, func(a, b ChainEntry) int {
			return cmp.Or(cmp.Compare(a.Iteration, b.Iteration), cmp.Compare(a.Kind, b.Kind))
		})
	}
	sort.Strings(v.vars)
	return v
}

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

// viewOfIndex derives the view a parsed CHAININDEX describes.
func viewOfIndex(ix *ChainIndex) *chainView {
	all := make([]ChainEntry, len(ix.Entries))
	for i, e := range ix.Entries {
		all[i] = ChainEntry{Entry: e.Entry, Name: fileName(e.Variable, e.Kind, e.Iteration), Len: e.Len, CRC: e.CRC}
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

// latestRestorable walks a variable's files and returns the highest
// iteration reachable through an unbroken delta chain rooted at a full
// checkpoint; ErrNotFound means no full checkpoint exists.
func (v *chainView) latestRestorable(variable string) (int, error) {
	restorable := -1
	chainNext := -1
	for _, e := range v.files[variable] {
		switch {
		case e.Kind == "full":
			if e.Iteration > restorable {
				restorable = e.Iteration
			}
			chainNext = e.Iteration + 1
		case e.Kind == "delta" && e.Iteration == chainNext:
			restorable = e.Iteration
			chainNext++
		default:
			chainNext = -1 // chain broken until the next full
		}
	}
	if restorable < 0 {
		return 0, fmt.Errorf("%w: variable %s has no full checkpoint", ErrNotFound, variable)
	}
	return restorable, nil
}

// readCheckpointFile loads one checkpoint file's bytes, mapping absence
// — and only absence: an EIO on a committed file is not a "no such
// checkpoint" — to ErrNotFound with the checkpoint identity in the
// message. size is the file's journaled length when the caller has its
// chain entry (negative otherwise): the read is then sized from it, and
// a file that is longer or shorter than its journal record is ErrCorrupt
// — the store never hands back a file it did not commit.
func readCheckpointFile(fsys faultfs.FS, dir, variable, kind string, iteration int, size int64) ([]byte, error) {
	if err := validateIdentity(variable, iteration); err != nil {
		return nil, err
	}
	path := filepath.Join(dir, fileName(variable, kind, iteration))
	var raw []byte
	var err error
	if size < 0 {
		raw, err = faultfs.ReadFile(fsys, path)
	} else {
		raw, err = faultfs.ReadFileSized(fsys, path, size)
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

// readFullFile loads and parses a full checkpoint.
func readFullFile(fsys faultfs.FS, dir, variable string, iteration int) ([]float64, error) {
	raw, err := readCheckpointFile(fsys, dir, variable, "full", iteration, -1)
	if err != nil {
		return nil, err
	}
	v, it, data, err := UnmarshalFull(raw)
	if err != nil {
		return nil, pathErr("parse", filepath.Join(dir, fileName(variable, "full", iteration)), err)
	}
	return data, checkIdentity(ErrCorrupt, v, it, variable, iteration)
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
		lost, err := f.d.settle(f.bad, ropt, workers)
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
		if err := run(0); err != nil {
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
				errs[w] = run(w)
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

// replayDelta applies one delta file, of either format, to state in
// place on the caller's goroutine through dec's scratch: a restart
// window of one. A chunk is fully validated before its first point is
// written, so in salvage mode a quarantined chunk's range simply keeps
// the previous iteration's values and comes back in the returned
// report; fail-closed mode, and any failure that is not chunk-local,
// returns the error with state untouched.
func replayDelta(raw []byte, variable string, iteration int, state []float64, dec *ChunkDecoder, ropt RecoverOptions) (*PartialDataError, error) {
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

// restartWithin is restartEntries under explicit limits.
func restartWithin(lim replayLimits, fsys faultfs.FS, dir string, files []ChainEntry, variable string, iteration int, ropt RecoverOptions) ([]float64, *PartialDataError, error) {
	if len(files) == 0 {
		return nil, nil, fmt.Errorf("%w: variable %s", ErrNotFound, variable)
	}
	// Latest full checkpoint at or before the target.
	full := -1
	for i, e := range files {
		if e.Kind == "full" && e.Iteration <= iteration {
			full = i
		}
	}
	if full < 0 {
		return nil, nil, fmt.Errorf("%w: no full checkpoint at or before iteration %d for %s", ErrNotFound, iteration, variable)
	}
	// The deltas (full, iteration] must chain from the full checkpoint
	// without gaps. A gap fails the restart only after the files before
	// it have had their say, as it would replaying them one by one.
	deltas := make([]ChainEntry, 0, len(files)-full-1)
	var chainErr error
	expected := files[full].Iteration + 1
	for _, e := range files[full+1:] {
		if e.Kind != "delta" || e.Iteration > iteration {
			continue
		}
		if e.Iteration != expected {
			chainErr = fmt.Errorf("%w: expected delta %d for %s, found %d", ErrChain, expected, variable, e.Iteration)
			break
		}
		deltas = append(deltas, e)
		expected++
	}
	if chainErr == nil && expected != iteration+1 {
		chainErr = fmt.Errorf("%w: chain for %s ends at %d, wanted %d", ErrChain, variable, expected-1, iteration)
	}

	fe := files[full]
	raw, err := readCheckpointFile(fsys, dir, variable, "full", fe.Iteration, fe.Len)
	if err != nil {
		return nil, nil, err
	}
	fullPath := filepath.Join(dir, fe.Name)
	hdr, payload, err := readFile(raw, magicFull)
	if err != nil {
		return nil, nil, pathErr("parse", fullPath, err)
	}
	// The header says how many points there are before anything is
	// decompressed: enough to know whether this restart is worth more
	// than one goroutine.
	workers := 1
	if p := runtime.GOMAXPROCS(0); p > 1 && len(deltas) > 0 && hdr.N >= lim.fanOutWork/len(deltas) {
		workers = p
	}
	decs := make([]*ChunkDecoder, workers)
	for w := range decs {
		decs[w] = &ChunkDecoder{}
	}

	// The first window's load phase also decompresses the full
	// checkpoint; every window's opens and validates its deltas while the
	// caller is still reading the ones after them.
	var state []float64
	var fullErr error
	first := func() {
		if state, fullErr = decompressFull(hdr, payload); fullErr != nil {
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
			var raw []byte
			if raw, readErr = readCheckpointFile(fsys, dir, variable, "delta", e.Iteration, e.Len); readErr == nil {
				f := &replayFile{path: filepath.Join(dir, e.Name)}
				window = append(window, f)
				pool.do(func() { f.prepare(raw, variable, e.Iteration, hdr.N) })
			}
		}
		pool.wait()
		if fullErr != nil {
			return nil, nil, fullErr
		}
		lost, err := replayWindow(state, window, decs, ropt)
		if err != nil {
			return nil, nil, err
		}
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

// loadPool runs the load phase's CPU work — decompressing, opening,
// validating — beside the caller's reads: workers-1 goroutines take
// tasks as the caller hands them over, and the caller joins them once
// its reads are done. A nil pool, the one-worker case, runs each task
// where it is handed over.
type loadPool struct {
	tasks chan func()
	wg    sync.WaitGroup
}

// newLoadPool starts a pool that will be handed at most `sends` tasks:
// the channel holds them all, so handing one over never blocks a read.
func newLoadPool(workers, sends int) *loadPool {
	if workers <= 1 {
		return nil
	}
	p := &loadPool{tasks: make(chan func(), sends)}
	for w := 1; w < workers; w++ {
		p.wg.Add(1)
		go func() {
			defer p.wg.Done()
			for t := range p.tasks {
				t()
			}
		}()
	}
	return p
}

func (p *loadPool) do(task func()) {
	if p == nil {
		task()
		return
	}
	p.tasks <- task
}

// wait returns once every task handed over has run.
func (p *loadPool) wait() {
	if p == nil {
		return
	}
	close(p.tasks)
	for t := range p.tasks {
		t()
	}
	p.wg.Wait()
}
