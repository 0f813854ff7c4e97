package checkpoint

import (
	"errors"
	"fmt"
	"io/fs"
	"path/filepath"
	"sort"

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

// chainEntries returns the chain's entries for one variable, sorted by
// iteration.
func chainEntries(chain map[string]journalEntry, variable string) []Entry {
	ces := chainFileEntries(chain, variable)
	out := make([]Entry, len(ces))
	for i, ce := range ces {
		out[i] = ce.Entry
	}
	return out
}

// ChainEntry is one committed checkpoint file as the store's chain
// records it: the parsed identity plus the file name and the journaled
// byte length and CRC. It is what chain-level tooling (the service
// daemon's chain endpoint, read-only verification) needs to account
// for a file without stat'ing or reading it.
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

// chainFileEntries returns one variable's chain entries with their
// journaled lengths and CRCs, sorted by iteration.
func chainFileEntries(chain map[string]journalEntry, variable string) []ChainEntry {
	var out []ChainEntry
	for name, je := range chain {
		e, ok := parseName(name)
		if ok && e.Variable == variable {
			out = append(out, ChainEntry{Entry: e, Name: name, Len: je.Len, CRC: je.CRC})
		}
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Iteration < out[b].Iteration })
	return out
}

// chainVariables returns the distinct variable names in the chain,
// sorted.
func chainVariables(chain map[string]journalEntry) []string {
	seen := map[string]bool{}
	for name := range chain {
		if e, ok := parseName(name); ok {
			seen[e.Variable] = true
		}
	}
	out := make([]string, 0, len(seen))
	for v := range seen {
		out = append(out, v)
	}
	sort.Strings(out)
	return out
}

// chainStats derives per-variable storage statistics from the chain
// alone: the journal records every committed file's byte length, so no
// per-file Stat is needed.
func chainStats(chain map[string]journalEntry) []VariableStats {
	byVar := map[string]*VariableStats{}
	for name, je := range chain {
		e, ok := parseName(name)
		if !ok {
			continue
		}
		s := byVar[e.Variable]
		if s == nil {
			s = &VariableStats{Variable: e.Variable, FirstIter: -1}
			byVar[e.Variable] = s
		}
		if s.FirstIter < 0 || e.Iteration < s.FirstIter {
			s.FirstIter = e.Iteration
		}
		if e.Iteration > s.LastIter {
			s.LastIter = e.Iteration
		}
		if e.Kind == "full" {
			s.Fulls++
			s.FullBytes += je.Len
		} else {
			s.Deltas++
			s.DeltaBytes += je.Len
		}
	}
	out := make([]VariableStats, 0, len(byVar))
	for _, s := range byVar {
		out = append(out, *s)
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Variable < out[b].Variable })
	return out
}

// latestRestorableEntries walks a variable's sorted entries and returns
// the highest iteration reachable through an unbroken delta chain
// rooted at a full checkpoint, or -1 if no full checkpoint exists.
func latestRestorableEntries(entries []Entry) int {
	restorable := -1
	chainNext := -1
	for _, e := range entries {
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
	return restorable
}

// readCheckpointFile loads one checkpoint file's bytes, mapping absence
// — and only absence: an EIO on a committed file is not a "no such
// checkpoint" — to ErrNotFound with the checkpoint identity in the
// message.
func readCheckpointFile(fsys faultfs.FS, dir, variable, kind string, iteration int) ([]byte, error) {
	if err := validateIdentity(variable, iteration); err != nil {
		return nil, err
	}
	path := filepath.Join(dir, fileName(variable, kind, iteration))
	raw, err := faultfs.ReadFile(fsys, path)
	if errors.Is(err, fs.ErrNotExist) {
		return nil, fmt.Errorf("%w: %s checkpoint %s@%d", ErrNotFound, kind, variable, iteration)
	}
	if err != nil {
		return nil, pathErr("read", path, err)
	}
	return raw, nil
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
	raw, err := readCheckpointFile(fsys, dir, variable, "full", iteration)
	if err != nil {
		return nil, err
	}
	v, it, data, err := UnmarshalFull(raw)
	if err != nil {
		return nil, pathErr("parse", filepath.Join(dir, fileName(variable, "full", iteration)), err)
	}
	return data, checkIdentity(ErrCorrupt, v, it, variable, iteration)
}

// restartEntries reconstructs a variable at the requested iteration
// from its sorted chain entries: load the latest full checkpoint at or
// before it, replay every delta in between on top of it (§II-D).
// Missing intermediate deltas are an ErrChain. ropt.Obs receives the
// decode and quarantine counters.
func restartEntries(fsys faultfs.FS, dir string, entries []Entry, variable string, iteration int, ropt RecoverOptions) ([]float64, *PartialDataError, error) {
	if len(entries) == 0 {
		return nil, nil, fmt.Errorf("%w: variable %s", ErrNotFound, variable)
	}
	// Latest full checkpoint at or before the target.
	fullIter := -1
	for _, e := range entries {
		if e.Kind == "full" && e.Iteration <= iteration {
			fullIter = e.Iteration
		}
	}
	if fullIter < 0 {
		return nil, nil, fmt.Errorf("%w: no full checkpoint at or before iteration %d for %s", ErrNotFound, iteration, variable)
	}
	state, err := readFullFile(fsys, dir, variable, fullIter)
	if err != nil {
		return nil, nil, err
	}
	// Replay deltas (fullIter, iteration]. Every present delta in that
	// range must chain from the previous one without gaps. One decoder's
	// scratch serves the whole chain.
	var partial *PartialDataError
	dec := &ChunkDecoder{}
	expected := fullIter + 1
	for _, e := range entries {
		if e.Kind != "delta" || e.Iteration <= fullIter || e.Iteration > iteration {
			continue
		}
		if e.Iteration != expected {
			return nil, nil, fmt.Errorf("%w: expected delta %d for %s, found %d", ErrChain, expected, variable, e.Iteration)
		}
		raw, err := readCheckpointFile(fsys, dir, variable, "delta", e.Iteration)
		if err != nil {
			return nil, nil, err
		}
		lost, err := replayDelta(raw, variable, e.Iteration, state, dec, ropt)
		if err != nil {
			return nil, nil, pathErr("replay", filepath.Join(dir, fileName(variable, "delta", e.Iteration)), err)
		}
		if lost != nil {
			partial = mergePartial(partial, lost)
		}
		expected++
	}
	if expected != iteration+1 {
		return nil, nil, fmt.Errorf("%w: chain for %s ends at %d, wanted %d", ErrChain, variable, expected-1, iteration)
	}
	return state, partial, nil
}

// replayDelta applies one delta file, of either format, to state in
// place — the whole of what restart does with a delta: open it (which
// is where the format is decided and a v1 file's CRC is checked), check
// it is the checkpoint it was asked for as, and decode each chunk over
// its own range of state through dec's scratch. Reconstruction is
// pointwise and a chunk is fully validated before its first point is
// written, so in salvage mode a quarantined chunk's range simply keeps
// the previous iteration's values and comes back in the returned
// report; fail-closed mode, and any failure that is not chunk-local,
// returns the error and leaves state unusable.
func replayDelta(raw []byte, variable string, iteration int, state []float64, dec *ChunkDecoder, ropt RecoverOptions) (*PartialDataError, error) {
	d, err := openDelta(nil, raw, int64(len(raw)))
	if err != nil {
		return nil, err
	}
	if err := checkIdentity(ErrCorrupt, d.meta.Variable, d.meta.Iteration, variable, iteration); err != nil {
		return nil, err
	}
	return d.decodeInto(dec, state, state, 0, ropt)
}
