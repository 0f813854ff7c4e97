package checkpoint

import (
	"fmt"
	"slices"

	"numarck/internal/core"
)

// Writer appends iterations of a multi-variable simulation to a store:
// the one place in the library where "iteration i of variable v" becomes
// a full or a delta commit. The first append is always full; a delta is
// encoded closed-loop, against the state Restart(v, i-1) returns rather
// than the true previous state, so every restart obeys
//
//	|x̂_i − x_i| ≤ E·|x̂_{i-1}|
//
// per point at any chain depth (FORMAT.md, "Prediction reference") and
// reconstructs bit-identically to a daemon tenant fed the same
// iterations.
type Writer struct {
	st        *Store
	fullEvery int
	schedule  Schedule
	// last[v] is what Restart(v, lastIter) returns and depth[v] the
	// number of deltas that restart replays: the head of v's chain.
	last     map[string][]float64
	depth    map[string]int
	lastIter int
	started  bool
}

// Schedule is the Writer's full-or-delta seam: asked once per variable
// and Append with the tentative delta and the number of deltas already
// on the variable's chain, it reports whether a full checkpoint is
// written instead. It must be a pure function of its arguments — the
// chain state it may depend on is the Writer's, which a failed Append
// leaves untouched.
type Schedule func(depth int, enc *core.Encoded) (full bool)

// NewWriter creates a Writer. fullEvery <= 0 means only the first
// checkpoint is full.
func NewWriter(st *Store, fullEvery int) *Writer {
	return &Writer{st: st, fullEvery: fullEvery, last: map[string][]float64{}, depth: map[string]int{}}
}

// NewWriterAt creates a Writer primed to continue an existing store:
// lastIter is the last iteration already present and lastState what
// Restart(v, lastIter) returns for every variable v. (The true state at
// lastIter is tolerated: the next delta is then one open-loop step,
// still within E·|x_lastIter| of the truth.) The next Append must use
// iteration lastIter+1 and may be a delta against lastState.
func NewWriterAt(st *Store, fullEvery, lastIter int, lastState map[string][]float64) *Writer {
	w := NewWriter(st, fullEvery)
	w.lastIter, w.started = lastIter, true
	for v, data := range lastState {
		w.last[v] = append([]float64(nil), data...)
		w.depth[v] = st.chainDepth(v, lastIter)
	}
	return w
}

// Scheduled hands w's full-or-delta choice to s, on top of the fixed
// period: a variable w has no reference for is written in full, every
// other one as s decides from its tentative delta. It is a function of
// this package rather than a method so that the public Writer gains no
// knob; the examples are its callers.
func Scheduled(w *Writer, s Schedule) *Writer {
	w.schedule = s
	return w
}

// chainDepth returns how many deltas a restart of variable at iteration
// replays on top of its full checkpoint.
func (st *Store) chainDepth(variable string, iteration int) int {
	seg, _ := Segment(st.chainView().files[variable], iteration)
	return max(len(seg)-1, 0)
}

// Append writes iteration data for every variable in vars and returns
// the encodings of those written as deltas. Iterations must be appended
// in consecutive increasing order. The variables are encoded and
// marshalled in sorted name order, then committed as one group: one
// directory sync, one journal append and one index republish for the
// whole iteration (Store.commit). All N files are held in memory until
// the group is durable.
//
// Append is all-or-nothing for the Writer: on error no reference has
// moved, so the same Append may be retried. A group that fails after k
// of its N renames journals nothing; the k renamed files are committed
// but unjournaled, a reopen's recovery scan adopts each of them, and a
// retried Append renames the same bytes over them.
func (w *Writer) Append(iteration int, vars map[string][]float64) (map[string]*core.Encoded, error) {
	if w.started && iteration != w.lastIter+1 {
		return nil, fmt.Errorf("checkpoint: non-consecutive iteration %d after %d", iteration, w.lastIter)
	}
	periodic := !w.started || (w.fullEvery > 0 && (iteration%w.fullEvery) == 0)
	encs := map[string]*core.Encoded{}
	names := make([]string, 0, len(vars))
	for v := range vars {
		names = append(names, v)
	}
	slices.Sort(names)
	group := make([]commitItem, 0, len(names))
	for _, v := range names {
		data := vars[v]
		prev, ok := w.last[v]
		full := periodic || (!ok && w.schedule != nil)
		if !full {
			if !ok {
				return nil, fmt.Errorf("checkpoint: variable %q appeared mid-run at iteration %d", v, iteration)
			}
			enc, err := core.Encode(prev, data, w.st.opt)
			if err != nil {
				return nil, fmt.Errorf("checkpoint: encode %s@%d: %w", v, iteration, err)
			}
			if w.schedule != nil && w.schedule(w.depth[v], enc) {
				full = true
			} else {
				encs[v] = enc
			}
		}
		var it commitItem
		var err error
		if full {
			it, err = fullItem(v, iteration, data)
		} else {
			it, err = deltaItem(v, iteration, encs[v])
		}
		if err != nil {
			return nil, err
		}
		group = append(group, it)
	}
	if err := w.st.commit(group...); err != nil {
		return nil, err
	}
	// Every file is durable: move the chain heads to what a restart of
	// this iteration returns.
	for v, data := range vars {
		enc := encs[v]
		if enc == nil {
			w.last[v], w.depth[v] = append(w.last[v][:0], data...), 0
			continue
		}
		ref := w.last[v]
		if err := core.Reconstruct(ref, ref, core.RatioTable(enc.BinRatios), enc.Indices, enc.Incompressible.Bytes(), enc.Exact); err != nil {
			return nil, fmt.Errorf("checkpoint: %s@%d: reference update: %w", v, iteration, err)
		}
		w.depth[v]++
	}
	w.lastIter = iteration
	w.started = true
	return encs, nil
}
