package server

import (
	"slices"

	"numarck/internal/checkpoint"
	"numarck/internal/obs"
)

// seriesHead is what a series' last commit through this daemon left
// behind: the state Restart(series, iter) returns, and the chain
// segment it came from. A push of iter+1 encodes against vals instead
// of replaying the chain, and a fetch of iter is served from it, but
// only while the read view still lists seg as the segment ending at
// iter: any other writer's commit, rewrite or GC that touches those
// files changes a name, a length or a CRC there.
// A published head is never written to; the next commit publishes a
// new one.
type seriesHead struct {
	iter int
	vals []float64
	// seg is the files Restart(series, iter) reads, entry for entry as
	// checkpoint.Segment picks them from ReadView.Chain.
	seg []checkpoint.ChainEntry
	// hold is the head's governor charge; nil when ungoverned.
	hold *govHold
}

// prevState returns the state a delta push of iter encodes against —
// what Restart(series, iter-1) returns — and the chain segment that
// state came from: the series head if the view's segment ending at
// iter-1 is the head's, otherwise a replay through the view. The
// segment is read before the replay, so a chain that moves during the
// replay shows as a mismatch on the next push, never as a head whose
// values belong to another chain. The returned values are shared and
// must not be written to.
func (t *Tenant) prevState(view *checkpoint.ReadView, series string, iter int) ([]float64, []checkpoint.ChainEntry, error) {
	chain, err := view.Chain(series)
	if err != nil {
		return nil, nil, err
	}
	seg, _ := checkpoint.Segment(chain, iter-1)
	t.headMu.Lock()
	h := t.heads[series]
	t.headMu.Unlock()
	if h != nil && h.iter == iter-1 && slices.Equal(h.seg, seg) {
		t.rg.gov.touch(h.hold)
		t.rec.Add(obs.CounterHeadHits, 1)
		return h.vals, h.seg, nil
	}
	t.rec.Add(obs.CounterHeadMisses, 1)
	vals, err := view.Restart(series, iter-1)
	if err != nil {
		return nil, nil, err
	}
	return vals, seg, nil
}

// headValues returns the series head's values when they are what a
// fetch of iter serves: the head is at iter, its segment is seg — the
// view's segment ending at iter, the comparison prevState makes — and
// every file of seg is still, byte for byte, what the journal recorded
// (ReadView.CheckFiles). A segment's metadata cannot see a flipped byte
// on disk; the replay would, so the check must too. Otherwise ok is
// false and the fetch replays the chain, whose answer, an error
// included, is then exactly a fetch's without a head. The returned
// values are shared and must not be written to.
func (t *Tenant) headValues(view *checkpoint.ReadView, series string, iter int, seg []checkpoint.ChainEntry) (vals []float64, ok bool) {
	t.headMu.Lock()
	h := t.heads[series]
	t.headMu.Unlock()
	if h == nil || h.iter != iter || !slices.Equal(h.seg, seg) || view.CheckFiles(seg) != nil {
		t.rec.Add(obs.CounterFetchHeadMisses, 1)
		return nil, false
	}
	t.rg.gov.touch(h.hold)
	t.rec.Add(obs.CounterFetchHeadHits, 1)
	return h.vals, true
}

// advanceHead publishes the head a delta commit leaves: prev, the state
// the delta was encoded against, with the committed file replayed onto
// a copy of it by restart's own one-file step. A replay that fails
// keeps no head.
func (t *Tenant) advanceHead(series string, iter int, prev []float64, prevSeg []checkpoint.ChainEntry, raw []byte, ce checkpoint.CommittedEntry) {
	vals := slices.Clone(prev)
	if _, err := checkpoint.ReplayDelta(raw, series, iter, vals, &checkpoint.ChunkDecoder{}, checkpoint.RecoverOptions{}); err != nil {
		t.setHead(series, nil)
		return
	}
	seg := append(slices.Clone(prevSeg), ce.ChainEntry)
	t.setHead(series, &seriesHead{iter: iter, vals: vals, seg: seg})
}

// setHead replaces a series' head with h, or drops it when h is nil.
// The old head's charge is given back first, so that the new one can
// take its room; if the governor has no room for h without queueing,
// no head is kept.
func (t *Tenant) setHead(series string, h *seriesHead) {
	t.headMu.Lock()
	defer t.headMu.Unlock()
	if old := t.heads[series]; old != nil {
		t.rg.gov.drop(old.hold)
		delete(t.heads, series)
	}
	if h == nil {
		return
	}
	hold, ok := t.rg.gov.hold(8*int64(len(h.vals)), func() { t.evictHead(series, h) })
	if !ok {
		return
	}
	h.hold = hold
	t.heads[series] = h
}

// evictHead forgets h after the governor took its room back, unless a
// newer head has replaced it since.
func (t *Tenant) evictHead(series string, h *seriesHead) {
	t.headMu.Lock()
	defer t.headMu.Unlock()
	if t.heads[series] == h {
		delete(t.heads, series)
	}
}
