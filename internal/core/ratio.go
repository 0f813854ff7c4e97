package core

import (
	"errors"
	"fmt"
	"math"

	"numarck/internal/fputil"
)

// ErrLength reports mismatched prev/cur lengths.
var ErrLength = errors.New("core: prev and cur must have the same length")

// ErrNonFinite reports NaN or Inf in the input data.
var ErrNonFinite = errors.New("core: input contains NaN or Inf")

// RatioKind classifies a point's change ratio.
type RatioKind uint8

const (
	// RatioOK means a finite ratio was computed.
	RatioOK RatioKind = iota
	// RatioNoBase means prev was zero, so no ratio exists (Eq. 1's
	// "D_{i-1,j} cannot be zero"); the point is stored exactly.
	RatioNoBase
	// RatioOverflow means the ratio overflowed to ±Inf (prev is
	// denormal-tiny relative to cur); the point is stored exactly.
	RatioOverflow
)

// Ratios holds the forward-predictive-coding transform of one iteration.
type Ratios struct {
	// Delta[j] is the change ratio of point j, or 0 when Kind[j] is
	// not RatioOK.
	Delta []float64
	// Kind[j] classifies point j.
	Kind []RatioKind
}

// rangeOut is one fixed range's ratio-stage result: how many
// table-input ratios it selected, and its first error.
type rangeOut struct {
	selected int
	err      error
}

// computeRatios computes ΔD = (cur - prev) / prev element-wise (paper
// Eq. 1) into r, reusing r's slices when they have capacity. base is
// the window's first point in the run, so a non-finite input is named
// by its global index. Zero prev values yield RatioNoBase.
//
// When ti is non-nil (at least as long as the window) the same pass
// selects the window's table input into it: the ratios table learning
// sees under opt, in point order — every finite ratio when the zero
// index is disabled (an ablation), otherwise those with |Δ| >= E. It
// returns how many it selected, ti[:selected].
//
// With workers > 1 the window is split over fixed splitPoints ranges.
// Each range selects into its own stretch of ti, and the stretches are
// then closed up in point order. The error returned is the first in
// point order whatever the worker count.
func computeRatios(prev, cur []float64, base, workers int, opt Options, r *Ratios, ti []float64) (int, error) {
	n := len(cur)
	r.Delta = grow(r.Delta, n)
	r.Kind = grow(r.Kind, n)
	thr := opt.ErrorBound
	if opt.DisableZeroIndex {
		thr = 0 // every finite ratio
	}
	if workers <= 1 {
		return ratioRange(prev, cur, base, 0, n, r, thr, ti)
	}
	outs := make([]rangeOut, (n+splitPoints-1)/splitPoints)
	forEachRange(n, splitPoints, workers, func(k, lo, hi int) {
		outs[k].selected, outs[k].err = ratioRange(prev, cur, base, lo, hi, r, thr, ti)
	})
	sel := 0
	for k, o := range outs {
		if o.err != nil {
			return 0, o.err
		}
		if lo := k * splitPoints; ti != nil && sel != lo {
			copy(ti[sel:], ti[lo:lo+o.selected])
		}
		sel += o.selected
	}
	return sel, nil
}

// ratioRange computes the ratios of points [lo, hi) and, when ti is
// non-nil, selects the range's table input into ti[lo:], returning how
// many it selected. The outputs are written unconditionally: the
// buffers may be reused across chunks and carry stale values. The
// select has no branch on the data: each finite ratio is stored at the
// next table-input position, and the position advances by the
// predicate |Δ| >= thr.
func ratioRange(prev, cur []float64, base, lo, hi int, r *Ratios, thr float64, ti []float64) (int, error) {
	t := lo
	for j := lo; j < hi; j++ {
		p, c := prev[j], cur[j]
		if math.IsNaN(p) || math.IsInf(p, 0) || math.IsNaN(c) || math.IsInf(c, 0) {
			return 0, fmt.Errorf("%w: point %d (prev=%v cur=%v)", ErrNonFinite, base+j, p, c)
		}
		if fputil.IsZero(p) {
			r.Delta[j] = 0
			r.Kind[j] = RatioNoBase
			continue
		}
		d := (c - p) / p
		if math.IsInf(d, 0) || math.IsNaN(d) {
			r.Delta[j] = 0
			r.Kind[j] = RatioOverflow
			continue
		}
		r.Delta[j] = d
		r.Kind[j] = RatioOK
		if ti != nil {
			ti[t] = d
			t += b2i(math.Abs(d) >= thr)
		}
	}
	return t - lo, nil
}

// b2i is 1 for true and 0 for false, compiled without a branch.
func b2i(b bool) int {
	var i int
	if b {
		i = 1
	}
	return i
}

// grow returns s resized to length n, reusing its backing array when
// capacity allows.
func grow[T any](s []T, n int) []T {
	if cap(s) >= n {
		return s[:n]
	}
	return make([]T, n)
}

// TableInput returns the change ratios of prev → cur that table
// learning sees under opt, in point order — the selection every encode
// fits its table to. Distributed encoding (internal/dist) summarises
// each rank's with ScanFitStats and, for clustering, runs its Lloyd
// loop over it.
func TableInput(prev, cur []float64, opt Options) ([]float64, error) {
	if len(prev) != len(cur) {
		return nil, fmt.Errorf("%w: %d vs %d", ErrLength, len(prev), len(cur))
	}
	var r Ratios
	ti := make([]float64, len(cur))
	sel, err := computeRatios(prev, cur, 0, 1, opt, &r, ti)
	if err != nil {
		return nil, err
	}
	return ti[:sel], nil
}
