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

// computeRatios computes ΔD = (cur - prev) / prev element-wise (paper
// Eq. 1) into r, reusing r's slices when they have capacity. base is
// the window's first point in the run, so a non-finite input is named
// by its global index. With workers > 1 the window is split over
// fixed splitPoints ranges, and the error returned is the first in
// point order whatever the worker count. Zero prev values yield
// RatioNoBase.
func computeRatios(prev, cur []float64, base, workers int, r *Ratios) error {
	n := len(cur)
	r.Delta = grow(r.Delta, n)
	r.Kind = grow(r.Kind, n)
	if workers <= 1 {
		return ratioRange(prev, cur, base, 0, n, r)
	}
	errs := make([]error, (n+splitPoints-1)/splitPoints)
	forEachRange(n, splitPoints, workers, func(k, lo, hi int) {
		errs[k] = ratioRange(prev, cur, base, lo, hi, r)
	})
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// ratioRange computes the ratios of points [lo, hi). Both output fields
// are written unconditionally: the buffers may be reused across chunks
// and carry stale values.
func ratioRange(prev, cur []float64, base, lo, hi int, r *Ratios) error {
	for j := lo; j < hi; j++ {
		p, c := prev[j], cur[j]
		if math.IsNaN(p) || math.IsInf(p, 0) || math.IsNaN(c) || math.IsInf(c, 0) {
			return fmt.Errorf("%w: point %d (prev=%v cur=%v)", ErrNonFinite, base+j, p, c)
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
	}
	return nil
}

// grow returns s resized to length n, reusing its backing array when
// capacity allows.
func grow[T any](s []T, n int) []T {
	if cap(s) >= n {
		return s[:n]
	}
	return make([]T, n)
}

// tableInput writes into buf[:0] the ratios the table-learning stage
// sees under opt, in point order: every finite ratio when the zero
// index is disabled (an ablation), otherwise those with |Δ| >= E. buf
// is first given room for the whole window, so the appends never
// regrow it.
func (r *Ratios) tableInput(opt Options, buf []float64) []float64 {
	if cap(buf) < len(r.Delta) {
		buf = make([]float64, 0, len(r.Delta))
	}
	out := buf[:0]
	all, bound := opt.DisableZeroIndex, opt.ErrorBound
	for j, d := range r.Delta {
		if r.Kind[j] == RatioOK && (all || math.Abs(d) >= bound) {
			out = append(out, d)
		}
	}
	return out
}

// TableInput returns the change ratios of prev → cur that table
// learning sees under opt, in point order — the selection every encode
// fits its table to. Distributed encoding (internal/dist) learns one
// table from all ranks' inputs and encodes each rank against it.
func TableInput(prev, cur []float64, opt Options) ([]float64, error) {
	if len(prev) != len(cur) {
		return nil, fmt.Errorf("%w: %d vs %d", ErrLength, len(prev), len(cur))
	}
	var r Ratios
	if err := computeRatios(prev, cur, 0, 1, &r); err != nil {
		return nil, err
	}
	return r.tableInput(opt, nil), nil
}
