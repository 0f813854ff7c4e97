// Package isabela implements the ISABELA lossy compression baseline of
// Lakshminarasimhan et al. (ref [15] of the NUMARCK paper): the data
// vector is split into windows of W₀ values, each window is sorted
// (making it monotone and therefore extremely smooth), the sorted curve
// is fitted with a cubic B-spline of P_I coefficients, and the sorting
// permutation is stored as ⌈log₂ W₀⌉-bit indices so decompression can
// undo the sort.
//
// Storage per full window is W₀·log₂(W₀) bits of permutation plus
// P_I·64 bits of coefficients, which for the paper's W₀=512, P_I=30
// yields the 80.078 % ratio in Table I (75.781 % for W₀=256).
package isabela

import (
	"errors"
	"fmt"
	"math/bits"
	"sort"

	"numarck/internal/bitpack"
	"numarck/internal/bspline"
)

// DefaultCoefficients is the paper-suggested P_I = 30.
const DefaultCoefficients = 30

// ErrInput reports an invalid compression request.
var ErrInput = errors.New("isabela: invalid input")

// window is one compressed window: the sorting permutation and the
// spline fitted to the sorted values.
type window struct {
	n     int
	perm  []byte // packed permutation indices
	curve *bspline.Curve
}

// Compressed is an ISABELA-compressed data vector.
type Compressed struct {
	N          int
	WindowSize int
	Coeffs     int
	windows    []window
}

// Compress encodes data with windows of windowSize values and coeffs
// B-spline coefficients per window. windowSize must be a power of two
// >= 8 (the paper uses 256 and 512); coeffs >= 4.
func Compress(data []float64, windowSize, coeffs int) (*Compressed, error) {
	if len(data) == 0 {
		return nil, fmt.Errorf("%w: empty data", ErrInput)
	}
	if windowSize < 8 || windowSize&(windowSize-1) != 0 {
		return nil, fmt.Errorf("%w: window size %d must be a power of two >= 8", ErrInput, windowSize)
	}
	if coeffs < bspline.Degree+1 {
		return nil, fmt.Errorf("%w: need at least %d coefficients, got %d", ErrInput, bspline.Degree+1, coeffs)
	}
	c := &Compressed{N: len(data), WindowSize: windowSize, Coeffs: coeffs}
	for lo := 0; lo < len(data); lo += windowSize {
		hi := lo + windowSize
		if hi > len(data) {
			hi = len(data)
		}
		w, err := compressWindow(data[lo:hi], coeffs)
		if err != nil {
			return nil, fmt.Errorf("isabela: window at %d: %w", lo, err)
		}
		c.windows = append(c.windows, w)
	}
	return c, nil
}

func compressWindow(data []float64, coeffs int) (window, error) {
	n := len(data)
	// Sort with an explicit permutation: perm[r] is the original
	// position of the r-th smallest value.
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	sort.SliceStable(perm, func(a, b int) bool { return data[perm[a]] < data[perm[b]] })
	sorted := make([]float64, n)
	for r, p := range perm {
		sorted[r] = data[p]
	}
	p := coeffs
	if p > n {
		p = n
	}
	if p < bspline.Degree+1 {
		p = bspline.Degree + 1
	}
	var curve *bspline.Curve
	if n < bspline.Degree+1 {
		// Degenerate tail window: store values as "control points"
		// verbatim (still counted at 64 bits each).
		curve = &bspline.Curve{Ctrl: append([]float64(nil), sorted...)}
	} else {
		var err error
		curve, err = bspline.Fit(sorted, p)
		if err != nil {
			return window{}, err
		}
	}
	permU32 := make([]uint32, n)
	for r, pi := range perm {
		// perm entries index one window, far below 2^32
		permU32[r] = uint32(pi)
	}
	packed, err := bitpack.Pack(permU32, permBits(n))
	if err != nil {
		return window{}, err
	}
	return window{n: n, perm: packed, curve: curve}, nil
}

// permBits returns the index width for a window of n values.
func permBits(n int) int {
	if n <= 1 {
		return 1
	}
	return bits.Len(uint(n - 1))
}

// Decompress reconstructs the full data vector.
func (c *Compressed) Decompress() ([]float64, error) {
	out := make([]float64, 0, c.N)
	for wi, w := range c.windows {
		perm, err := bitpack.Unpack(w.perm, w.n, permBits(w.n))
		if err != nil {
			return nil, fmt.Errorf("isabela: window %d: %w", wi, err)
		}
		var sortedRec []float64
		if w.n < bspline.Degree+1 {
			sortedRec = append([]float64(nil), w.curve.Ctrl...)
		} else {
			sortedRec = w.curve.EvalSamples(w.n)
		}
		vals := make([]float64, w.n)
		for r, p := range perm {
			if int(p) >= w.n {
				return nil, fmt.Errorf("isabela: window %d: permutation index %d out of range", wi, p)
			}
			vals[p] = sortedRec[r]
		}
		out = append(out, vals...)
	}
	return out, nil
}

// SizeBits returns the storage the paper charges ISABELA: per window,
// n·⌈log₂ W₀⌉ permutation bits plus the coefficient payload.
func (c *Compressed) SizeBits() int {
	total := 0
	for _, w := range c.windows {
		total += w.n*permBits(w.n) + 64*len(w.curve.Ctrl)
	}
	return total
}

// CompressionRatio returns the storage saving in percent relative to
// storing N raw float64 values.
func (c *Compressed) CompressionRatio() float64 {
	raw := 64 * c.N
	return float64(raw-c.SizeBits()) / float64(raw) * 100
}
