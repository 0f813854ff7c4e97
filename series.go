package numarck

import (
	"errors"
	"fmt"

	"numarck/internal/core"
)

// Series is an in-memory compressed iteration series: the exact first
// iteration plus one Encoded delta per subsequent iteration. It is the
// file-less counterpart of the checkpoint Store for pipelines that
// post-process whole runs in memory (in-situ analysis, §V).
type Series struct {
	// First is the exact first iteration.
	First []float64
	// Deltas[i] encodes the transition from iteration i to i+1.
	Deltas []*Encoded
}

// ErrSeries reports an invalid series operation.
var ErrSeries = errors.New("numarck: invalid series")

// CompressSeries encodes consecutive iterations. Each delta is computed
// closed-loop, against the reconstruction of the previous iteration
// rather than its true values, so Reconstruct(i) is within E·|x̂_{i-1}|
// of iteration i per point however long the series is.
func CompressSeries(iterations [][]float64, opt Options) (*Series, error) {
	if len(iterations) == 0 {
		return nil, fmt.Errorf("%w: no iterations", ErrSeries)
	}
	s := &Series{First: append([]float64(nil), iterations[0]...)}
	ref := s.First
	for i := 1; i < len(iterations); i++ {
		enc, err := core.Encode(ref, iterations[i], opt)
		if err != nil {
			return nil, fmt.Errorf("numarck: iteration %d: %w", i, err)
		}
		if ref, err = enc.Decode(ref); err != nil {
			return nil, fmt.Errorf("numarck: iteration %d: %w", i, err)
		}
		s.Deltas = append(s.Deltas, enc)
	}
	return s, nil
}

// Len returns the number of iterations the series holds.
func (s *Series) Len() int { return 1 + len(s.Deltas) }

// Reconstruct returns iteration i by replaying deltas on top of the
// first iteration — the restart semantics of §II-D. The deltas were
// encoded against this very replay, so the error does not accumulate
// with i: it is one step's, E·|x̂_{i-1}| per point.
func (s *Series) Reconstruct(i int) ([]float64, error) {
	if i < 0 || i >= s.Len() {
		return nil, fmt.Errorf("%w: iteration %d of %d", ErrSeries, i, s.Len())
	}
	data := append([]float64(nil), s.First...)
	for k := 0; k < i; k++ {
		var err error
		data, err = s.Deltas[k].Decode(data)
		if err != nil {
			return nil, fmt.Errorf("numarck: replaying delta %d: %w", k, err)
		}
	}
	return data, nil
}

// ReconstructAll returns every iteration, replaying the chain once.
func (s *Series) ReconstructAll() ([][]float64, error) {
	out := make([][]float64, s.Len())
	out[0] = append([]float64(nil), s.First...)
	data := out[0]
	for k, enc := range s.Deltas {
		var err error
		data, err = enc.Decode(data)
		if err != nil {
			return nil, fmt.Errorf("numarck: replaying delta %d: %w", k, err)
		}
		out[k+1] = data
	}
	return out, nil
}

// Validate checks the series' structural invariants without decoding:
// a non-empty first iteration, no nil deltas, and every delta sized to
// the series' point count. A series that fails Validate will fail (or
// silently corrupt) Reconstruct; calling it after deserializing or
// assembling a Series by hand catches the damage up front.
func (s *Series) Validate() error {
	if len(s.First) == 0 {
		return fmt.Errorf("%w: empty first iteration", ErrSeries)
	}
	for k, enc := range s.Deltas {
		if enc == nil {
			return fmt.Errorf("%w: delta %d is nil", ErrSeries, k)
		}
		if enc.N != len(s.First) {
			return fmt.Errorf("%w: delta %d encodes %d points, series has %d", ErrSeries, k, enc.N, len(s.First))
		}
	}
	return nil
}

// StorageBytes returns the in-memory storage model of the series: the
// raw first iteration plus each delta's encoded payload.
func (s *Series) StorageBytes() int {
	total := 8 * len(s.First)
	for _, enc := range s.Deltas {
		total += enc.EncodedSizeBytes()
	}
	return total
}

// CompressionRatio returns the percent saving over storing every
// iteration raw.
func (s *Series) CompressionRatio() float64 {
	raw := 8 * len(s.First) * s.Len()
	if raw == 0 {
		return 0
	}
	return float64(raw-s.StorageBytes()) / float64(raw) * 100
}
