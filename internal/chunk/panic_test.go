package chunk

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"testing"

	"numarck/internal/checkpoint"
	"numarck/internal/core"
	"numarck/internal/panics"
)

// panicSource is a caller's Source whose ReadFloats panics on the window
// that starts at point at. It is not a SliceSource, so every window is
// read through ReadFloats.
type panicSource struct {
	vals SliceSource
	at   int
}

func (s panicSource) Len() int { return len(s.vals) }

func (s panicSource) ReadFloats(dst []float64, off int) error {
	if off == s.at {
		panic(fmt.Sprintf("caller's source fails at point %d", off))
	}
	return s.vals.ReadFloats(dst, off)
}

// TestWorkerPanicIsTheCallsError drives a panic in a caller's Source
// through the encode and the decode, at chunk 3 of 8: the call returns
// it as a *panics.Error, the process lives on, and the next encode and
// decode — on whatever pooled scratch is left — give the bytes and
// values of a fresh run.
func TestWorkerPanicIsTheCallsError(t *testing.T) {
	const cp, nChunks = 1024, 8
	prev, cur := genPair(cp*nChunks, 23)
	opt := core.Options{ErrorBound: 0.001, IndexBits: 8, Strategy: core.Clustering}
	encode := func(p, c Source, workers int) ([]byte, error) {
		var buf bytes.Buffer
		_, err := EncodeDeltaV2(&buf, "v", 1, p, c, opt, Config{ChunkPoints: cp, Workers: workers})
		return buf.Bytes(), err
	}
	decode := func(raw []byte, p Source, workers int) ([]float64, error) {
		d, err := checkpoint.OpenDelta(bytes.NewReader(raw), int64(len(raw)))
		if err != nil {
			t.Fatal(err)
		}
		var out []float64
		err = DecodeDeltaV2(d, p, Config{Workers: workers}, func(vals []float64) error {
			out = append(out, vals...)
			return nil
		})
		return out, err
	}
	want, err := encode(SliceSource(prev), SliceSource(cur), 1)
	if err != nil {
		t.Fatal(err)
	}
	wantVals, err := decode(want, SliceSource(prev), 1)
	if err != nil {
		t.Fatal(err)
	}
	bad := panicSource{vals: prev, at: 3 * cp}
	isPanic := func(what string, err error) {
		t.Helper()
		var pe *panics.Error
		if !errors.As(err, &pe) || !panics.Raised(err) {
			t.Fatalf("%s: err = %v, want the source's panic as a *panics.Error", what, err)
		}
		if len(pe.Stack) == 0 {
			t.Errorf("%s: the panic's stack is empty", what)
		}
	}
	for _, workers := range []int{1, 2, 4} {
		_, err := encode(bad, SliceSource(cur), workers)
		isPanic(fmt.Sprintf("encode, %d workers", workers), err)
		got, err := encode(SliceSource(prev), SliceSource(cur), workers)
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("encode after a panic, %d workers: err %v, bytes equal %v", workers, err, bytes.Equal(got, want))
		}

		_, err = decode(want, bad, workers)
		isPanic(fmt.Sprintf("decode, %d workers", workers), err)
		vals, err := decode(want, SliceSource(prev), workers)
		if err != nil || len(vals) != len(wantVals) {
			t.Fatalf("decode after a panic, %d workers: err %v, %d values, want %d", workers, err, len(vals), len(wantVals))
		}
		for i := range vals {
			if math.Float64bits(vals[i]) != math.Float64bits(wantVals[i]) {
				t.Fatalf("decode after a panic, %d workers: point %d is %v, want %v", workers, i, vals[i], wantVals[i])
			}
		}
	}
}
