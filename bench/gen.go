package main

import (
	"bytes"
	"math"
	"math/rand"

	"numarck/internal/rawio"
)

// profile names a generator profile: how a state's points change from
// one iteration to the next.
type profile int

const (
	// smooth is FLASH-like: 99.5 % of points change by N(0, 0.4 %) and
	// 0.5 % by N(0, 30 %), so a few points per thousand cannot be
	// represented within E and are stored exactly.
	smooth profile = iota
	// rough is CMIP5-like: every point changes by N(0, 2 %), a wide
	// ratio distribution with no quiet majority.
	rough
)

// generator produces the benchmark's inputs from a seed. The program
// under test only ever sees what it generates; internal/sim is not
// used, so a workload cannot change because a simulator did.
type generator struct {
	seed int64
}

// stream returns the random source of one named input stream. Streams
// are independent of each other and of the order they are asked for,
// so adding an input to one workload cannot shift another's.
func (g generator) stream(id int64) *rand.Rand {
	return rand.New(rand.NewSource(g.seed*1000003 + id))
}

// initial returns the first state of stream id: n values uniform in
// [1, 10), so no point is zero and every change ratio exists.
func (g generator) initial(id int64, n int) ([]float64, *rand.Rand) {
	rng := g.stream(id)
	x := make([]float64, n)
	for i := range x {
		x[i] = 1 + 9*rng.Float64()
	}
	return x, rng
}

// step returns the state that follows prev under p. A change is clamped
// to ±90 % so a value never reaches zero or changes sign.
func step(rng *rand.Rand, p profile, prev []float64) []float64 {
	next := make([]float64, len(prev))
	for i, v := range prev {
		var d float64
		switch p {
		case smooth:
			if rng.Intn(1000) < 5 {
				d = 0.30 * rng.NormFloat64()
			} else {
				d = 0.004 * rng.NormFloat64()
			}
		case rough:
			d = 0.02 * rng.NormFloat64()
		}
		d = math.Max(-0.9, math.Min(0.9, d))
		next[i] = v * (1 + d)
	}
	return next
}

// series returns count consecutive states of n points under p.
func (g generator) series(id int64, p profile, n, count int) [][]float64 {
	x, rng := g.initial(id, n)
	out := make([][]float64, count)
	out[0] = x
	for i := 1; i < count; i++ {
		out[i] = step(rng, p, out[i-1])
	}
	return out
}

// leBytes renders vals as the raw little-endian float64 array the
// daemon accepts as a request body.
func leBytes(vals []float64) []byte {
	var buf bytes.Buffer
	buf.Grow(8 * len(vals))
	// A bytes.Buffer does not fail a write.
	_ = rawio.NewWriter(&buf).WriteFloats(vals)
	return buf.Bytes()
}

// fromLE parses a raw little-endian float64 array.
func fromLE(b []byte) ([]float64, error) {
	r, err := rawio.NewReader(bytes.NewReader(b), int64(len(b)))
	if err != nil {
		return nil, err
	}
	vals := make([]float64, r.Len())
	return vals, r.ReadFloats(vals, 0)
}
