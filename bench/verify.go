package main

import "math"

// boundSlack absorbs floating-point rounding in the bound arithmetic:
// the codec guarantees |r̂ − r| ≤ E on the change ratio, and turning
// that into a bound on values costs a few ulps.
const boundSlack = 1 + 1e-9

// inf is the error ÷ bound of an output that could not be compared.
var inf = math.Inf(1)

// stepErrOverBound is the bound of one decoded delta: every point of
// got must lie within E·|prev| of cur, where prev is the state the
// delta was decoded onto. It returns the worst error ÷ bound; a length
// mismatch is +Inf.
func stepErrOverBound(got, cur, prev []float64, e float64) float64 {
	if len(got) != len(cur) || len(prev) != len(cur) {
		return inf
	}
	worst := 0.0
	for i, x := range cur {
		if err := math.Abs(got[i] - x); err > 0 {
			worst = math.Max(worst, err/(e*math.Abs(prev[i])*boundSlack))
		}
	}
	return worst
}

// exactErr is the bound of a lossless path (a full checkpoint): 0 when
// got equals want bit for bit, +Inf otherwise.
func exactErr(got, want []float64) float64 {
	if len(got) != len(want) {
		return inf
	}
	for i, x := range want {
		if math.Float64bits(got[i]) != math.Float64bits(x) {
			return inf
		}
	}
	return 0
}

// chainBound tracks, per point, the error a library restart chain may
// have accumulated: the Writer encodes each delta against the true
// previous state and a restart replays it onto the reconstructed one,
// so at depth d below the last full checkpoint
//
//	|x̂_d/x_d − 1| ≤ Π_{i≤d} (1 + E·|x_{i−1}/x_i|) − 1.
//
// prod holds the product; a full checkpoint resets it to 1.
type chainBound struct {
	e    float64
	prod []float64
}

// reset starts a new chain of n points at a full checkpoint.
func (c *chainBound) reset(n int) {
	if len(c.prod) != n {
		c.prod = make([]float64, n)
	}
	for i := range c.prod {
		c.prod[i] = 1
	}
}

// step extends the chain by the delta prev → cur.
func (c *chainBound) step(prev, cur []float64) {
	for i := range c.prod {
		c.prod[i] *= 1 + c.e*math.Abs(prev[i]/cur[i])
	}
}

// clone returns a copy that later steps do not change.
func (c *chainBound) clone() *chainBound {
	return &chainBound{e: c.e, prod: append([]float64(nil), c.prod...)}
}

// errOverBound returns the worst error ÷ bound of got against the true
// state; at depth 0 the restart must be exact.
func (c *chainBound) errOverBound(got, truth []float64) float64 {
	if len(got) != len(truth) || len(c.prod) != len(truth) {
		return inf
	}
	worst := 0.0
	for i, x := range truth {
		if err := math.Abs(got[i]/x - 1); err > 0 {
			worst = math.Max(worst, err/((c.prod[i]-1)*boundSlack))
		}
	}
	return worst
}
