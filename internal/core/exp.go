package core

import "math"

// exp is e**x computed the way math.Exp computes it on amd64 with FMA:
// the FMA path of $GOROOT/src/math/exp_amd64.s, written in Go. The
// log-scale table's representatives are exp of the bin centers, so
// their bits are file bytes; math.Exp itself picks its path from the
// CPU at run time (that assembly, a non-FMA variant of it, or the pure
// Go of other GOARCHes), and the three disagree in the last bit. This
// one gives the same bits on every CPU and GOARCH: each fused step is
// math.FMA, exact everywhere, and every other step rounds through an
// explicit float64 conversion, which the spec says no compiler may fuse
// away.
func exp(x float64) float64 {
	const (
		log2e    = 1.4426950408889634073599246810018920
		ln2U     = 0.69314718055966295651160180568695068359375
		ln2L     = 0.28235290563031577122588448175013436025525412068e-12
		overflow = 7.09782712893384e+02
	)
	switch {
	case math.IsNaN(x) || math.IsInf(x, 1):
		return x
	case math.IsInf(x, -1):
		return 0
	case x > overflow:
		return math.Inf(1)
	}
	// CVTSD2SL: round to nearest even, and the "integer indefinite"
	// MinInt32 for a value outside int32 (x far below -745).
	k := int32(math.MinInt32)
	if r := math.RoundToEven(float64(log2e * x)); r >= math.MinInt32 && r <= math.MaxInt32 {
		k = int32(r)
	}
	fk := float64(k)
	// Reduce: x - k·ln2 in two fused steps, then scale by 1/16.
	x = math.FMA(-fk, ln2U, x)
	x = math.FMA(-fk, ln2L, x)
	x = float64(x * 0.0625)
	// Taylor series of e**x - 1 in Horner form, fused.
	p := 2.4801587301587301587e-5
	for _, c := range [...]float64{
		1.9841269841269841270e-4,
		1.3888888888888888889e-3,
		8.3333333333333333333e-3,
		4.1666666666666666667e-2,
		1.6666666666666666667e-1,
		0.5,
		1.0,
	} {
		p = math.FMA(p, x, c)
	}
	x = float64(x * p)
	// Square back up four times: (e**x - 1) → (e**2x - 1) is y·(y+2).
	for range 3 {
		x = float64(x * float64(x+2))
	}
	x = math.FMA(float64(x+2), x, 1)
	// Scale by 2**k, through a subnormal step when 2**k is one.
	e := k + 0x3FF // int32 arithmetic, as the ADDL it replaces
	switch {
	case e >= 0x7FF:
		return math.Inf(1)
	case e > 0:
		return float64(x * math.Float64frombits(uint64(e)<<52))
	case e < -52:
		return 0
	}
	x = float64(x * math.Float64frombits(uint64(e+0x3FE)<<52))
	return float64(x * math.Float64frombits(1<<52))
}
