package core

import (
	"math"
	"testing"
)

// TestExpBits pins exp to recorded bits: those of the FMA path of
// amd64's math.Exp, which are the log-scale representatives
// TestEncodeGoldenBytes holds. The rows cover the bin-center range the
// log-scale table uses, the special values, the early overflow of that
// path (709.78 is +Inf there, finite in pure Go), the subnormal results
// below −708 and the underflow to zero below −745. Several rows are
// ones where math.Exp answers differently on 386 or without FMA; this
// test runs unchanged under GOARCH=386 and GODEBUG=cpu.fma=off.
func TestExpBits(t *testing.T) {
	cases := []struct {
		x    float64
		bits uint64
	}{
		{0, 0x3ff0000000000000},
		{math.Copysign(0, -1), 0x3ff0000000000000},
		{1, 0x4005bf0a8b145769},
		{-1, 0x3fd78b56362cef38},
		{0.5, 0x3ffa61298e1e069c},
		{1e-300, 0x3ff0000000000000},
		{-1e-300, 0x3ff0000000000000},
		{2.302585092994046, 0x4024000000000001},
		{-2.302585092994046, 0x3fb9999999999998},
		{-6.907755278982137, 0x3f50624dd2f1a9fd},
		{-4.605170185988091, 0x3f847ae147ae147e},
		{-0.0009995003330835331, 0x3feff7d0f16c2e09},
		{0.0009995003330835331, 0x3ff004189374bc6a},
		{-13.815510557964274, 0x3eb0c6f7a0b5ed8f},
		{3.7, 0x4044394144eeec81},
		{-17.49143251252079, 0x3e5b31920093bb57},
		{156.99043196942932, 0x4e1675e2d938a2af},
		{-28.73922981068835, 0x3d573b735bda7bfd},
		{709.78, 0x7ff0000000000000},
		{709.782712893384, 0x7ff0000000000000},
		{709.7827128933841, 0x7ff0000000000000},
		{710, 0x7ff0000000000000},
		{1e10, 0x7ff0000000000000},
		{-708, 0x0017c8ab2288c9ab},
		{-708.3964185322641, 0x001000000000007c},
		{-708.4, 0x000ff15b469edf89},
		{-709, 0x0008bfe55de02338},
		{-720.5, 0x00000005cf08fff0},
		{-744.4400719213812, 0x0000000000000001},
		{-745.1332191019411, 0x0000000000000001},
		{-745.1332191019412, 0},
		{-746, 0},
		{-800, 0},
		{-1e10, 0},
		{-1e300, 0},
		{math.Inf(1), 0x7ff0000000000000},
		{math.Inf(-1), 0},
	}
	for _, c := range cases {
		if got := math.Float64bits(exp(c.x)); got != c.bits {
			t.Errorf("exp(%v) = %#016x (%v), want %#016x (%v)", c.x, got, exp(c.x), c.bits, math.Float64frombits(c.bits))
		}
	}
	if got := exp(math.NaN()); !math.IsNaN(got) {
		t.Errorf("exp(NaN) = %v, want NaN", got)
	}
}
