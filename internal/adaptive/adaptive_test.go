package adaptive

import (
	"math"
	"math/rand"
	"path/filepath"
	"testing"

	"numarck/internal/checkpoint"
	"numarck/internal/core"
)

func opts() core.Options {
	return core.Options{ErrorBound: 0.001, IndexBits: 8, Strategy: core.Clustering}
}

func newStore(t *testing.T) *checkpoint.Store {
	t.Helper()
	st, err := checkpoint.Create(filepath.Join(t.TempDir(), "ck"), opts())
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// newWriter is the one checkpoint Writer under the scheduler.
func newWriter(st *checkpoint.Store, cfg Config) *checkpoint.Writer {
	return checkpoint.Scheduled(checkpoint.NewWriter(st, 0), NewScheduler(cfg).Full)
}

// kinds counts a variable's committed fulls and deltas.
func kinds(t *testing.T, st *checkpoint.Store, variable string) (fulls, deltas int) {
	t.Helper()
	entries, err := st.List(variable)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.Kind == "full" {
			fulls++
		} else {
			deltas++
		}
	}
	return fulls, deltas
}

// quietSeries changes by ~0.02 % per step: deltas should dominate.
func quietSeries(n, iters int, seed int64) [][]float64 {
	rng := rand.New(rand.NewSource(seed))
	out := make([][]float64, iters)
	out[0] = make([]float64, n)
	for j := range out[0] {
		out[0][j] = 100 + rng.Float64()*10
	}
	for i := 1; i < iters; i++ {
		out[i] = make([]float64, n)
		for j := range out[i] {
			out[i][j] = out[i-1][j] * (1 + rng.NormFloat64()*0.0002)
		}
	}
	return out
}

// turbulentSeries has most points jumping wildly: deltas barely pay.
func turbulentSeries(n, iters int, seed int64) [][]float64 {
	rng := rand.New(rand.NewSource(seed))
	out := make([][]float64, iters)
	out[0] = make([]float64, n)
	for j := range out[0] {
		out[0][j] = 100 + rng.Float64()*10
	}
	for i := 1; i < iters; i++ {
		out[i] = make([]float64, n)
		for j := range out[i] {
			out[i][j] = out[i-1][j] * math.Exp(rng.NormFloat64()*0.8)
		}
	}
	return out
}

func TestSchedulerFirstIsFull(t *testing.T) {
	// A variable's first checkpoint is full and not a decision: there is
	// no tentative delta to show the schedule.
	st := newStore(t)
	asked := 0
	w := checkpoint.Scheduled(checkpoint.NewWriter(st, 0), func(depth int, enc *core.Encoded) bool {
		asked++
		return NewScheduler(Config{}).Full(depth, enc)
	})
	series := quietSeries(200, 2, 8)
	encs, err := w.Append(0, map[string][]float64{"v": series[0]})
	if err != nil {
		t.Fatal(err)
	}
	if len(encs) != 0 || asked != 0 {
		t.Errorf("first append: %d deltas, schedule asked %d times; want a full, unasked", len(encs), asked)
	}
	if encs, err = w.Append(1, map[string][]float64{"v": series[1]}); err != nil {
		t.Fatal(err)
	}
	if encs["v"] == nil || asked != 1 {
		t.Errorf("second append: delta %v, schedule asked %d times; want a delta, asked once", encs["v"] != nil, asked)
	}
}

func TestSchedulerGammaThreshold(t *testing.T) {
	s := NewScheduler(Config{GammaThreshold: 0.4})
	if d := s.Decide(0, 0.45); !d.Full || d.Reason != ReasonGamma {
		t.Errorf("gamma decision: %+v", d)
	}
	if d := s.Decide(0, 0.39); d.Full || d.Reason != ReasonDelta {
		t.Errorf("below threshold: %+v", d)
	}
}

func TestSchedulerMaxChain(t *testing.T) {
	s := NewScheduler(Config{MaxChain: 3, GammaThreshold: 1.1})
	for depth := 0; depth < 3; depth++ {
		if d := s.Decide(depth, 0); d.Full {
			t.Errorf("depth %d: %+v, want a delta", depth, d)
		}
	}
	if d := s.Decide(3, 0); !d.Full || d.Reason != ReasonChain {
		t.Errorf("depth 3: %+v, want the chain cap", d)
	}

	// Through the Writer, which owns the depth: 3 deltas, then a full.
	st := newStore(t)
	w := newWriter(st, Config{MaxChain: 3})
	for i, data := range quietSeries(500, 9, 9) {
		encs, err := w.Append(i, map[string][]float64{"v": data})
		if err != nil {
			t.Fatal(err)
		}
		if full := encs["v"] == nil; full != (i%4 == 0) {
			t.Errorf("iteration %d: full = %v, want fulls at 0, 4, 8", i, full)
		}
	}
}

func TestWriterQuietSeriesMostlyDeltas(t *testing.T) {
	st := newStore(t)
	w := newWriter(st, Config{})
	series := quietSeries(2000, 20, 1)
	for i, data := range series {
		if _, err := w.Append(i, map[string][]float64{"v": data}); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
	if fulls, deltas := kinds(t, st, "v"); fulls != 1 || deltas != 19 {
		t.Errorf("quiet series wrote %d fulls and %d deltas, want 1 and 19", fulls, deltas)
	}
	// Everything restarts within one step's bound, 19 deltas deep or not.
	prev := series[0]
	for i := range series {
		rec, err := st.Restart("v", i)
		if err != nil {
			t.Fatalf("restart %d: %v", i, err)
		}
		for j := range rec {
			if err := math.Abs(rec[j] - series[i][j]); err > 0.001*math.Abs(prev[j])*(1+1e-9) {
				t.Fatalf("iteration %d point %d error %v exceeds E·|x̂_{i-1}|", i, j, err)
			}
		}
		prev = rec
	}
}

func TestWriterTurbulentSeriesWritesFulls(t *testing.T) {
	st := newStore(t)
	w := newWriter(st, Config{GammaThreshold: 0.5})
	series := turbulentSeries(2000, 8, 2)
	for i, data := range series {
		if _, err := w.Append(i, map[string][]float64{"v": data}); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
	if fulls, deltas := kinds(t, st, "v"); fulls < 6 {
		t.Errorf("turbulent series wrote only %d fulls (deltas %d)", fulls, deltas)
	}
}

func TestWriterMultiVariableIndependentDecisions(t *testing.T) {
	st := newStore(t)
	w := newWriter(st, Config{GammaThreshold: 0.5})
	quiet := quietSeries(1000, 6, 4)
	rough := turbulentSeries(1000, 6, 5)
	for i := 0; i < 6; i++ {
		encs, err := w.Append(i, map[string][]float64{
			"quiet": quiet[i],
			"rough": rough[i],
		})
		if err != nil {
			t.Fatal(err)
		}
		if i > 0 {
			if encs["quiet"] == nil {
				t.Errorf("iteration %d: quiet variable got a full", i)
			}
			if encs["rough"] != nil {
				t.Errorf("iteration %d: rough variable got a delta", i)
			}
		}
	}
}

func TestWriterSequenceValidation(t *testing.T) {
	st := newStore(t)
	w := newWriter(st, Config{})
	series := quietSeries(100, 3, 6)
	if _, err := w.Append(0, map[string][]float64{"v": series[0]}); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Append(2, map[string][]float64{"v": series[2]}); err == nil {
		t.Error("gap accepted")
	}
}

func TestWriterNewVariableMidRunGetsFull(t *testing.T) {
	st := newStore(t)
	w := newWriter(st, Config{})
	series := quietSeries(100, 4, 7)
	if _, err := w.Append(0, map[string][]float64{"a": series[0]}); err != nil {
		t.Fatal(err)
	}
	encs, err := w.Append(1, map[string][]float64{"a": series[1], "b": series[1]})
	if err != nil {
		t.Fatal(err)
	}
	if encs["b"] != nil {
		t.Error("new variable got a delta")
	}
	if encs["a"] == nil {
		t.Error("existing variable got a full")
	}
}

func TestConfigDefaults(t *testing.T) {
	c := Config{}.withDefaults()
	if c.GammaThreshold != 0.5 || c.MaxChain != 64 {
		t.Errorf("defaults: %+v", c)
	}
}
