package runner

import (
	"errors"
	"math"
	"math/rand"
	"path/filepath"
	"testing"

	"numarck/internal/adaptive"
	"numarck/internal/anomaly"
	"numarck/internal/checkpoint"
	"numarck/internal/core"
)

// toySim is a deterministic two-variable simulation: each variable
// drifts multiplicatively per step, derived from a counter so State is
// a pure function of the step.
type toySim struct {
	step    int
	n       int
	corrupt func(step int, state map[string][]float64) // optional fault hook
	failAt  int                                        // Advance error injection (0 = never)
}

func newToySim(n int) *toySim { return &toySim{n: n} }

func (s *toySim) Advance() error {
	if s.failAt > 0 && s.step+1 >= s.failAt {
		return errors.New("toy sim crashed")
	}
	s.step++
	return nil
}

func (s *toySim) value(varIdx, step, j int) float64 {
	base := 100 + float64(varIdx)*50 + float64(j%17)
	// ~1 % drift per step: far above NUMARCK's accumulated 0.1 %-bound
	// error, so Restore can identify the step unambiguously.
	drift := 1 + 0.01*math.Sin(float64(step)*0.3+float64(j)*0.01)
	return base * math.Pow(drift, float64(step))
}

func (s *toySim) State() map[string][]float64 {
	out := map[string][]float64{}
	for vi, name := range []string{"alpha", "beta"} {
		data := make([]float64, s.n)
		for j := range data {
			data[j] = s.value(vi, s.step, j)
		}
		out[name] = data
	}
	if s.corrupt != nil {
		s.corrupt(s.step, out)
	}
	return out
}

func (s *toySim) Restore(state map[string][]float64) error {
	if _, ok := state["alpha"]; !ok {
		return errors.New("missing alpha")
	}
	// The toy sim is a pure function of step; restoring means
	// recovering the step from the (approximated) data. Identify the
	// step by nearest fit over a handful of points, so NUMARCK's
	// bounded reconstruction error cannot mislead it.
	probe := state["alpha"]
	nProbe := 50
	if nProbe > len(probe) {
		nProbe = len(probe)
	}
	bestStep, bestSSE := -1, math.Inf(1)
	for step := 0; step < 200; step++ {
		var sse float64
		for j := 0; j < nProbe; j++ {
			d := (s.value(0, step, j) - probe[j]) / probe[j]
			sse += d * d
		}
		if sse < bestSSE {
			bestStep, bestSSE = step, sse
		}
	}
	if bestStep < 0 || bestSSE > 1e-2 {
		return errors.New("state does not match any step")
	}
	s.step = bestStep
	return nil
}

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

func TestRunFixedMode(t *testing.T) {
	st := newStore(t)
	r := New(newToySim(500), st, Config{FullEvery: 4})
	rep, err := r.Run(10)
	if err != nil {
		t.Fatal(err)
	}
	if rep.FirstIteration != 0 || rep.LastIteration != 9 {
		t.Errorf("iteration range [%d,%d]", rep.FirstIteration, rep.LastIteration)
	}
	// Fulls at 0, 4, 8 for both variables.
	if rep.Fulls != 6 {
		t.Errorf("fulls = %d, want 6", rep.Fulls)
	}
	if rep.Deltas != 14 {
		t.Errorf("deltas = %d, want 14", rep.Deltas)
	}
	// Everything restores.
	for _, v := range []string{"alpha", "beta"} {
		if _, err := st.Restart(v, 9); err != nil {
			t.Errorf("restart %s: %v", v, err)
		}
	}
}

func TestRunAdaptiveMode(t *testing.T) {
	st := newStore(t)
	cfg := adaptive.Config{}
	r := New(newToySim(500), st, Config{Adaptive: &cfg})
	rep, err := r.Run(8)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Fulls < 2 { // at least the mandatory firsts
		t.Errorf("fulls = %d", rep.Fulls)
	}
	if rep.Fulls+rep.Deltas != 16 {
		t.Errorf("total checkpoints = %d, want 16", rep.Fulls+rep.Deltas)
	}
}

func TestRunRejectsBadIterations(t *testing.T) {
	st := newStore(t)
	r := New(newToySim(10), st, Config{})
	if _, err := r.Run(0); err == nil {
		t.Error("zero iterations accepted")
	}
}

func TestRunPropagatesAdvanceError(t *testing.T) {
	st := newStore(t)
	sim := newToySim(100)
	sim.failAt = 3
	r := New(sim, st, Config{})
	rep, err := r.Run(10)
	if err == nil {
		t.Fatal("crash not propagated")
	}
	if rep.LastIteration != 1 {
		t.Errorf("last completed iteration %d, want 1", rep.LastIteration)
	}
}

func TestCrashRecoverContinue(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "ck")
	st, err := checkpoint.Create(dir, opts())
	if err != nil {
		t.Fatal(err)
	}
	// Phase 1: run 6 iterations, then "crash" (drop the runner).
	sim1 := newToySim(400)
	r1 := New(sim1, st, Config{FullEvery: 0})
	if _, err := r1.Run(6); err != nil {
		t.Fatal(err)
	}
	// The "crash" drops the runner; release the writer lock as a real
	// process death would.
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	// Phase 2: fresh store handle, fresh sim, recover.
	st2, err := checkpoint.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	sim2 := newToySim(400)
	r2 := New(sim2, st2, Config{FullEvery: 0})
	recovered, err := r2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if recovered != 5 {
		t.Errorf("recovered at %d, want 5", recovered)
	}
	// Checkpoint iteration i holds the state after advance i+1, so
	// recovering iteration 5 restores sim step 6.
	if sim2.step != 6 {
		t.Errorf("sim restored to step %d, want 6", sim2.step)
	}
	if r2.NextIteration() != 6 {
		t.Errorf("next iteration %d", r2.NextIteration())
	}
	// Continue: the chain must extend seamlessly.
	rep, err := r2.Run(4)
	if err != nil {
		t.Fatal(err)
	}
	if rep.LastIteration != 9 {
		t.Errorf("continued to %d", rep.LastIteration)
	}
	// The full 10-iteration history restores and matches the golden
	// trajectory within the accumulated bound.
	golden := newToySim(400)
	for i := 0; i < 10; i++ {
		golden.Advance()
	}
	want := golden.State()
	got, err := st2.Restart("alpha", 9)
	if err != nil {
		t.Fatal(err)
	}
	for j := range got {
		rel := math.Abs(got[j]-want["alpha"][j]) / want["alpha"][j]
		if rel > 0.02 {
			t.Fatalf("point %d relative error %v after crash-recover-continue", j, rel)
		}
	}
}

func TestRecoverAdaptiveMode(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "ck")
	st, err := checkpoint.Create(dir, opts())
	if err != nil {
		t.Fatal(err)
	}
	cfg := adaptive.Config{}
	r1 := New(newToySim(300), st, Config{Adaptive: &cfg})
	if _, err := r1.Run(5); err != nil {
		t.Fatal(err)
	}
	sim2 := newToySim(300)
	r2 := New(sim2, st, Config{Adaptive: &cfg})
	recovered, err := r2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if recovered != 4 {
		t.Errorf("recovered %d", recovered)
	}
	rep, err := r2.Run(3)
	if err != nil {
		t.Fatal(err)
	}
	// The recovered state is the prediction reference, so the chain
	// simply continues: no full checkpoint is forced.
	if rep.Fulls != 0 || rep.Deltas != 6 {
		t.Errorf("post-recovery: %d fulls, %d deltas, want 0 and 6", rep.Fulls, rep.Deltas)
	}
}

// TestRecoverContinuesChainWithinBound is the resume contract: Recover
// hands the Writer what Restart returned, so a crash → Recover →
// continue chain needs no forced full and every later iteration
// restarts within the one bound, E·|x̂_{i-1}| per point — and the
// scheduler's chain cap counts the deltas written before the crash.
func TestRecoverContinuesChainWithinBound(t *testing.T) {
	for name, cfg := range map[string]Config{
		"fixed":    {},
		"adaptive": {Adaptive: &adaptive.Config{MaxChain: 8}},
	} {
		t.Run(name, func(t *testing.T) {
			dir := filepath.Join(t.TempDir(), "ck")
			st, err := checkpoint.Create(dir, opts())
			if err != nil {
				t.Fatal(err)
			}
			if _, err := New(newToySim(400), st, cfg).Run(6); err != nil {
				t.Fatal(err)
			}
			if err := st.Close(); err != nil {
				t.Fatal(err)
			}
			if st, err = checkpoint.Open(dir); err != nil {
				t.Fatal(err)
			}
			r := New(newToySim(400), st, cfg)
			if _, err := r.Recover(); err != nil {
				t.Fatal(err)
			}
			if _, err := r.Run(6); err != nil {
				t.Fatal(err)
			}

			// Iteration i holds the toy state after advance i+1.
			truth := newToySim(400)
			for _, v := range []string{"alpha", "beta"} {
				entries, err := st.List(v)
				if err != nil {
					t.Fatal(err)
				}
				var prev []float64
				for i, e := range entries {
					// Delta 9 would be the ninth of its chain: the cap of 8
					// counts the five deltas written before the crash.
					wantFull := i == 0 || cfg.Adaptive != nil && i == 9
					if e.Iteration != i || (e.Kind == "full") != wantFull {
						t.Fatalf("%s: entry %d is %s@%d, want full = %v", v, i, e.Kind, e.Iteration, wantFull)
					}
					truth.step = i + 1
					want := truth.State()[v]
					got, err := st.Restart(v, i)
					if err != nil {
						t.Fatal(err)
					}
					for j := range got {
						bound := 0.0
						if !wantFull {
							bound = 0.001 * math.Abs(prev[j]) * (1 + 1e-9)
						}
						if d := math.Abs(got[j] - want[j]); d > bound {
							t.Fatalf("%s@%d point %d: error %g exceeds E·|x̂_{i-1}| = %g", v, i, j, d, bound)
						}
					}
					prev = got
				}
				if len(entries) != 12 {
					t.Errorf("%s: %d entries, want 12", v, len(entries))
				}
			}
		})
	}
}

func TestRecoverEmptyStore(t *testing.T) {
	st := newStore(t)
	r := New(newToySim(10), st, Config{})
	if _, err := r.Recover(); !errors.Is(err, checkpoint.ErrNotFound) {
		t.Errorf("empty store recover: %v", err)
	}
}

func TestMonitorCatchesInjectedCorruption(t *testing.T) {
	st := newStore(t)
	sim := newToySim(2000)
	rng := rand.New(rand.NewSource(1))
	sim.corrupt = func(step int, state map[string][]float64) {
		if step == 7 {
			idx := rng.Intn(2000)
			if _, err := anomaly.InjectBitFlip(state["alpha"], idx, 61); err != nil {
				panic(err)
			}
		}
	}
	mon := anomaly.Config{}
	r := New(sim, st, Config{Monitor: &mon})
	rep, err := r.Run(10)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, ev := range rep.Anomalies {
		if ev.Variable == "alpha" && ev.Iteration == 7 && ev.FlaggedCount > 0 {
			found = true
		}
	}
	if !found {
		t.Errorf("injected corruption not reported: %+v", rep.Anomalies)
	}
}

func TestHaltOnAnomaly(t *testing.T) {
	st := newStore(t)
	sim := newToySim(2000)
	sim.corrupt = func(step int, state map[string][]float64) {
		if step == 6 {
			if _, err := anomaly.InjectBitFlip(state["beta"], 123, 62); err != nil {
				panic(err)
			}
		}
	}
	mon := anomaly.Config{}
	r := New(sim, st, Config{Monitor: &mon, HaltOnAnomaly: true})
	_, err := r.Run(10)
	if !errors.Is(err, ErrAnomaly) {
		t.Errorf("halt error = %v", err)
	}
}

func TestCleanRunNoAnomalies(t *testing.T) {
	st := newStore(t)
	mon := anomaly.Config{}
	r := New(newToySim(2000), st, Config{Monitor: &mon})
	rep, err := r.Run(10)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Anomalies) != 0 {
		t.Errorf("clean run reported anomalies: %+v", rep.Anomalies)
	}
}
