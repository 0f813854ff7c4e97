// Package runner is the checkpoint/restart orchestration layer the
// paper's introduction asks for ("How do we engineer scalable software
// for storing, replaying, and restarting simulations?", §I Q6). It
// drives any iterative Simulator, writes NUMARCK checkpoints after
// every iteration — on a fixed full-checkpoint period, with the
// adaptive scheduler adding fulls where deltas stop paying — optionally
// screens each checkpoint for silent data corruption before it is
// persisted, and recovers a crashed simulation from the latest
// restorable iteration in the store.
package runner

import (
	"errors"
	"fmt"

	"numarck/internal/adaptive"
	"numarck/internal/anomaly"
	"numarck/internal/checkpoint"
)

// Simulator is an iterative simulation the runner can drive.
// Implementations adapt concrete codes (e.g. the FLASH-like solver) to
// the runner.
type Simulator interface {
	// Advance runs the simulation to its next checkpoint boundary.
	Advance() error
	// State returns the current value arrays of every variable. The
	// runner does not mutate the returned slices.
	State() map[string][]float64
	// Restore overwrites the simulation state from value arrays (the
	// inverse of State; values may be NUMARCK reconstructions).
	Restore(state map[string][]float64) error
}

// Config configures a Runner.
type Config struct {
	// FullEvery is the fixed full-checkpoint period. <= 0 means only
	// the first checkpoint is full.
	FullEvery int
	// Adaptive lets the dynamic scheduler with this configuration turn
	// further checkpoints into fulls, per variable.
	Adaptive *adaptive.Config
	// Monitor enables SDC screening of every checkpoint with this
	// anomaly-detector configuration (one detector per variable).
	Monitor *anomaly.Config
	// HaltOnAnomaly stops Run with ErrAnomaly instead of recording
	// the report and continuing.
	HaltOnAnomaly bool
}

// ErrAnomaly reports that the monitor flagged a checkpoint and the
// runner was configured to halt.
var ErrAnomaly = errors.New("runner: anomaly detected")

// AnomalyEvent records a monitor hit during Run.
type AnomalyEvent struct {
	Iteration    int
	Variable     string
	FlaggedCount int
	Divergence   float64
	Alarm        bool
}

// Report summarizes a Run call.
type Report struct {
	// FirstIteration and LastIteration bound the checkpoints written.
	FirstIteration, LastIteration int
	// Fulls and Deltas count checkpoint kinds across variables.
	Fulls, Deltas int
	// Anomalies lists monitor hits.
	Anomalies []AnomalyEvent
}

// Runner drives a Simulator against a checkpoint store.
type Runner struct {
	sim  Simulator
	st   *checkpoint.Store
	cfg  Config
	next int // next iteration index to write
	w    *checkpoint.Writer
	mons map[string]*anomaly.Detector
	last map[string][]float64
}

// New creates a runner writing into st starting at iteration 0.
func New(sim Simulator, st *checkpoint.Store, cfg Config) *Runner {
	r := &Runner{
		sim:  sim,
		st:   st,
		cfg:  cfg,
		mons: map[string]*anomaly.Detector{},
		last: map[string][]float64{},
	}
	r.w = r.scheduled(checkpoint.NewWriter(st, cfg.FullEvery))
	return r
}

// scheduled applies the configured scheduler, if any, to w.
func (r *Runner) scheduled(w *checkpoint.Writer) *checkpoint.Writer {
	if r.cfg.Adaptive == nil {
		return w
	}
	return checkpoint.Scheduled(w, adaptive.NewScheduler(*r.cfg.Adaptive).Full)
}

// NextIteration returns the iteration index the next checkpoint will
// use.
func (r *Runner) NextIteration() int { return r.next }

// Run advances the simulation `iterations` times, checkpointing after
// each advance. It returns a report of what was written.
func (r *Runner) Run(iterations int) (*Report, error) {
	if iterations < 1 {
		return nil, fmt.Errorf("runner: iterations must be >= 1, got %d", iterations)
	}
	rep := &Report{FirstIteration: r.next}
	for k := 0; k < iterations; k++ {
		if err := r.sim.Advance(); err != nil {
			return rep, fmt.Errorf("runner: advance at iteration %d: %w", r.next, err)
		}
		state := r.sim.State()

		if r.cfg.Monitor != nil {
			if err := r.screen(state, rep); err != nil {
				return rep, err
			}
		}
		if err := r.write(state, rep); err != nil {
			return rep, err
		}
		for v, data := range state {
			r.last[v] = append(r.last[v][:0], data...)
		}
		rep.LastIteration = r.next
		r.next++
	}
	return rep, nil
}

// screen feeds the state to the per-variable anomaly detectors.
func (r *Runner) screen(state map[string][]float64, rep *Report) error {
	for v, data := range state {
		prev, ok := r.last[v]
		if !ok {
			continue // first sight of this variable
		}
		det := r.mons[v]
		if det == nil {
			det = anomaly.New(*r.cfg.Monitor)
			r.mons[v] = det
		}
		arep, err := det.Observe(prev, data)
		if err != nil {
			return fmt.Errorf("runner: monitor %s@%d: %w", v, r.next, err)
		}
		if len(arep.Flagged) > 0 || arep.DistributionAlarm {
			rep.Anomalies = append(rep.Anomalies, AnomalyEvent{
				Iteration:    r.next,
				Variable:     v,
				FlaggedCount: len(arep.Flagged),
				Divergence:   arep.Divergence,
				Alarm:        arep.DistributionAlarm,
			})
			if r.cfg.HaltOnAnomaly {
				return fmt.Errorf("%w: %s@%d (%d points, JS %.4f)",
					ErrAnomaly, v, r.next, len(arep.Flagged), arep.Divergence)
			}
		}
	}
	return nil
}

// write persists the state through the writer.
func (r *Runner) write(state map[string][]float64, rep *Report) error {
	encs, err := r.w.Append(r.next, state)
	if err != nil {
		return err
	}
	rep.Deltas += len(encs)
	rep.Fulls += len(state) - len(encs)
	return nil
}

// Recover finds the latest iteration every variable can be
// reconstructed at, restores the simulation from it, and positions the
// runner to continue writing at the following iteration. It returns
// the recovered iteration. Use it on a fresh Runner over an existing
// store after a crash.
func (r *Runner) Recover() (int, error) {
	vars, err := r.st.Variables()
	if err != nil {
		return 0, err
	}
	if len(vars) == 0 {
		return 0, fmt.Errorf("runner: store is empty: %w", checkpoint.ErrNotFound)
	}
	target := -1
	for _, v := range vars {
		latest, err := r.st.LatestRestorable(v)
		if err != nil {
			return 0, err
		}
		if target < 0 || latest < target {
			target = latest
		}
	}
	state := make(map[string][]float64, len(vars))
	for _, v := range vars {
		data, err := r.st.Restart(v, target)
		if err != nil {
			return 0, err
		}
		state[v] = data
	}
	if err := r.sim.Restore(state); err != nil {
		return 0, fmt.Errorf("runner: restore at iteration %d: %w", target, err)
	}
	for v, data := range state {
		r.last[v] = append([]float64(nil), data...)
	}
	r.next = target + 1
	// The recovered state is what Restart returned, which is exactly the
	// Writer's prediction reference: the chain continues with deltas.
	r.w = r.scheduled(checkpoint.NewWriterAt(r.st, r.cfg.FullEvery, target, state))
	return target, nil
}
