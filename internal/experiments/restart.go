package experiments

import (
	"fmt"
	"io"
	"math"
	"os"
	"text/tabwriter"

	"numarck/internal/checkpoint"
	"numarck/internal/core"
	"numarck/internal/fputil"
	"numarck/internal/sim/flash"
)

// Fig8Config parameterizes the restart experiment (§III-G): the FLASH
// simulation is checkpointed every StepsPerCheckpoint steps; for each
// restart distance d in Distances the state is reconstructed from the
// checkpoint chain (one full checkpoint + d approximated deltas), the
// simulation restarts from it and runs ContinueCheckpoints more
// checkpoints, and the accumulated error against an uninterrupted
// golden run is measured at each.
type Fig8Config struct {
	Distances           []int
	ContinueCheckpoints int
	StepsPerCheckpoint  int
	ErrorBound          float64
	IndexBits           int
	Seed                int64
	// Dir is a scratch directory for checkpoint stores; a temp dir is
	// used when empty.
	Dir string
}

func (c Fig8Config) withDefaults() Fig8Config {
	if len(c.Distances) == 0 {
		c.Distances = []int{2, 3, 4}
	}
	if c.ContinueCheckpoints <= 0 {
		c.ContinueCheckpoints = 8
	}
	if c.StepsPerCheckpoint <= 0 {
		c.StepsPerCheckpoint = 3
	}
	if c.ErrorBound <= 0 {
		c.ErrorBound = 0.001
	}
	if c.IndexBits <= 0 {
		c.IndexBits = 8
	}
	if c.Seed == 0 {
		c.Seed = DefaultSeed
	}
	return c
}

// RestartStep is the error at one continued checkpoint.
type RestartStep struct {
	CheckpointIndex int
	// MeanErr and MaxErr are relative errors vs. the golden run,
	// aggregated over the paper's plotted variables (fractions).
	MeanErr map[string]float64
	MaxErr  map[string]float64
}

// RestartRun is one restart distance's trajectory.
type RestartRun struct {
	Distance int
	Steps    []RestartStep
}

// Fig8Strategy is one strategy's full restart experiment.
type Fig8Strategy struct {
	Strategy core.Strategy
	Runs     []RestartRun
}

// Fig8Result reproduces Fig. 8.
type Fig8Result struct {
	Cfg        Fig8Config
	Variables  []string
	Strategies []Fig8Strategy
}

// fig8Variables are the variables the paper plots in Fig. 8. In this
// substitute's gamma-law EOS, temp is exactly proportional to eint, so
// that pair tracks identically (the paper observes the same effect for
// pres/temp in its FLASH build).
var fig8Variables = []string{"dens", "pres", "temp", "eint", "velx"}

// RunFig8 executes the restart experiment for all three strategies.
func RunFig8(cfg Fig8Config) (*Fig8Result, error) {
	cfg = cfg.withDefaults()
	maxDist := 0
	for _, d := range cfg.Distances {
		if d <= 0 {
			return nil, fmt.Errorf("experiments: restart distance %d must be positive", d)
		}
		if d > maxDist {
			maxDist = d
		}
	}
	totalCkpts := maxDist + cfg.ContinueCheckpoints + 1

	// Golden uninterrupted run.
	golden, err := FLASHRunCached(totalCkpts, cfg.StepsPerCheckpoint, cfg.Seed)
	if err != nil {
		return nil, err
	}

	res := &Fig8Result{Cfg: cfg, Variables: fig8Variables}
	for _, strat := range core.Strategies {
		fs, err := runFig8Strategy(cfg, golden, strat)
		if err != nil {
			return nil, err
		}
		res.Strategies = append(res.Strategies, *fs)
	}
	return res, nil
}

func runFig8Strategy(cfg Fig8Config, golden []*flash.Snapshot, strat core.Strategy) (_ *Fig8Strategy, err error) {
	dir := cfg.Dir
	if dir == "" {
		var err error
		dir, err = os.MkdirTemp("", "numarck-fig8-")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(dir)
	}
	opt := core.Options{ErrorBound: cfg.ErrorBound, IndexBits: cfg.IndexBits, Strategy: strat}
	st, err := checkpoint.Create(fmt.Sprintf("%s/%s", dir, strat), opt)
	if err != nil {
		return nil, err
	}
	defer func() {
		if cerr := st.Close(); err == nil {
			err = cerr
		}
	}()
	// Write the checkpoint chain: full at index 0, deltas after, each
	// delta encoded against the TRUE previous checkpoint — the paper's
	// in-situ layout, kept on purpose so that Fig. 8's "farther restart,
	// higher error" is reproduced. This is the only open-loop writer in
	// the repo; checkpoint.Writer predicts from its own reconstruction
	// and its restart error does not grow with distance.
	maxDist := 0
	for _, d := range cfg.Distances {
		if d > maxDist {
			maxDist = d
		}
	}
	for i := 0; i <= maxDist; i++ {
		for v, data := range golden[i].Vars {
			if i == 0 {
				err = st.WriteFull(v, i, data)
			} else {
				_, err = st.WriteDelta(v, i, golden[i-1].Vars[v], data)
			}
			if err != nil {
				return nil, fmt.Errorf("write checkpoint %d of %s: %w", i, v, err)
			}
		}
	}

	fs := &Fig8Strategy{Strategy: strat}
	for _, d := range cfg.Distances {
		run, err := runFig8Restart(cfg, golden, st, d)
		if err != nil {
			return nil, fmt.Errorf("strategy %s distance %d: %w", strat, d, err)
		}
		fs.Runs = append(fs.Runs, *run)
	}
	return fs, nil
}

func runFig8Restart(cfg Fig8Config, golden []*flash.Snapshot, st *checkpoint.Store, dist int) (*RestartRun, error) {
	// Reconstruct every variable at checkpoint `dist` from the store.
	recVars := map[string][]float64{}
	for _, v := range flash.Variables {
		data, err := st.Restart(v, dist)
		if err != nil {
			return nil, err
		}
		recVars[v] = data
	}
	snap := &flash.Snapshot{
		Step: golden[dist].Step,
		Time: golden[dist].Time,
		Vars: recVars,
	}
	sim, err := flash.New(flash.Config{Seed: cfg.Seed})
	if err != nil {
		return nil, err
	}
	if err := sim.Restart(snap); err != nil {
		return nil, err
	}

	run := &RestartRun{Distance: dist}
	for k := 1; k <= cfg.ContinueCheckpoints; k++ {
		sim.StepN(cfg.StepsPerCheckpoint)
		got := sim.Checkpoint()
		want := golden[dist+k]
		step := RestartStep{
			CheckpointIndex: dist + k,
			MeanErr:         map[string]float64{},
			MaxErr:          map[string]float64{},
		}
		for _, v := range fig8Variables {
			mean, max := relativeErrors(want.Vars[v], got.Vars[v])
			step.MeanErr[v] = mean
			step.MaxErr[v] = max
		}
		run.Steps = append(run.Steps, step)
	}
	return run, nil
}

// relativeErrors returns mean and max |got-want| relative to the
// golden field's magnitude scale. Per-point division would explode on
// near-zero velocities, so errors are normalized by max(|want[i]|,
// 1e-3·max|want|) as is standard for field comparisons.
func relativeErrors(want, got []float64) (mean, max float64) {
	var fieldScale float64
	for _, w := range want {
		if a := math.Abs(w); a > fieldScale {
			fieldScale = a
		}
	}
	floor := 1e-3 * fieldScale
	if fputil.IsZero(floor) {
		floor = 1e-300
	}
	var sum float64
	for i := range want {
		scale := math.Abs(want[i])
		if scale < floor {
			scale = floor
		}
		rel := math.Abs(got[i]-want[i]) / scale
		sum += rel
		if rel > max {
			max = rel
		}
	}
	return sum / float64(len(want)), max
}

// WriteText renders the restart trajectories.
func (r *Fig8Result) WriteText(w io.Writer) error {
	fmt.Fprintf(w, "Fig 8: restart error vs golden run (E=%.2f%%, B=%d, %d continued checkpoints)\n",
		r.Cfg.ErrorBound*100, r.Cfg.IndexBits, r.Cfg.ContinueCheckpoints)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "  strategy\trestart dist\tcheckpoint\tvar\tmean err\tmax err")
	for _, s := range r.Strategies {
		for _, run := range s.Runs {
			for _, step := range run.Steps {
				for _, v := range r.Variables {
					fmt.Fprintf(tw, "  %s\t%d\t%d\t%s\t%.5f%%\t%.5f%%\n",
						s.Strategy, run.Distance, step.CheckpointIndex, v,
						step.MeanErr[v]*100, step.MaxErr[v]*100)
				}
			}
		}
	}
	return tw.Flush()
}

// Summary aggregates the experiment the way the paper's prose does:
// per strategy, the worst max error across all runs and the final mean
// error per restart distance.
type Fig8Summary struct {
	Strategy     core.Strategy
	WorstMaxErr  float64
	FinalMeanErr map[int]float64 // by restart distance, averaged over variables
}

// Summarize folds the trajectories into per-strategy headline numbers.
func (r *Fig8Result) Summarize() []Fig8Summary {
	out := make([]Fig8Summary, 0, len(r.Strategies))
	for _, s := range r.Strategies {
		sum := Fig8Summary{Strategy: s.Strategy, FinalMeanErr: map[int]float64{}}
		for _, run := range s.Runs {
			if len(run.Steps) == 0 {
				continue
			}
			last := run.Steps[len(run.Steps)-1]
			var acc float64
			for _, v := range r.Variables {
				acc += last.MeanErr[v]
				for _, step := range run.Steps {
					if step.MaxErr[v] > sum.WorstMaxErr {
						sum.WorstMaxErr = step.MaxErr[v]
					}
				}
			}
			sum.FinalMeanErr[run.Distance] = acc / float64(len(r.Variables))
		}
		out = append(out, sum)
	}
	return out
}

// WriteSummary renders the headline numbers.
func (r *Fig8Result) WriteSummary(w io.Writer) error {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "  strategy\tworst max err\tfinal mean err by distance")
	for _, s := range r.Summarize() {
		fmt.Fprintf(tw, "  %s\t%.5f%%\t", s.Strategy, s.WorstMaxErr*100)
		for _, d := range r.Cfg.Distances {
			fmt.Fprintf(tw, "d=%d: %.5f%%  ", d, s.FinalMeanErr[d]*100)
		}
		fmt.Fprintln(tw)
	}
	return tw.Flush()
}
