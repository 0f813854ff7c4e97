// Command flashsim runs the FLASH-like hydrodynamics simulator and
// writes its checkpoints either into a NUMARCK checkpoint store or as
// raw float64 dumps, mirroring how the paper's FLASH runs produced the
// evaluation data.
//
// Usage:
//
//	flashsim -dir ckpts -checkpoints 20 -steps 3 [-blocks 9] [-e 0.001] [-b 8] [-strategy clustering] [-full-every 10] [-seed 1]
//	flashsim -raw dumps -checkpoints 20 -steps 3
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"numarck/internal/checkpoint"
	"numarck/internal/core"
	"numarck/internal/rawio"
	"numarck/internal/sim/flash"
)

func main() {
	dir := flag.String("dir", "", "write a NUMARCK checkpoint store to this directory")
	raw := flag.String("raw", "", "write raw .f64 dumps to this directory instead")
	checkpoints := flag.Int("checkpoints", 20, "number of checkpoints to take")
	steps := flag.Int("steps", 3, "simulation steps between checkpoints")
	blocks := flag.Int("blocks", 9, "block grid size per side (blocks x blocks)")
	e := flag.Float64("e", 0.001, "error bound E as a fraction")
	b := flag.Int("b", 8, "index bits B")
	strategyName := flag.String("strategy", "clustering", "equal-width | log-scale | clustering")
	fullEvery := flag.Int("full-every", 0, "write a full checkpoint every N iterations (0: only the first)")
	seed := flag.Int64("seed", 1, "initial-condition seed")
	order2 := flag.Bool("order2", false, "use second-order (MUSCL) reconstruction")
	flag.Parse()

	if err := run(*dir, *raw, *checkpoints, *steps, *blocks, *e, *b, *strategyName, *fullEvery, *seed, *order2); err != nil {
		fmt.Fprintf(os.Stderr, "flashsim: %v\n", err)
		os.Exit(1)
	}
}

func run(dir, raw string, checkpoints, steps, blocks int, e float64, b int, strategyName string, fullEvery int, seed int64, order2 bool) (err error) {
	if (dir == "") == (raw == "") {
		return fmt.Errorf("exactly one of -dir or -raw is required")
	}
	if checkpoints < 1 || steps < 1 {
		return fmt.Errorf("-checkpoints and -steps must be >= 1")
	}
	sim, err := flash.New(flash.Config{BlocksX: blocks, BlocksY: blocks, Seed: seed, SecondOrder: order2})
	if err != nil {
		return err
	}
	fmt.Printf("running %d blocks (%d cells), %d checkpoints x %d steps\n",
		sim.Blocks(), sim.Cells(), checkpoints, steps)

	var w *checkpoint.Writer
	var st *checkpoint.Store
	if dir != "" {
		strategy, err := core.ParseStrategy(strategyName)
		if err != nil {
			return err
		}
		st, err = checkpoint.Create(dir, core.Options{ErrorBound: e, IndexBits: b, Strategy: strategy})
		if err != nil {
			return err
		}
		defer func() {
			if cerr := st.Close(); err == nil {
				err = cerr
			}
		}()
		w = checkpoint.NewWriter(st, fullEvery)
	} else if err := os.MkdirAll(raw, 0o755); err != nil {
		return err
	}

	for c := 0; c < checkpoints; c++ {
		sim.StepN(steps)
		snap := sim.Checkpoint()
		if w != nil {
			encs, err := w.Append(c, snap.Vars)
			if err != nil {
				return fmt.Errorf("checkpoint %d: %w", c, err)
			}
			if len(encs) == 0 {
				fmt.Printf("checkpoint %2d: full (lossless)\n", c)
				continue
			}
			var gsum, esum float64
			for _, enc := range encs {
				gsum += enc.Gamma()
				esum += enc.MeanErrorRate()
			}
			n := float64(len(encs))
			fmt.Printf("checkpoint %2d: delta on the restart of %d, avg incompressible %.2f%%, avg mean err %.5f%%\n",
				c, c-1, gsum/n*100, esum/n*100)
			continue
		}
		for name, vals := range snap.Vars {
			path := filepath.Join(raw, fmt.Sprintf("%s.%04d.f64", name, c))
			if err := rawio.WriteFile(path, vals); err != nil {
				return err
			}
		}
		fmt.Printf("checkpoint %2d: wrote %d raw variables\n", c, len(snap.Vars))
	}
	return nil
}
