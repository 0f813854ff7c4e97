// Command experiments regenerates the tables and figures of the
// NUMARCK paper's evaluation section (§III) on the synthetic FLASH and
// CMIP5 substitutes. Each experiment prints the rows/series the paper
// reports; EXPERIMENTS.md records paper-vs-measured.
//
// Usage:
//
//	experiments -exp all            # everything (the EXPERIMENTS.md run)
//	experiments -exp fig4 -iters 60
//	experiments -exp table1 -iters 50
package main

import (
	"flag"
	"fmt"
	"os"

	"numarck/internal/experiments"
)

func main() {
	exp := flag.String("exp", "all", "fig1|fig3|fig4|fig5|fig6|fig7|table1|table2|fig8|ablations|scaling|all")
	iters := flag.Int("iters", 0, "iterations per experiment (0 = per-experiment paper default)")
	seed := flag.Int64("seed", experiments.DefaultSeed, "workload seed")
	flag.Parse()

	if err := run(*exp, *iters, *seed); err != nil {
		fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
		os.Exit(1)
	}
}

// pick returns the user-requested iteration count or the experiment's
// paper default.
func pick(iters, def int) int {
	if iters > 0 {
		return iters
	}
	return def
}

func run(exp string, iters int, seed int64) error {
	out := os.Stdout
	all := exp == "all"
	any := false

	if all || exp == "fig1" {
		any = true
		res, err := experiments.RunFig1(seed)
		if err != nil {
			return err
		}
		if err := res.WriteText(out); err != nil {
			return err
		}
		fmt.Fprintln(out)
	}
	if all || exp == "fig3" {
		any = true
		res, err := experiments.RunFig3(seed)
		if err != nil {
			return err
		}
		if err := res.WriteText(out); err != nil {
			return err
		}
		fmt.Fprintln(out)
	}
	if all || exp == "fig4" {
		any = true
		res, err := experiments.RunFig4(pick(iters, 60), seed)
		if err != nil {
			return err
		}
		if err := res.WriteText(out); err != nil {
			return err
		}
		fmt.Fprintln(out)
	}
	if all || exp == "fig5" {
		any = true
		res, err := experiments.RunFig5(pick(iters, 40), seed)
		if err != nil {
			return err
		}
		if err := res.WriteText(out); err != nil {
			return err
		}
		fmt.Fprintln(out)
	}
	if all || exp == "fig6" {
		any = true
		res, err := experiments.RunFig6(pick(iters, 100), seed)
		if err != nil {
			return err
		}
		if err := res.WriteText(out); err != nil {
			return err
		}
		fmt.Fprintln(out)
	}
	if all || exp == "fig7" {
		any = true
		res, err := experiments.RunFig7(pick(iters, 60), seed)
		if err != nil {
			return err
		}
		if err := res.WriteText(out); err != nil {
			return err
		}
		fmt.Fprintln(out)
	}
	if all || exp == "table1" || exp == "table2" {
		any = true
		res, err := experiments.RunTables(experiments.TableConfig{Iterations: pick(iters, 50), Seed: seed})
		if err != nil {
			return err
		}
		if all || exp == "table1" {
			if err := res.WriteTable1(out); err != nil {
				return err
			}
			fmt.Fprintln(out)
		}
		if all || exp == "table2" {
			if err := res.WriteTable2(out); err != nil {
				return err
			}
			fmt.Fprintln(out)
		}
	}
	if all || exp == "fig8" {
		any = true
		res, err := experiments.RunFig8(experiments.Fig8Config{Seed: seed})
		if err != nil {
			return err
		}
		if err := res.WriteText(out); err != nil {
			return err
		}
		fmt.Fprintln(out, "summary:")
		if err := res.WriteSummary(out); err != nil {
			return err
		}
		fmt.Fprintln(out)
	}
	if all || exp == "ablations" {
		any = true
		n := pick(iters, 20)
		seeding, err := experiments.RunSeedingAblation(n, seed)
		if err != nil {
			return err
		}
		if err := seeding.WriteText(out); err != nil {
			return err
		}
		fmt.Fprintln(out)
		zero, err := experiments.RunZeroIndexAblation(n, seed)
		if err != nil {
			return err
		}
		if err := zero.WriteText(out); err != nil {
			return err
		}
		fmt.Fprintln(out)
		fpcRes, err := experiments.RunFPCPostPass(n, seed)
		if err != nil {
			return err
		}
		if err := fpcRes.WriteText(out); err != nil {
			return err
		}
		fmt.Fprintln(out)
		distRes, err := experiments.RunDistributedAblation(seed)
		if err != nil {
			return err
		}
		if err := distRes.WriteText(out); err != nil {
			return err
		}
		fmt.Fprintln(out)
		lossless, err := experiments.RunLosslessComparison(seed)
		if err != nil {
			return err
		}
		if err := lossless.WriteText(out); err != nil {
			return err
		}
		fmt.Fprintln(out)
		reuse, err := experiments.RunTableReuseAblation(n, seed)
		if err != nil {
			return err
		}
		if err := reuse.WriteText(out); err != nil {
			return err
		}
		fmt.Fprintln(out)
		ext, err := experiments.RunStrategyExtension(n/2+2, seed)
		if err != nil {
			return err
		}
		if err := ext.WriteText(out); err != nil {
			return err
		}
		fmt.Fprintln(out)
	}
	if all || exp == "scaling" {
		any = true
		res, err := experiments.RunScalingExperiment(seed)
		if err != nil {
			return err
		}
		if err := res.WriteText(out); err != nil {
			return err
		}
		fmt.Fprintln(out)
	}
	if !any {
		return fmt.Errorf("unknown experiment %q", exp)
	}
	return nil
}
