// Command climatesim generates synthetic CMIP5-like climate iterations
// and writes them into a NUMARCK checkpoint store or as raw float64
// dumps — the substitute for the CMIP5 archive data the paper uses.
//
// Usage:
//
//	climatesim -var rlus -iters 60 -dir ckpts [-e 0.001] [-b 8] [-strategy clustering] [-seed 1]
//	climatesim -var abs550aer -iters 60 -raw dumps
//	climatesim -var rlus -iters 60 -nc rlus.nc    # netCDF classic (time, lat, lon)
//	climatesim -list
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"numarck/internal/checkpoint"
	"numarck/internal/core"
	"numarck/internal/ncdf"
	"numarck/internal/rawio"
	"numarck/internal/sim/climate"
)

func main() {
	variable := flag.String("var", "rlus", "CMIP5 variable name")
	iters := flag.Int("iters", 60, "number of iterations")
	dir := flag.String("dir", "", "write a NUMARCK checkpoint store here")
	raw := flag.String("raw", "", "write raw .f64 dumps here instead")
	nc := flag.String("nc", "", "write a netCDF classic file here instead")
	e := flag.Float64("e", 0.001, "error bound E as a fraction")
	b := flag.Int("b", 8, "index bits B")
	strategyName := flag.String("strategy", "clustering", "equal-width | log-scale | clustering")
	fullEvery := flag.Int("full-every", 0, "write a full checkpoint every N iterations (0: only the first)")
	seed := flag.Int64("seed", 1, "generator seed")
	list := flag.Bool("list", false, "list available variables and exit")
	flag.Parse()

	if *list {
		for _, s := range climate.Specs {
			kind := "daily"
			if s.StepDays > 1 {
				kind = "monthly"
			}
			fmt.Printf("%-10s base %.3g, %s\n", s.Name, s.Base, kind)
		}
		return
	}
	if err := run(*variable, *iters, *dir, *raw, *nc, *e, *b, *strategyName, *fullEvery, *seed); err != nil {
		fmt.Fprintf(os.Stderr, "climatesim: %v\n", err)
		os.Exit(1)
	}
}

func run(variable string, iters int, dir, raw, nc string, e float64, b int, strategyName string, fullEvery int, seed int64) error {
	modes := 0
	for _, m := range []string{dir, raw, nc} {
		if m != "" {
			modes++
		}
	}
	if modes != 1 {
		return fmt.Errorf("exactly one of -dir, -raw, or -nc is required")
	}
	if iters < 1 {
		return fmt.Errorf("-iters must be >= 1")
	}
	g, err := climate.NewGenerator(variable, seed)
	if err != nil {
		return err
	}
	fmt.Printf("generating %s: %d iterations of %d points\n", variable, iters, g.Points())

	if nc != "" {
		f := &ncdf.File{
			Dims: []ncdf.Dim{
				{Name: "time", Len: iters},
				{Name: "lat", Len: climate.NLat},
				{Name: "lon", Len: climate.NLon},
			},
			GlobalAttrs: []ncdf.Attr{
				{Name: "title", Text: "synthetic CMIP5-like data (NUMARCK reproduction)"},
				{Name: "resolution_deg", Doubles: []float64{2.5, 2.0}},
			},
		}
		data := make([]float64, 0, iters*climate.N)
		for i := 0; i < iters; i++ {
			data = append(data, g.Iteration(i)...)
		}
		f.Vars = []ncdf.Var{{
			Name:   variable,
			DimIDs: []int{0, 1, 2},
			Attrs:  []ncdf.Attr{{Name: "seed", Doubles: []float64{float64(seed)}}},
			Data:   data,
		}}
		if err := f.WriteFile(nc); err != nil {
			return err
		}
		fmt.Printf("wrote %s (%d timesteps) to %s\n", variable, iters, nc)
		return nil
	}

	if raw != "" {
		if err := os.MkdirAll(raw, 0o755); err != nil {
			return err
		}
		for i := 0; i < iters; i++ {
			path := filepath.Join(raw, fmt.Sprintf("%s.%04d.f64", variable, i))
			if err := rawio.WriteFile(path, g.Iteration(i)); err != nil {
				return err
			}
		}
		fmt.Printf("wrote %d raw files to %s\n", iters, raw)
		return nil
	}

	strategy, err := core.ParseStrategy(strategyName)
	if err != nil {
		return err
	}
	st, err := checkpoint.Create(dir, core.Options{ErrorBound: e, IndexBits: b, Strategy: strategy})
	if err != nil {
		return err
	}
	w := checkpoint.NewWriter(st, fullEvery)
	for i := 0; i < iters; i++ {
		encs, err := w.Append(i, map[string][]float64{variable: g.Iteration(i)})
		if err != nil {
			//lint:ignore errcheck close-on-error; the iteration error takes precedence
			st.Close()
			return fmt.Errorf("iteration %d: %w", i, err)
		}
		if enc := encs[variable]; enc != nil {
			cr, _ := enc.CompressionRatio()
			fmt.Printf("iteration %3d: delta on the restart of %d, incompressible %.2f%%, Eq.3 ratio %.2f%%\n", i, i-1, enc.Gamma()*100, cr)
		} else {
			fmt.Printf("iteration %3d: full (lossless)\n", i)
		}
	}
	return st.Close()
}
