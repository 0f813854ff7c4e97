// resilience is the full end-to-end demonstration of what NUMARCK is
// for (§I Q6): a simulation runs under the checkpoint/restart runner
// with adaptive scheduling and silent-data-corruption screening,
// crashes mid-flight, and is recovered from the compressed checkpoint
// store to finish the run.
//
// Run with: go run ./examples/resilience
package main

import (
	"fmt"
	"log"
	"os"

	"numarck"
	"numarck/internal/adaptive"
	"numarck/internal/anomaly"
	"numarck/internal/checkpoint"
	"numarck/internal/runner"
	"numarck/internal/sim/flash"
)

func main() {
	dir, err := os.MkdirTemp("", "numarck-resilience-")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	st, err := checkpoint.Create(dir, numarck.Options{
		ErrorBound: 0.001,
		IndexBits:  8,
		Strategy:   numarck.Clustering,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer func() {
		if err := st.Close(); err != nil {
			log.Print(err)
		}
	}()

	newSim := func() *flash.Sim {
		sim, err := flash.New(flash.Config{BlocksX: 3, BlocksY: 3, Seed: 11})
		if err != nil {
			log.Fatal(err)
		}
		return sim
	}
	cfg := runner.Config{
		Adaptive: &adaptive.Config{},
		Monitor:  &anomaly.Config{},
	}

	// Phase 1: run 8 checkpointed iterations, then "crash".
	r1 := runner.New(runner.NewFlashSim(newSim(), 3), st, cfg)
	rep1, err := r1.Run(8)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("phase 1: iterations %d..%d checkpointed (%d fulls, %d deltas, %d anomalies)\n",
		rep1.FirstIteration, rep1.LastIteration, rep1.Fulls, rep1.Deltas, len(rep1.Anomalies))
	fmt.Println("phase 1: simulated CRASH — process state lost, only the store survives")

	// Show what survived.
	stats, err := st.Stats()
	if err != nil {
		log.Fatal(err)
	}
	var total int64
	for _, s := range stats {
		total += s.TotalBytes()
	}
	cells := 3 * 3 * 16 * 16
	raw := int64(8 * cells * 10 * 8) // 8 iterations x 10 variables
	fmt.Printf("store: %d bytes on disk for %d iterations x 10 variables (raw: %d, %.1f%% saved)\n",
		total, 8, raw, float64(raw-total)/float64(raw)*100)

	// Phase 2: recover into a brand-new process/simulator and finish.
	r2 := runner.New(runner.NewFlashSim(newSim(), 3), st, cfg)
	recovered, err := r2.Recover()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("phase 2: recovered simulation state from checkpoint %d\n", recovered)
	rep2, err := r2.Run(4)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("phase 2: continued through iteration %d (%d fulls, %d deltas)\n",
		rep2.LastIteration, rep2.Fulls, rep2.Deltas)

	// Prove the extended chain is intact.
	issues, err := st.Verify()
	if err != nil {
		log.Fatal(err)
	}
	if len(issues) > 0 {
		log.Fatalf("store verification failed: %v", issues)
	}
	latest, err := st.LatestRestorable("dens")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("store verified clean; dens restorable through iteration %d\n", latest)
}
