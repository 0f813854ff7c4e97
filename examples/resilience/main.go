// resilience is the full end-to-end demonstration of what NUMARCK is
// for (§I Q6): a simulation checkpoints every iteration through the one
// chain Writer with adaptive scheduling and silent-data-corruption
// screening, crashes mid-flight, and is recovered from the compressed
// checkpoint store to finish the run.
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
	"numarck/internal/sim/flash"
)

// stepsPerCheckpoint is how many solver steps one checkpointed
// iteration advances.
const stepsPerCheckpoint = 3

// run advances sim n times from iteration first, screens each state for
// silent data corruption against prev (the state last checkpointed, or
// restored), and appends it through w. It returns the number of fulls,
// deltas and anomalous variable-iterations written.
func run(sim *flash.Sim, w *checkpoint.Writer, first, n int, prev map[string][]float64) (fulls, deltas, anomalies int) {
	monitors := map[string]*anomaly.Detector{}
	for i := first; i < first+n; i++ {
		sim.StepN(stepsPerCheckpoint)
		state := sim.Checkpoint().Vars
		for v, data := range state {
			if prev[v] == nil {
				continue // nothing to compare the first state against
			}
			if monitors[v] == nil {
				monitors[v] = anomaly.New(anomaly.Config{})
			}
			rep, err := monitors[v].Observe(prev[v], data)
			if err != nil {
				log.Fatalf("screen %s@%d: %v", v, i, err)
			}
			if len(rep.Flagged) > 0 || rep.DistributionAlarm {
				anomalies++
				fmt.Printf("anomaly: %s@%d: %d points flagged, JS divergence %.4f\n", v, i, len(rep.Flagged), rep.Divergence)
			}
		}
		encs, err := w.Append(i, state)
		if err != nil {
			log.Fatal(err)
		}
		deltas += len(encs)
		fulls += len(state) - len(encs)
		prev = state
	}
	return fulls, deltas, anomalies
}

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
	schedule := adaptive.NewScheduler(adaptive.Config{}).Full

	// Phase 1: run 8 checkpointed iterations, then "crash".
	w := checkpoint.Scheduled(checkpoint.NewWriter(st, 0), schedule)
	fulls, deltas, anomalies := run(newSim(), w, 0, 8, nil)
	fmt.Printf("phase 1: iterations 0..7 checkpointed (%d fulls, %d deltas, %d anomalies)\n", fulls, deltas, anomalies)
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

	// Phase 2: a brand-new process resumes at the latest iteration every
	// variable can restart at, restores the solver from the reconstructed
	// state, and hands that same state to the Writer as its prediction
	// reference, so the chain continues with deltas.
	recovered, err := st.LatestConsistent()
	if err != nil {
		log.Fatal(err)
	}
	state := map[string][]float64{}
	for _, v := range flash.Variables {
		if state[v], err = st.Restart(v, recovered); err != nil {
			log.Fatal(err)
		}
	}
	sim := newSim()
	if err := sim.Restart(&flash.Snapshot{Step: sim.StepCount(), Time: sim.Time(), Vars: state}); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("phase 2: recovered simulation state from checkpoint %d\n", recovered)
	w = checkpoint.Scheduled(checkpoint.NewWriterAt(st, 0, recovered, state), schedule)
	fulls, deltas, _ = run(sim, w, recovered+1, 4, state)
	fmt.Printf("phase 2: continued through iteration %d (%d fulls, %d deltas)\n", recovered+4, fulls, deltas)

	// Prove the extended chain is intact.
	issues, err := st.Verify()
	if err != nil {
		log.Fatal(err)
	}
	if len(issues) > 0 {
		log.Fatalf("store verification failed: %v", issues)
	}
	latest, err := st.LatestConsistent()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("store verified clean; every variable restorable through iteration %d\n", latest)
}
