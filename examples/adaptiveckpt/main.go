// adaptiveckpt demonstrates the paper's §V extension of dynamic
// checkpoint frequency: the scheduler watches the evolving change
// distributions and writes full checkpoints only when deltas stop
// paying or the chain reaches its length cap.
//
// The workload switches between a quiet phase and a turbulent phase, so
// a fixed full-checkpoint period would be wrong in one of them.
//
// Run with: go run ./examples/adaptiveckpt
package main

import (
	"fmt"
	"log"
	"math"
	"math/rand"
	"os"

	"numarck"
	"numarck/internal/adaptive"
	"numarck/internal/checkpoint"
)

func main() {
	dir, err := os.MkdirTemp("", "numarck-adaptive-")
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
	// The Writer asks the scheduler about every tentative delta; the
	// wrapper only remembers the verdict so it can be printed.
	sched := adaptive.NewScheduler(adaptive.Config{GammaThreshold: 0.5})
	var verdict adaptive.Decision
	w := checkpoint.Scheduled(checkpoint.NewWriter(st, 0), func(depth int, enc *numarck.Encoded) bool {
		verdict = sched.Decide(depth, enc.Gamma())
		return verdict.Full
	})

	// 30 iterations: quiet (0-9), turbulent (10-14), quiet again.
	rng := rand.New(rand.NewSource(7))
	n := 5000
	data := make([]float64, n)
	for j := range data {
		data[j] = 100 + rng.Float64()*20
	}
	series := make([][]float64, 0, 30)
	for i := 0; i < 30; i++ {
		next := make([]float64, n)
		turbulent := i >= 10 && i < 15
		for j := range next {
			if turbulent {
				next[j] = data[j] * math.Exp(rng.NormFloat64()*0.5)
			} else {
				next[j] = data[j] * (1 + rng.NormFloat64()*0.0005)
			}
		}
		data = next
		series = append(series, next)
	}

	fmt.Println("iter  phase      decision  reason")
	fulls, reasons := 0, map[adaptive.Reason]int{}
	for i, d := range series {
		encs, err := w.Append(i, map[string][]float64{"v": d})
		if err != nil {
			log.Fatal(err)
		}
		phase := "quiet"
		if i >= 10 && i < 15 {
			phase = "turbulent"
		}
		kind, reason := "delta", verdict.Reason
		if i == 0 {
			reason = "first checkpoint" // nothing to encode against: not asked
		}
		if encs["v"] == nil {
			kind = "FULL"
			fulls++
			reasons[reason]++
		}
		fmt.Printf("%-5d %-10s %-9s %s\n", i, phase, kind, reason)
	}
	fmt.Printf("\n%d fulls, %d deltas; full reasons: %v\n", fulls, len(series)-fulls, reasons)

	// Every iteration restarts within one step's bound, E·|x̂_{i-1}|,
	// however long the delta chain before it.
	worst := 0.0
	prev := series[0]
	for i, want := range series {
		rec, err := st.Restart("v", i)
		if err != nil {
			log.Fatal(err)
		}
		for j := range rec {
			if bound := 0.001 * math.Abs(prev[j]); bound > 0 {
				worst = math.Max(worst, math.Abs(rec[j]-want[j])/bound)
			}
		}
		prev = rec
	}
	fmt.Printf("worst restart error across all 30 iterations: %.3f of the bound E·|x̂_{i-1}|\n", worst)
}
