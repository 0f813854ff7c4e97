// Command bench is the repository's benchmark: four workloads, seven
// end-to-end metrics measured through the public façade and the HTTP
// client, and a ladder of per-layer metrics from a second, traced run.
// BENCHMARK.json at the repository root names the command, the
// workloads and every metric; README.md in this directory says what each
// one means, how they interact, and how steady they are on the host they
// were defined on.
//
// Usage, from the repository root:
//
//	go run ./bench                          every workload, untraced then traced
//	go run ./bench -workload store_small    one workload, end-to-end metrics
//	go run ./bench -workload store_small -trace 1
//	go run ./bench -selfcheck 5             A/A test of the end-to-end metrics
//
// With -workload the last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}. Every metric is also
// printed as a line "workload metric value unit". The exit code is 1
// when an op failed or an output was wrong.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// roundSeconds is what one measured round is sized to take on the
// reference host; -seconds buys that many rounds.
const roundSeconds = 2

// report is the last line a single-workload run prints.
type report struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "run only this workload (default: all four, each in its own process)")
	seed := fs.Int64("seed", 1, "seed of the input generator")
	seconds := fs.Int("seconds", 14, "measured time: one round of fixed op counts per 2 s")
	trace := fs.Int("trace", 0, "1: traced run, per-layer metrics; 0: end-to-end metrics")
	selfcheck := fs.Int("selfcheck", 0, "A/A test: two interleaved sets of `N` untraced runs of every workload")
	out := fs.String("out", filepath.Join("bench", "out"), "directory for scratch stores and traces (a real filesystem, not tmpfs)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "bench: bad arguments; see -h")
		return 2
	}
	switch {
	case *selfcheck > 0:
		return runSelfcheck(*selfcheck, *seed, *seconds, *out, stdout, stderr)
	case *name == "":
		return runAll(*seed, *seconds, *out, stdout, stderr)
	}

	w := findWorkload(*name)
	if w == nil {
		fmt.Fprintf(stderr, "bench: unknown workload %q\n", *name)
		return 2
	}
	dir, err := scratchDir(*out, w.name)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	defer os.RemoveAll(dir)
	e := env{
		gen:    generator{seed: *seed},
		dir:    dir,
		rounds: max(1, *seconds/roundSeconds),
		sc:     fullScale(),
		traced: *trace == 1,
		log:    stderr,
	}
	runWorkload := runUntraced
	if e.traced {
		runWorkload = runTraced
		e.traceOut = filepath.Join(*out, "trace-"+w.name+".json")
	}
	fmt.Fprintf(stderr, "bench: %s seed=%d rounds=%d trace=%d scratch=%s (%s)\n", w.name, *seed, e.rounds, *trace, dir, describeFS(dir))
	m, oc, err := runWorkload(w, e)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	return printReport(w.name, m, oc, stdout, stderr)
}

// scratchDir makes a fresh directory for one run's stores under out.
func scratchDir(out, workload string) (string, error) {
	if err := os.MkdirAll(out, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(out, "work-"+workload+"-")
}

// printReport prints every metric by name and the JSON result line.
func printReport(workload string, m metrics, oc *outcome, stdout, stderr io.Writer) int {
	for _, name := range sortedKeys(m) {
		fmt.Fprintf(stdout, "%s %s %.6g %s\n", workload, name, m[name].Value, m[name].Unit)
	}
	fmt.Fprintf(stdout, "%s ops_attempted %d count\n%s ops_failed %d count\n", workload, oc.attempted, workload, oc.failed)
	if oc.first != nil {
		fmt.Fprintln(stderr, "bench: first failure:", oc.first)
	}
	line, err := json.Marshal(report{Correct: oc.failed == 0, Attempted: oc.attempted, Failed: oc.failed, Metrics: m})
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if oc.failed > 0 {
		return 1
	}
	return 0
}
