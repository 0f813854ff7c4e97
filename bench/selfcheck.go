package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"text/tabwriter"

	"numarck/internal/fputil"
)

// runChild runs one workload in a process of its own (a fresh heap and
// fresh file descriptors for every workload) and returns what it
// printed and its parsed result line.
func runChild(workload string, seed int64, seconds, trace int, out string, stderr io.Writer) ([]byte, *report, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, nil, err
	}
	cmd := exec.Command(exe,
		"-workload", workload, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.Itoa(seconds), "-trace", strconv.Itoa(trace), "-out", out)
	cmd.Stderr = stderr
	stdout, runErr := cmd.Output()
	lines := bytes.Split(bytes.TrimSpace(stdout), []byte("\n"))
	var rep report
	if err := json.Unmarshal(lines[len(lines)-1], &rep); err != nil {
		if runErr != nil {
			return stdout, nil, fmt.Errorf("%s: %w", workload, runErr)
		}
		return stdout, nil, fmt.Errorf("%s: no result line: %w", workload, err)
	}
	return stdout, &rep, nil
}

// runAll runs every workload untraced and then traced, each in its own
// process, and relays what they print.
func runAll(seed int64, seconds int, out string, stdout, stderr io.Writer) int {
	code := 0
	for _, w := range workloads {
		for trace := 0; trace <= 1; trace++ {
			printed, rep, err := runChild(w.name, seed, seconds, trace, out, stderr)
			// A broken pipe on stdout leaves nobody to report to.
			_, _ = stdout.Write(printed)
			if err != nil {
				fmt.Fprintln(stderr, "bench:", err)
				code = 2
			} else if !rep.Correct && code == 0 {
				code = 1
			}
		}
	}
	return code
}

// benchmarkFile is the part of BENCHMARK.json the self-check reads.
type benchmarkFile struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// spreads returns the median of xs, (max−min)/median, and the distance
// between the first and third quartile over the median, which is the
// spread the acceptance driver computes.
func spreads(xs []float64) (med, rng, iqr float64) {
	med = median(xs)
	if fputil.IsZero(med) || len(xs) < 2 {
		return med, 0, 0
	}
	rng = (percentile(xs, 100) - percentile(xs, 0)) / math.Abs(med)
	// Quartiles by the exclusive method of Python's
	// statistics.quantiles(xs, n=4).
	q := func(k float64) float64 {
		pos := k*float64(len(xs)+1)/4 - 1
		pos = math.Max(0, math.Min(float64(len(xs)-1), pos))
		return percentile(xs, 100*pos/float64(len(xs)-1))
	}
	return med, rng, (q(3) - q(1)) / math.Abs(med)
}

// runSelfcheck is the A/A test: the untraced benchmark as two
// interleaved sets of n runs of this same binary. It applies the
// acceptance driver's rule: a metric passes when set B's median is not
// worse than set A's by more than the bound and, except for setup_s,
// neither set's quartile spread exceeds the bound. (max−min)/median is
// printed beside it; on a shared host it is the larger of the two.
func runSelfcheck(n int, seed int64, seconds int, out string, stdout, stderr io.Writer) int {
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(stderr, "bench: -selfcheck reads the bounds from BENCHMARK.json in the working directory:", err)
		return 2
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		fmt.Fprintln(stderr, "bench: BENCHMARK.json:", err)
		return 2
	}
	type key struct{ workload, metric string }
	sets := [2]map[key][]float64{{}, {}}
	code := 0
	for i := 0; i < n; i++ {
		for _, w := range workloads {
			for s := range sets {
				_, rep, err := runChild(w.name, seed, seconds, 0, out, stderr)
				if err != nil {
					fmt.Fprintln(stderr, "bench:", err)
					return 2
				}
				if !rep.Correct {
					code = 1
				}
				for name, m := range rep.Metrics {
					k := key{w.name, name}
					sets[s][k] = append(sets[s][k], m.Value)
				}
			}
		}
	}
	tw := tabwriter.NewWriter(stdout, 0, 8, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tmedian A\tmedian B\tB worse by\tIQR A\tIQR B\trange A\trange B\tbound\tverdict")
	for _, w := range workloads {
		for _, def := range bf.EndToEnd {
			k := key{w.name, def.Name}
			ma, ra, ia := spreads(sets[0][k])
			mb, rb, ib := spreads(sets[1][k])
			worse := (mb - ma) / math.Abs(ma)
			if def.Better == "higher" {
				worse = -worse
			}
			verdict := "PASS"
			if worse > def.Bound || (def.Name != "setup_s" && (ia > def.Bound || ib > def.Bound)) {
				verdict = "FAIL"
				code = max(code, 1)
			}
			fmt.Fprintf(tw, "%s\t%s\t%.5g\t%.5g\t%+.4f\t%.4f\t%.4f\t%.4f\t%.4f\t%.2f\t%s\n",
				w.name, def.Name, ma, mb, worse, ia, ib, ra, rb, def.Bound, verdict)
		}
	}
	if err := tw.Flush(); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	return code
}

// describeFS names the filesystem type and device under dir from
// /proc/self/mountinfo ("unknown" where that file does not exist), so
// every run records what its fsyncs went to.
func describeFS(dir string) string {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "unknown"
	}
	f, err := os.Open("/proc/self/mountinfo")
	if err != nil {
		return "unknown"
	}
	//lint:ignore errcheck read-only file; a close error cannot lose data
	defer f.Close()
	best, desc := "", "unknown"
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		// "36 25 254:0 / /mnt rw,... - ext4 /dev/vda rw"
		pre, post, ok := strings.Cut(sc.Text(), " - ")
		fields, tail := strings.Fields(pre), strings.Fields(post)
		if !ok || len(fields) < 5 || len(tail) < 2 {
			continue
		}
		mount := fields[4]
		if (abs == mount || strings.HasPrefix(abs, strings.TrimSuffix(mount, "/")+"/")) && len(mount) >= len(best) {
			best, desc = mount, tail[0]+" on "+tail[1]
		}
	}
	return desc
}
