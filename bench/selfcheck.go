package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"time"
)

// The selfcheck answers one question before anyone trusts a comparison made
// with this benchmark: do two sets of runs of the same binary agree within
// the benchmark's own bounds? It mirrors the accepting driver: R runs per
// set, run i of both sets on seed base+i, each run a fresh process; the sets
// are interleaved (A1 B1 A2 B2 …) so slow drift of the host lands on both.
// For every (workload, end-to-end metric) it prints each set's median and
// quartiles, the spread (interquartile distance over median, the larger of
// the two sets), the gap between the set medians in the worsening
// direction, and the bound; it fails when a gap or — except for setup_s,
// which the driver exempts — a spread exceeds the bound.

// childRun executes one full untraced run of workload in a fresh process
// and returns its result line.
func childRun(exe, workload string, seed uint64, seconds int) (resultLine, error) {
	cmd := exec.Command(exe, "-workload", workload, "-seed", strconv.FormatUint(seed, 10),
		"-seconds", strconv.Itoa(seconds), "-trace", "0")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return resultLine{}, fmt.Errorf("%s seed %d: %w: %s", workload, seed, err, stderr.String())
	}
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	var line resultLine
	if err := json.Unmarshal(lines[len(lines)-1], &line); err != nil {
		return resultLine{}, fmt.Errorf("%s seed %d: result line: %w", workload, seed, err)
	}
	if !line.Correct {
		return line, fmt.Errorf("%s seed %d: %d of %d ops failed", workload, seed, line.Failed, line.Attempted)
	}
	return line, nil
}

// cpuTicks reads the guest's total and stolen CPU ticks from /proc/stat
// (ok is false where there is no such file). The share stolen while a
// workload's runs were made is printed with its table: a host that takes
// the processor away for minutes shows there, not only in the spreads.
func cpuTicks() (total, steal float64, ok bool) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, false
	}
	line, _, _ := bytes.Cut(data, []byte("\n"))
	fields := bytes.Fields(line)
	if len(fields) < 9 || string(fields[0]) != "cpu" {
		return 0, 0, false
	}
	for i, f := range fields[1:] {
		v, err := strconv.ParseFloat(string(f), 64)
		if err != nil {
			return 0, 0, false
		}
		if i < 8 { // user … steal; guest time is already inside user
			total += v
		}
		if i == 7 {
			steal = v
		}
	}
	return total, steal, true
}

// worsening returns how far b is worse than a, as a share of a (negative
// when b is better).
func worsening(d metricDef, a, b float64) float64 {
	if a == 0 {
		return 0
	}
	if d.Better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

func runSelfcheck(runs int, seed uint64, seconds int, stdout, stderr io.Writer) int {
	if runs < 5 {
		fmt.Fprintln(stderr, "bench: -selfcheck needs -runs of at least 5")
		return 2
	}
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintf(stderr, "bench: selfcheck: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "# Selfcheck: two interleaved sets of %d runs of one binary\n\n", runs)
	fmt.Fprintf(stdout, "%s, GOMAXPROCS=%d, nproc=%d, %s/%s, %s; seeds %d..%d, -seconds %d.\n\n",
		runtime.Version(), runtime.GOMAXPROCS(0), runtime.NumCPU(), runtime.GOOS, runtime.GOARCH,
		time.Now().UTC().Format("2006-01-02"), seed, seed+uint64(runs)-1, seconds)
	fmt.Fprintln(stdout, "Each cell is `median [q1, q3]` over the set's runs. spread = (q3-q1)/median, the larger of the")
	fmt.Fprintln(stdout, "two sets; gap = how far set B's median is worse than set A's. Both are judged against the bound")
	fmt.Fprintln(stdout, "(setup_s: gap only).")

	failed := 0
	var widestGap, widestSpread float64
	for _, w := range workloads {
		sets := [2]map[string][]float64{{}, {}}
		total0, steal0, haveTicks := cpuTicks()
		for i := 0; i < runs; i++ {
			for s := range sets {
				line, err := childRun(exe, w.Name, seed+uint64(i), seconds)
				if err != nil {
					fmt.Fprintf(stderr, "bench: selfcheck: %v\n", err)
					return 1
				}
				for name, val := range line.Metrics {
					sets[s][name] = append(sets[s][name], val.Value)
				}
			}
		}
		fmt.Fprintf(stdout, "\n## %s\n\n", w.Name)
		if total1, steal1, ok := cpuTicks(); ok && haveTicks && total1 > total0 {
			fmt.Fprintf(stdout, "CPU time the host withheld from the guest while these runs were made: %.1f%%.\n\n",
				(steal1-steal0)/(total1-total0)*100)
		}
		fmt.Fprintln(stdout, "| metric | unit | set A | set B | spread | gap | bound | |")
		fmt.Fprintln(stdout, "| --- | --- | --- | --- | --- | --- | --- | --- |")
		for _, d := range endToEnd {
			a, b := sets[0][d.Name], sets[1][d.Name]
			aq1, am, aq3 := quartiles(a)
			bq1, bm, bq3 := quartiles(b)
			spread := max(spreadShare(a), spreadShare(b))
			gap := worsening(d, am, bm)
			widestGap = max(widestGap, math.Abs(gap))
			if d.Name != "setup_s" {
				widestSpread = max(widestSpread, spread)
			}
			verdict := "ok"
			if gap > d.Bound || (d.Name != "setup_s" && spread > d.Bound) {
				verdict = "**FAIL**"
				failed++
			}
			fmt.Fprintf(stdout, "| %s | %s | %.6g [%.6g, %.6g] | %.6g [%.6g, %.6g] | %.2f%% | %+.2f%% | %g%% | %s |\n",
				d.Name, d.Unit, am, aq1, aq3, bm, bq1, bq3, spread*100, gap*100, d.Bound*100, verdict)
		}
	}
	fmt.Fprintf(stdout, "\nWidest gap between set medians %.2f%%, widest spread inside a set %.2f%% (setup_s aside).\n",
		widestGap*100, widestSpread*100)
	if failed > 0 {
		fmt.Fprintf(stdout, "%d (workload, metric) pairs outside their bound.\n", failed)
		return 1
	}
	fmt.Fprintln(stdout, "Every (workload, metric) pair is inside its bound.")
	return 0
}
