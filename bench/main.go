// Command bench is the repository's benchmark: six fixed-schedule,
// lap-timed workloads that drive every runtime from outside through public
// functions, with a separate traced pass that attributes the cost to
// layers. See README.md in this directory for what each number means.
//
//	go run . -workload dense_core_n1000 -seed 1         # end-to-end metrics
//	go run . -workload dense_core_n1000 -seed 1 -trace 1 # per-layer metrics
//	go run . -selfcheck -runs 5                          # noise check
//
// The last line of standard output is one JSON object (correct, attempted,
// failed, metrics); everything above it is for people.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name      = fs.String("workload", "", "workload to run (BENCHMARK.json names them)")
		seed      = fs.Uint64("seed", 1, "feeds only harness.SeedFrom: the order a lap runs the schedule's ops in")
		seconds   = fs.Int("seconds", runSeconds, "measured window; converted to whole two-second laps")
		trace     = fs.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced pass")
		printSpec = fs.Bool("spec", false, "print the BENCHMARK.json this binary implements and exit")
		selfcheck = fs.Bool("selfcheck", false, "run two interleaved sets of full runs and compare their medians with the bounds")
		runs      = fs.Int("runs", 5, "runs per set for -selfcheck (at least 5)")
		outDir    = fs.String("out", "out", "directory the traced pass writes its spans to")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	switch {
	case *printSpec:
		stdout.Write(specJSON())
		return 0
	case *selfcheck:
		return runSelfcheck(*runs, *seed, *seconds, stdout, stderr)
	}

	w, ok := lookupWorkload(*name)
	if !ok {
		fmt.Fprintf(stderr, "bench: unknown workload %q; BENCHMARK.json names them\n", *name)
		return 2
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "bench: need -seconds >= 1 and -trace 0 or 1\n")
		return 2
	}

	var rep *report
	defs := endToEnd
	if *trace == 1 {
		var err error
		rep, err = runTraced(w, *seed, *seconds, *outDir)
		if err != nil {
			fmt.Fprintf(stderr, "bench: traced pass: %v\n", err)
			return 1
		}
		defs = perLayer
	} else {
		rep = runEndToEnd(w, *seed, measuredLaps(*seconds))
	}
	if err := rep.print(stdout, defs); err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	return 0
}

// resultLine is the machine-readable last line of a run.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]resultValue `json:"metrics"`
}

type resultValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// print writes the run header, every metric in defs by name with its unit
// (and bound, where it has one), and the result line. A metric the run did
// not produce is an error: the set printed is the set defined, always.
func (r *report) print(out io.Writer, defs []metricDef) error {
	w := r.workload
	fmt.Fprintf(out, "workload      %s  (%s)\n", w.Name, w.Why)
	fmt.Fprintf(out, "schedule      seed=%d S=%d ops/lap; %s; ops attempted=%d failed=%d\n",
		r.seed, w.S, r.plan, r.attempts, r.failed)
	fmt.Fprintf(out, "load          closed loop, 1 client, ops back to back in one process; %s\n", w.Delay)
	fmt.Fprintf(out, "host          %s GOMAXPROCS=%d nproc=%d %s/%s\n",
		runtime.Version(), runtime.GOMAXPROCS(0), runtime.NumCPU(), runtime.GOOS, runtime.GOARCH)
	fmt.Fprintf(out, "lap wall s    %.3f\n", r.lapWalls)
	fmt.Fprintf(out, "run.result_digest %s\n", r.digest)
	for _, f := range r.failures {
		fmt.Fprintf(out, "FAILED        %s\n", f)
	}

	line := resultLine{
		Correct:   r.failed == 0 && r.attempts > 0,
		Attempted: r.attempts,
		Failed:    r.failed,
		Metrics:   make(map[string]resultValue, len(defs)),
	}
	for _, d := range defs {
		v, ok := r.values[d.Name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", d.Name)
		}
		bound := ""
		if d.Bound > 0 {
			bound = fmt.Sprintf("bound %g%%", d.Bound*100)
		}
		fmt.Fprintf(out, "%-32s %16.6g %-6s %-6s %-11s %s\n", d.Name, v, d.Unit, d.Better, bound, r.notes[d.Name])
		line.Metrics[d.Name] = resultValue{Value: v, Unit: d.Unit}
	}
	// A value measured under a name the definitions lack would silently
	// vanish from the result line; name it so the list gets fixed.
	for name := range r.values {
		if _, ok := line.Metrics[name]; !ok {
			return fmt.Errorf("metric %s was measured but is not defined", name)
		}
	}
	enc, err := json.Marshal(line)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(out, "%s\n", enc)
	return err
}
