// Command experiments regenerates the paper's evaluation: one measured
// table per theorem/lemma-level claim (E1–E15 in DESIGN.md §3), with trials
// fanned out across harness workers.
//
// Examples:
//
//	experiments                           # run everything at default trial counts
//	experiments -only e2 -max-n 2048 -trials 3
//	experiments -only e8 -trials 10 -workers 8
//	experiments -only e7,e11 -json        # machine-readable sweep aggregates
//	experiments -only e12 -trials 20      # agreement vs Δ and omission rate
//	experiments -only e13                 # scaling law: core vs quadratic, n up to 10⁵
//	experiments -only e13 -e13-max-n 1000000 -trials 1   # the 10⁶ stretch point
//	experiments -only e13 -e13-crypto real -trials 1     # real-crypto (Ed25519 VRF) core sweep
//	experiments -only e7 -net delta -delta 2   # rerun E7 under worst-case Δ=2
//	experiments -only e15 -trials 50      # async track: ABA rounds vs scheduler, ACS set size vs crashes
//	experiments -csv > sweeps.csv
//
// Output is identical for every -workers value: trials are reassembled in
// trial order before aggregation, so parallel sweeps are bit-identical to
// the serial schedule.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"ccba/internal/experiments"
	"ccba/internal/harness"
	"ccba/internal/scenario"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	var (
		only      = fs.String("only", "", "comma-separated experiment ids (e1..e15); empty = all")
		trials    = fs.Int("trials", 0, "override trial count (0 = per-experiment default)")
		workers   = fs.Int("workers", 0, "trial worker-pool size (0 = GOMAXPROCS)")
		maxN      = fs.Int("max-n", 1024, "largest n for the E2 sweep")
		e13MaxN   = fs.Int("e13-max-n", 100_000, "largest n for the E13 scaling sweep (core points 1k/10k/100k/1M; 1000000 is the stretch setting; points ≥ 50k run their trials serially so peak heap stays one trial's)")
		e13Crypto = fs.String("e13-crypto", "ideal", "crypto mode for the E13 core sweep: ideal (F_mine hybrid) or real (Ed25519 VRF mining, Appendix D compiler)")
		net       = fs.String("net", "", "network-model override for the scenario-run experiments E2, E7-E11: delta, jitter, omission, partition (E1/E3-E6 drive custom engines; E12 sweeps its own models)")
		delta     = fs.Int("delta", 0, "delivery bound Δ for the -net override")
		asJSON    = fs.Bool("json", false, "emit machine-readable sweep aggregates as JSON instead of tables")
		asCSV     = fs.Bool("csv", false, "emit sweep aggregates as CSV instead of tables")
		progress  = fs.Bool("progress", false, "print periodic per-batch progress lines (trial i/N, ETA) to stderr; stdout artifacts are unaffected")
		plotDir   = fs.String("plot-dir", "", "write gnuplot figure bundles (.gp scripts + .dat data) for the plotting experiments (e13, e14) into this directory; render with `gnuplot *.gp`")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *asJSON && *asCSV {
		return fmt.Errorf("-json and -csv are mutually exclusive")
	}

	want := map[string]bool{}
	if *only != "" {
		for _, id := range strings.Split(*only, ",") {
			want[strings.ToLower(strings.TrimSpace(id))] = true
		}
	}
	selected := func(id string) bool { return len(want) == 0 || want[id] }
	var report func(done, total int)
	if *progress {
		report = newProgressReporter(os.Stderr)
	}
	opts := func(def int) experiments.Opts {
		t := def
		if *trials > 0 {
			t = *trials
		}
		return experiments.Opts{Trials: t, Workers: *workers, Net: scenario.NetName(*net), Delta: *delta, Progress: report}
	}

	type gen struct {
		id  string
		run func() (*experiments.Artifacts, error)
	}
	art := func(r interface{ Out() *experiments.Artifacts }, err error) (*experiments.Artifacts, error) {
		if err != nil {
			return nil, err
		}
		return r.Out(), nil
	}
	gens := []gen{
		{"e1", func() (*experiments.Artifacts, error) { return art(experiments.E1StrongAdaptive(opts(10))) }},
		{"e2", func() (*experiments.Artifacts, error) { return art(experiments.E2MulticastComplexity(opts(3), *maxN)) }},
		{"e3", func() (*experiments.Artifacts, error) { return art(experiments.E3NoSetup(opts(5))) }},
		{"e4", func() (*experiments.Artifacts, error) { return art(experiments.E4TerminatePropagation(opts(30))) }},
		{"e5", func() (*experiments.Artifacts, error) { return art(experiments.E5CommitteeConcentration(opts(1000))) }},
		{"e6", func() (*experiments.Artifacts, error) { return art(experiments.E6GoodIteration(opts(3000))) }},
		{"e7", func() (*experiments.Artifacts, error) { return art(experiments.E7SafetyTrials(opts(20))) }},
		{"e8", func() (*experiments.Artifacts, error) { return art(experiments.E8BitSpecificAblation(opts(8))) }},
		{"e9", func() (*experiments.Artifacts, error) { return art(experiments.E9ProtocolComparison(opts(5))) }},
		{"e10", func() (*experiments.Artifacts, error) { return art(experiments.E10PhaseKing(opts(3))) }},
		{"e11", func() (*experiments.Artifacts, error) { return art(experiments.E11ResilienceFrontier(opts(10))) }},
		{"e12", func() (*experiments.Artifacts, error) { return art(experiments.E12NetworkModels(opts(10))) }},
		{"e13", func() (*experiments.Artifacts, error) {
			mode := scenario.CryptoMode(*e13Crypto)
			if mode != scenario.Ideal && mode != scenario.Real {
				return nil, fmt.Errorf("unknown -e13-crypto mode %q (ideal or real)", *e13Crypto)
			}
			return art(experiments.E13ScalingLaw(opts(3), *e13MaxN, mode))
		}},
		{"e14", func() (*experiments.Artifacts, error) { return art(experiments.E14CrossValidation(opts(5))) }},
		{"e15", func() (*experiments.Artifacts, error) { return art(experiments.E15AsyncTrack(opts(20))) }},
	}

	var sweeps []*harness.Sweep
	ran := 0
	for _, g := range gens {
		if !selected(g.id) {
			continue
		}
		a, err := g.run()
		if err != nil {
			return fmt.Errorf("%s: %w", g.id, err)
		}
		ran++
		if *plotDir != "" {
			if err := writePlots(*plotDir, a.Plots); err != nil {
				return fmt.Errorf("%s: %w", g.id, err)
			}
		}
		if *asJSON || *asCSV {
			sweeps = append(sweeps, a.Sweep)
			continue
		}
		a.Table.Render(out)
	}
	if ran == 0 {
		return fmt.Errorf("no experiment matched %q", *only)
	}
	if *asJSON {
		return harness.WriteJSON(out, sweeps)
	}
	if *asCSV {
		return harness.WriteCSV(out, sweeps)
	}
	return nil
}

// newProgressReporter returns a harness progress callback that prints
// rate-limited "trial i/N" lines with an ETA extrapolated from the batch's
// elapsed time. Generators run many scenario batches back to back through
// the one callback; a completed-count that did not grow means a new batch
// started, which resets the clock. Safe for the concurrent calls the
// harness pool makes.
func newProgressReporter(w io.Writer) func(done, total int) {
	var (
		mu       sync.Mutex
		start    time.Time
		lastLine time.Time
		prevDone int
	)
	return func(done, total int) {
		mu.Lock()
		defer mu.Unlock()
		now := time.Now()
		if done <= prevDone || start.IsZero() {
			start = now
			lastLine = time.Time{}
		}
		prevDone = done
		if done < total && now.Sub(lastLine) < time.Second {
			return
		}
		lastLine = now
		line := fmt.Sprintf("progress: trial %d/%d", done, total)
		if elapsed := now.Sub(start); done < total && done > 0 && elapsed > 0 {
			eta := elapsed / time.Duration(done) * time.Duration(total-done)
			line += fmt.Sprintf(" (ETA %s)", eta.Round(time.Second))
		}
		fmt.Fprintln(w, line)
	}
}

// writePlots materializes each figure bundle — the .gp script plus its data
// files — into dir, creating it if needed.
func writePlots(dir string, plots []experiments.Plot) error {
	if len(plots) == 0 {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for _, p := range plots {
		if err := os.WriteFile(filepath.Join(dir, p.Name+".gp"), []byte(p.Script), 0o644); err != nil {
			return err
		}
		for name, data := range p.Data {
			if err := os.WriteFile(filepath.Join(dir, name), []byte(data), 0o644); err != nil {
				return err
			}
		}
	}
	return nil
}
