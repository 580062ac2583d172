package experiments

import (
	"fmt"

	"ccba/internal/harness"
	"ccba/internal/scenario"
	"ccba/internal/table"
	"ccba/internal/types"
)

// Opts configures a generator run. Every generator executes its trials on
// the harness worker pool; aggregates are bit-identical for every worker
// count because results are reassembled in trial order before folding.
type Opts struct {
	// Trials per scenario (each generator documents its default scale).
	Trials int
	// Workers sizes the trial worker pool; 0 or less means GOMAXPROCS.
	Workers int
	// Net and Delta, when Net is non-empty, override the network model of
	// every execution that goes through the scenario runner (E2, E7–E11) —
	// rerunning one of those under, say, worst-case Δ=3 scheduling is a
	// flag, not a code change. Experiments that drive custom engines or
	// instrumented runtimes (E1, E3–E6) and E12, which sweeps network
	// models itself, ignore the override.
	Net   scenario.NetName
	Delta int
	// Progress, when non-nil, receives per-trial completion callbacks from
	// the harness pool (concurrently — see harness.Options.Progress). It is
	// reporting only: aggregates and tables are identical with or without
	// it, which is what lets cmd/experiments -progress write to stderr
	// without disturbing byte-diffed stdout artifacts.
	Progress func(done, total int)
}

// options builds the harness options for one scenario of one experiment.
func (o Opts) options(experiment, scenarioKey string) harness.Options {
	return harness.Options{
		Name:     experiment,
		Scenario: scenarioKey,
		Trials:   o.Trials,
		Workers:  o.Workers,
		Progress: o.Progress,
	}
}

// run resolves and executes one scenario trial, applying the Opts
// network-model override.
func (o Opts) run(sc scenario.Scenario, tr harness.Trial) (*scenario.Report, error) {
	if o.Net != "" {
		sc.Config.Net = o.Net
		sc.Config.Delta = o.Delta
	}
	return sc.Run(tr.Seed, tr.Index)
}

// Artifacts is the output pair every generator produces alongside its typed
// rows: the rendered presentation table and the machine-readable sweep of
// per-scenario aggregates. E*Result types embed it.
type Artifacts struct {
	Table *table.Table
	Sweep *harness.Sweep
	// Plots holds renderable gnuplot bundles for generators that produce
	// figures (E13, E14); cmd/experiments writes them out under -plot-dir.
	Plots []Plot
}

// Out returns the artifacts; embedding promotes this accessor onto every
// generator result so callers need no per-type switch.
func (a *Artifacts) Out() *Artifacts { return a }

// constInputs returns n copies of b.
func constInputs(n int, b types.Bit) []types.Bit {
	in := make([]types.Bit, n)
	for i := range in {
		in[i] = b
	}
	return in
}

// mixedInputs returns alternating inputs.
func mixedInputs(n int) []types.Bit {
	in := make([]types.Bit, n)
	for i := range in {
		in[i] = types.BitFromBool(i%2 == 0)
	}
	return in
}

// violations counts which properties failed on a result.
type violations struct {
	consistency bool
	validity    bool
	termination bool
}

func (v violations) any() bool { return v.consistency || v.validity || v.termination }

func (v violations) String() string {
	if !v.any() {
		return "none"
	}
	s := ""
	if v.consistency {
		s += "C"
	}
	if v.validity {
		s += "V"
	}
	if v.termination {
		s += "T"
	}
	return s
}

// checkReport folds a scenario report's checker outcomes into the
// experiment observation shape.
func checkReport(rep *scenario.Report) violations {
	return violations{
		consistency: rep.Consistency != nil,
		validity:    rep.Validity != nil,
		termination: rep.Termination != nil,
	}
}

// pct formats a proportion as a percentage string.
func pct(rate float64) string { return fmt.Sprintf("%.1f%%", 100*rate) }
