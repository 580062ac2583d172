package experiments

import (
	"strings"
	"testing"
)

// E14 at smoke scale: every setting must be safety-clean, every row — each
// Δ, chan and TCP — must be bit-identical to the simulator (e14Trial fails
// a run that diverges), and the plot bundle must reference only data files
// it actually carries.
func TestE14Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full live-vs-sim sweep")
	}
	res, err := E14CrossValidation(Opts{Trials: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 10 {
		t.Fatalf("rows: %d, want 9 chan + 1 tcp", len(res.Rows))
	}
	for _, r := range res.Rows {
		if r.SafetyViol != 0 {
			t.Errorf("%s Δ=%d drop=%.2f: %d safety violations", r.Transport, r.Delta, r.DropRate, r.SafetyViol)
		}
	}
	if len(res.Plots) != 1 {
		t.Fatalf("plots: %d, want 1", len(res.Plots))
	}
	checkPlot(t, res.Plots[0])
}

// The E13 plot bundle builds from any result shape without running the
// sweep: synthesize rows and check the script/data contract.
func TestE13PlotBundle(t *testing.T) {
	res := &E13Result{
		Lambda: 40,
		Rows: []E13Row{
			{Protocol: "core (sparse engine)", N: 1000, TotalMsgs: 5e4, TotalBytes: 1e6},
			{Protocol: "core (sparse engine)", N: 10000, TotalMsgs: 5e5, TotalBytes: 1e7},
			{Protocol: "quadratic (baseline)", N: 101, TotalMsgs: 4e5, TotalBytes: 1e8},
		},
		CoreMsgFit: E13Fit{Exponent: 1.0, Coeff: 50, Points: 2},
		QuadMsgFit: E13Fit{Exponent: 2.0, Coeff: 39, Points: 1},
	}
	p := E13Plot(res)
	checkPlot(t, p)
	if !strings.Contains(p.Data["e13-core.dat"], "1000 ") || !strings.Contains(p.Data["e13-quad.dat"], "101 ") {
		t.Fatalf("rows not routed to their protocol's data file: %q / %q", p.Data["e13-core.dat"], p.Data["e13-quad.dat"])
	}
}

// checkPlot asserts the bundle contract cmd/experiments relies on: a named
// script that sets a pngcairo terminal, writes Name.png, and references
// only data files present in the bundle.
func checkPlot(t *testing.T, p Plot) {
	t.Helper()
	if p.Name == "" || p.Script == "" {
		t.Fatal("empty plot bundle")
	}
	if !strings.Contains(p.Script, "pngcairo") || !strings.Contains(p.Script, p.Name+".png") {
		t.Errorf("plot %s: script does not render %s.png via pngcairo", p.Name, p.Name)
	}
	for name, data := range p.Data {
		if !strings.Contains(p.Script, "'"+name+"'") {
			t.Errorf("plot %s: data file %s never referenced by the script", p.Name, name)
		}
		if strings.TrimSpace(strings.TrimPrefix(data, "#")) == "" {
			t.Errorf("plot %s: data file %s is empty", p.Name, name)
		}
	}
}
