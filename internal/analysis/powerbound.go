package analysis

import (
	"go/ast"
	"path/filepath"
	"strings"
)

// Powerbound polices the adversary's power boundary in live fault code.
// Both runtimes decide the network's faults by one per-link rule,
// netsim.Faults.Link, over the schedule's seeded coins netsim.LinkDrop and
// netsim.LinkDelay. The boundary holds by the schedule's construction
// (Validate keeps drops on ≤F faulty senders, Decide delivers every other
// link within Δ), not by a check at delivery. A live recipient applies the
// same Link to every frame — that is what makes a live run of any model
// bit-identical to the simulated schedule — so:
//
//   - netsim.LinkDrop and netsim.LinkDelay may only be called from netsim
//     itself; any other package flipping the coins directly would grant
//     itself adversary powers outside the schedule;
//   - chaos code (files named *chaos*.go in transport/cluster) may not
//     reach for raw fault mechanisms: no channel sends or closes, no
//     direct net connections, no wall-clock reads or math/rand — every
//     drop and delay must be a number of rounds derived from the config's
//     schedule and seed, applied in the round loop (DESIGN.md §7–§8).
var Powerbound = &Analyzer{
	Name:      "powerbound",
	Directive: "power-ok",
	Doc: "faults may only be injected via the netsim.Faults schedule, whose " +
		"LinkDrop/LinkDelay coins only netsim calls, never raw channel or connection manipulation",
	Run: runPowerbound,
}

// chaosFile reports whether the file hosts live fault-injection code.
func chaosFile(path, filename string) bool {
	if path != "ccba/internal/transport" && path != "ccba/internal/cluster" {
		return false
	}
	return strings.Contains(filepath.Base(filename), "chaos")
}

func runPowerbound(p *Pass) {
	path := p.Pkg.Path()
	for _, f := range p.Files {
		filename := p.Fset.Position(f.Package).Filename
		inChaos := chaosFile(path, filename)
		if inChaos {
			for _, imp := range f.Imports {
				switch importPath(imp) {
				case "net":
					p.Reportf(imp.Pos(), "chaos code imports net: faults are rounds the schedule returns, never touched connections")
				case "math/rand", "math/rand/v2":
					p.Reportf(imp.Pos(), "chaos code imports %s: fault decisions must come from the config's schedule (netsim.Faults.Decide) and seed (netsim.Mix64)", importPath(imp))
				}
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				fn := calleeFunc(p.Info, n)
				if path != netsimPath && (isPkgFunc(fn, netsimPath, "LinkDrop") || isPkgFunc(fn, netsimPath, "LinkDelay")) {
					p.Reportf(n.Pos(), "call to netsim.%s outside netsim: the schedule's coins are the adversary's, reached only through netsim.Faults.Link", fn.Name())
				}
				if !inChaos {
					return true
				}
				if id, ok := ast.Unparen(n.Fun).(*ast.Ident); ok && id.Name == "close" && len(n.Args) == 1 {
					p.Reportf(n.Pos(), "chaos code closes a channel: crash faults are omission windows in the schedule, not torn-down plumbing")
				}
				if isPkgLevelOf(fn, "time") && (fn.Name() == "Now" || fn.Name() == "Since" || fn.Name() == "Until") {
					p.Reportf(n.Pos(), "chaos code reads the wall clock via time.%s: fault decisions must be a pure function of (seed, round, from, to)", fn.Name())
				}
			case *ast.SendStmt:
				if inChaos {
					p.Reportf(n.Pos(), "raw channel send in chaos code: deliver through the round loop so the power checks stay in the path")
				}
			}
			return true
		})
	}
}
