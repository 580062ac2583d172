package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// Metricsflow guards the paper's communication-complexity accounting
// (Definitions 6–7): the fields of netsim.Metrics may only be written
// inside methods declared on the type itself — CountSend, Add, and the
// wire codec — so the lockstep engine and the live cluster runtime can
// never drift apart on what a send costs. Reading the
// fields is free; writing them anywhere else re-implements the accounting
// rule and is exactly the drift the analyzer exists to stop (DESIGN.md §8).
var Metricsflow = &Analyzer{
	Name:      "metricsflow",
	Directive: "metrics-ok",
	Doc: "netsim.Metrics fields may only be mutated through methods on the " +
		"type (CountSend/Add/codec) so Definitions 6–7 accounting cannot drift",
	Run: runMetricsflow,
}

const (
	netsimPath  = "ccba/internal/netsim"
	metricsName = "Metrics"
)

func runMetricsflow(p *Pass) {
	for _, f := range p.Files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			if p.Pkg.Path() == netsimPath && recvIsMetrics(p, fn) {
				continue // the blessed accounting methods themselves
			}
			checkMetricsWrites(p, fn.Body)
		}
		// Composite literals with explicit fields re-state accounting
		// outside the rule; the zero literal (a fresh counter) is fine.
		if p.Pkg.Path() == netsimPath {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			lit, ok := n.(*ast.CompositeLit)
			if !ok || len(lit.Elts) == 0 {
				return true
			}
			if isNamed(p.Info.TypeOf(lit), netsimPath, metricsName) {
				p.Reportf(lit.Pos(), "netsim.Metrics constructed with explicit fields outside netsim: account through CountSend/Add instead")
			}
			return true
		})
	}
}

// recvIsMetrics reports whether fn is a method with receiver Metrics or
// *Metrics.
func recvIsMetrics(p *Pass, fn *ast.FuncDecl) bool {
	if fn.Recv == nil || len(fn.Recv.List) != 1 {
		return false
	}
	return isNamed(p.Info.TypeOf(fn.Recv.List[0].Type), netsimPath, metricsName)
}

// checkMetricsWrites flags assignments, compound assignments, ++/--, and
// address-taking of netsim.Metrics fields inside body.
func checkMetricsWrites(p *Pass, body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				if sel := metricsFieldSel(p, lhs); sel != nil {
					p.Reportf(lhs.Pos(), "direct write to netsim.Metrics.%s: all accounting goes through Metrics methods (CountSend/Add)", sel.Obj().Name())
				}
			}
		case *ast.IncDecStmt:
			if sel := metricsFieldSel(p, n.X); sel != nil {
				p.Reportf(n.Pos(), "direct %s of netsim.Metrics.%s: all accounting goes through Metrics methods (CountSend/Add)", n.Tok, sel.Obj().Name())
			}
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				if sel := metricsFieldSel(p, n.X); sel != nil {
					p.Reportf(n.Pos(), "taking the address of netsim.Metrics.%s opens a mutation path outside the accounting methods", sel.Obj().Name())
				}
			}
		}
		return true
	})
}

// metricsFieldSel returns the selection when expr selects a field of
// netsim.Metrics, else nil.
func metricsFieldSel(p *Pass, expr ast.Expr) *types.Selection {
	selExpr, ok := ast.Unparen(expr).(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	sel := p.Info.Selections[selExpr]
	if sel == nil || sel.Kind() != types.FieldVal {
		return nil
	}
	if !isNamed(sel.Recv(), netsimPath, metricsName) {
		return nil
	}
	return sel
}
