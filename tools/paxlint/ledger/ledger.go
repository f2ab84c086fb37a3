// Package ledger protects the per-query cost-conservation guarantee
// (Σ per-query ledgers = transport lifetime totals):
//
//   - outside internal/dist, no non-test code may touch the shared
//     transport counters: a call to Metrics() — and above all a Reset() —
//     on the shared instance is exactly the PR 2 race class in which one
//     query zeroes the counters another query is accounting against.
//     Per-query accounting derives from CallCosts; the one legitimate
//     read-only snapshot (Cluster.TransportStats) carries a reviewed
//     allow marker.
//   - compute-timing code must measure with the monotonic clock:
//     time.Now().Sub(t) and UnixNano() differences re-derive durations
//     from wall-clock readings, which jump under clock adjustment and
//     would let a compute ledger drift from the transport's totals.
//     time.Since(t) (and t2.Sub(t1) on Times that both carry a monotonic
//     reading) is the accepted form.
//
// Test files are exempt: conservation tests legitimately read the shared
// counters to assert the invariant this analyzer protects.
package ledger

import (
	"go/ast"
	"go/token"
	"strings"

	"paxq/tools/paxlint/analysis"
)

// Analyzer is the ledger-conservation invariant suite.
var Analyzer = &analysis.Analyzer{
	Name: "ledger",
	Doc:  "forbid shared transport-metrics access outside internal/dist and non-monotonic compute timing",
	Run:  run,
}

func distPkg(pkgPath string) bool {
	return pkgPath == "internal/dist" || strings.HasSuffix(pkgPath, "/internal/dist")
}

func run(pass *analysis.Pass) error {
	inDist := distPkg(pass.PkgPath)
	for _, f := range pass.Files {
		if pass.IsTestFile(f) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.CallExpr:
				checkCall(pass, x, inDist)
			case *ast.BinaryExpr:
				checkWallArithmetic(pass, x)
			}
			return true
		})
	}
	return nil
}

func checkCall(pass *analysis.Pass, call *ast.CallExpr, inDist bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return
	}
	switch sel.Sel.Name {
	case "Metrics":
		if !inDist && len(call.Args) == 0 {
			pass.Reportf(sel.Sel.Pos(), "shared transport metrics accessed outside internal/dist: per-query accounting must derive from CallCosts, not the shared counters")
		}
	case "Reset":
		if !inDist && len(call.Args) == 0 {
			pass.Reportf(sel.Sel.Pos(), "Reset() of shared counters outside internal/dist: resetting transport metrics races with concurrent queries' ledgers")
		}
	case "Sub":
		// time.Now().Sub(t): a wall-clock reading consumed immediately —
		// time.Since(t) is the monotonic-safe spelling.
		if inner, ok := sel.X.(*ast.CallExpr); ok && isPkgCall(inner, "time", "Now") && len(call.Args) == 1 {
			pass.Reportf(sel.Sel.Pos(), "time.Now().Sub(t) re-derives a duration from a wall-clock reading; use the monotonic time.Since(t)")
		}
	}
}

// checkWallArithmetic flags t1.UnixNano() - t2.UnixNano(): the conversion
// to a wall-clock integer drops the monotonic reading, so the difference
// is not adjustment-safe.
func checkWallArithmetic(pass *analysis.Pass, bin *ast.BinaryExpr) {
	if bin.Op != token.SUB {
		return
	}
	if isMethodCall(bin.X, "UnixNano") && isMethodCall(bin.Y, "UnixNano") {
		pass.Reportf(bin.OpPos, "UnixNano() difference is wall-clock arithmetic; compute ledgers must use the monotonic time.Since")
	}
}

func isPkgCall(call *ast.CallExpr, pkg, name string) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != name {
		return false
	}
	id, ok := sel.X.(*ast.Ident)
	return ok && id.Name == pkg
}

func isMethodCall(e ast.Expr, name string) bool {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return false
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	return ok && sel.Sel.Name == name
}
