// Package ctxflow enforces end-to-end context propagation (the PR 3
// discipline): deadlines and cancellation must flow from the caller all
// the way into every transport round trip.
//
//   - context.Background() and context.TODO() are forbidden in library
//     code (non-test files of non-main packages): a fresh root context in
//     the middle of a call chain silently detaches everything below it
//     from the caller's deadline. Commands own their root context, and
//     tests fabricate contexts freely, so both are exempt. The public
//     blocking convenience wrappers that deliberately start a root
//     context carry reviewed allow markers.
//   - a Transport.Call or stage fan-out (pax's fanOut) invocation must
//     pass a flowed-in context: handing them a context.Background()/TODO()
//     call expression directly defeats the transport's deadline poisoning
//     even in code where a root context is otherwise legitimate.
package ctxflow

import (
	"go/ast"

	"paxq/tools/paxlint/analysis"
)

// Analyzer is the context-propagation invariant suite.
var Analyzer = &analysis.Analyzer{
	Name: "ctxflow",
	Doc:  "forbid context.Background()/TODO() in library code and require flowed contexts into Transport.Call and the stage fan-out",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		if pass.IsTestFile(f) {
			continue
		}
		libCode := !pass.IsMainPkg()
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if libCode {
				if name, ok := rootContextCall(call); ok {
					pass.Reportf(call.Pos(), "context.%s() in library code: thread the caller's context instead of starting a fresh root", name)
					return true
				}
			}
			checkTransportCall(pass, call)
			return true
		})
	}
	return nil
}

// rootContextCall matches context.Background() / context.TODO().
func rootContextCall(call *ast.CallExpr) (string, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || len(call.Args) != 0 {
		return "", false
	}
	pkg, ok := sel.X.(*ast.Ident)
	if !ok || pkg.Name != "context" {
		return "", false
	}
	if sel.Sel.Name == "Background" || sel.Sel.Name == "TODO" {
		return sel.Sel.Name, true
	}
	return "", false
}

// checkTransportCall flags Call/fanOut invocations whose context
// argument is a direct root-context call expression. Transport.Call has
// the shape Call(ctx, site, req); the stage fan-out is
// fanOut(ctx, primaries, mk, seq, call).
func checkTransportCall(pass *analysis.Pass, call *ast.CallExpr) {
	var name string
	switch fn := call.Fun.(type) {
	case *ast.Ident:
		name = fn.Name
	case *ast.SelectorExpr:
		name = fn.Sel.Name
	}
	isCall := name == "Call" && len(call.Args) == 3
	isFanOut := name == "fanOut" && len(call.Args) >= 1
	if !isCall && !isFanOut {
		return
	}
	if arg, ok := call.Args[0].(*ast.CallExpr); ok {
		if root, ok := rootContextCall(arg); ok {
			pass.Reportf(arg.Pos(), "context.%s() passed directly into %s: transport calls must receive the flowed-in context", root, name)
		}
	}
}
