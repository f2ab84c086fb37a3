// Package lockheld guards against the deadlock-and-latency class that
// replication would otherwise walk into: performing a transport round trip — or any network / file I/O —
// while holding a sync.Mutex or sync.RWMutex. A handler blocked on I/O
// under a lock stalls every other goroutine needing that lock; if the
// I/O completion itself needs the lock (a response handler updating the
// same state), the process deadlocks.
//
// The analysis is a conservative syntactic walk over each function body:
// x.Lock()/x.RLock() marks x held until the matching x.Unlock()/x.RUnlock()
// in straight-line code (a deferred Unlock holds to function end). While
// any lock is held, calls matching the I/O shapes below are flagged:
//
//   - Transport round trips: a 3-argument .Call(...) or a stage fan-out,
//     fanOut(...)
//   - Dialing and listening: .DialContext(...), net.Dial*/net.Listen*
//   - HTTP round trips: http.Get/Post/Head and client .Do(...)
//   - File-system mutation/reads: os.Open/Create/ReadFile/WriteFile/...
//
// Branch and loop bodies are analyzed with a copy of the held set and
// releases inside them do not leak out, so an early-unlock-and-return
// branch never produces a false positive; function literals are analyzed
// as fresh functions (a spawned goroutine does not inherit the caller's
// lock scope). The trade-off is deliberate: miss some violations rather
// than cry wolf.
package lockheld

import (
	"go/ast"
	"go/token"

	"paxq/tools/paxlint/analysis"
)

// Analyzer is the no-I/O-under-lock invariant.
var Analyzer = &analysis.Analyzer{
	Name: "lockheld",
	Doc:  "forbid transport calls and network/file I/O while holding a sync.Mutex/RWMutex",
	Run:  run,
}

// osIO is the flagged set of file-system package functions.
var osIO = map[string]bool{
	"Open": true, "OpenFile": true, "Create": true, "ReadFile": true,
	"WriteFile": true, "Remove": true, "RemoveAll": true, "Rename": true,
	"Mkdir": true, "MkdirAll": true, "ReadDir": true,
}

// netIO is the flagged set of net/http package functions.
var netIO = map[string]bool{
	"Dial": true, "DialTimeout": true, "DialUDP": true, "DialTCP": true,
	"Listen": true, "ListenPacket": true, "ListenTCP": true,
	"Get": true, "Post": true, "PostForm": true, "Head": true,
}

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		if pass.IsTestFile(f) {
			continue
		}
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				c := &checker{pass: pass}
				c.walkStmts(fd.Body.List, map[string]token.Pos{})
			}
		}
	}
	return nil
}

type checker struct {
	pass *analysis.Pass
}

// walkStmts processes a statement list, threading the held-lock set
// (mutex expression → Lock position) through straight-line code.
func (c *checker) walkStmts(stmts []ast.Stmt, held map[string]token.Pos) {
	for _, stmt := range stmts {
		c.walkStmt(stmt, held)
	}
}

func (c *checker) walkStmt(stmt ast.Stmt, held map[string]token.Pos) {
	switch s := stmt.(type) {
	case *ast.ExprStmt:
		if key, locked, ok := lockOp(s.X); ok {
			if locked {
				held[key] = s.X.Pos()
			} else {
				delete(held, key)
			}
			return
		}
		c.scanExpr(s.X, held)
	case *ast.DeferStmt:
		// A deferred Unlock releases at return: the lock is held for the
		// rest of this function body, which is exactly the state `held`
		// already records — nothing to do. Deferred function literals run
		// after the enclosing frame released its locks, so they are
		// analyzed as fresh functions.
		if _, _, ok := lockOp(s.Call); ok {
			return
		}
		c.scanExpr(s.Call, map[string]token.Pos{})
	case *ast.GoStmt:
		// The spawned goroutine does not inherit this frame's lock scope.
		c.scanExpr(s.Call, map[string]token.Pos{})
	case *ast.AssignStmt:
		for _, e := range s.Rhs {
			c.scanExpr(e, held)
		}
	case *ast.DeclStmt:
		c.scanExpr(nil, held) // no-op; declarations with values handled below
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, v := range vs.Values {
						c.scanExpr(v, held)
					}
				}
			}
		}
	case *ast.ReturnStmt:
		for _, e := range s.Results {
			c.scanExpr(e, held)
		}
	case *ast.IfStmt:
		if s.Init != nil {
			c.walkStmt(s.Init, held)
		}
		c.scanExpr(s.Cond, held)
		c.walkStmts(s.Body.List, copyHeld(held))
		if s.Else != nil {
			c.walkStmt(s.Else, copyHeld(held))
		}
	case *ast.ForStmt:
		if s.Init != nil {
			c.walkStmt(s.Init, held)
		}
		if s.Cond != nil {
			c.scanExpr(s.Cond, held)
		}
		c.walkStmts(s.Body.List, copyHeld(held))
	case *ast.RangeStmt:
		c.scanExpr(s.X, held)
		c.walkStmts(s.Body.List, copyHeld(held))
	case *ast.BlockStmt:
		c.walkStmts(s.List, held)
	case *ast.SwitchStmt:
		if s.Init != nil {
			c.walkStmt(s.Init, held)
		}
		if s.Tag != nil {
			c.scanExpr(s.Tag, held)
		}
		c.walkStmts(s.Body.List, held)
	case *ast.TypeSwitchStmt:
		c.walkStmts(s.Body.List, held)
	case *ast.SelectStmt:
		c.walkStmts(s.Body.List, held)
	case *ast.CaseClause:
		for _, e := range s.List {
			c.scanExpr(e, held)
		}
		c.walkStmts(s.Body, copyHeld(held))
	case *ast.CommClause:
		c.walkStmts(s.Body, copyHeld(held))
	case *ast.LabeledStmt:
		c.walkStmt(s.Stmt, held)
	case *ast.SendStmt:
		c.scanExpr(s.Chan, held)
		c.scanExpr(s.Value, held)
	}
}

// scanExpr reports banned calls inside e while locks are held, and
// analyzes function literals as fresh functions.
func (c *checker) scanExpr(e ast.Expr, held map[string]token.Pos) {
	if e == nil {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.FuncLit:
			c.walkStmts(x.Body.List, map[string]token.Pos{})
			return false
		case *ast.CallExpr:
			if len(held) > 0 {
				if what, ok := bannedCall(x); ok {
					key, pos := anyHeld(held)
					c.pass.Reportf(x.Pos(), "%s while holding %s (locked at %s): transport and I/O must happen outside critical sections", what, key, c.pass.Fset.Position(pos))
				}
			}
		}
		return true
	})
}

// lockOp matches x.Lock()/x.RLock()/x.Unlock()/x.RUnlock() and returns
// the mutex expression key and whether it acquires.
func lockOp(e ast.Expr) (key string, locked, ok bool) {
	call, isCall := e.(*ast.CallExpr)
	if !isCall || len(call.Args) != 0 {
		return "", false, false
	}
	sel, isSel := call.Fun.(*ast.SelectorExpr)
	if !isSel {
		return "", false, false
	}
	switch sel.Sel.Name {
	case "Lock", "RLock":
		return exprKey(sel.X), true, true
	case "Unlock", "RUnlock":
		return exprKey(sel.X), false, true
	}
	return "", false, false
}

// bannedCall classifies call as a transport round trip or network/file
// I/O, returning a human-readable description.
func bannedCall(call *ast.CallExpr) (string, bool) {
	if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "fanOut" {
		return "stage fan-out", true
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	name := sel.Sel.Name
	switch {
	case name == "Call" && len(call.Args) == 3:
		return "transport Call", true
	case name == "DialContext":
		return "network dial", true
	case name == "Do" && len(call.Args) == 1:
		// http.Client.Do — the only 1-arg Do in this codebase's imports.
		return "HTTP round trip", true
	}
	if pkg, ok := sel.X.(*ast.Ident); ok {
		switch pkg.Name {
		case "net", "http", "tls":
			if netIO[name] {
				return pkg.Name + "." + name, true
			}
		case "os":
			if osIO[name] {
				return "os." + name, true
			}
		}
	}
	return "", false
}

func copyHeld(held map[string]token.Pos) map[string]token.Pos {
	out := make(map[string]token.Pos, len(held))
	for k, v := range held {
		out[k] = v
	}
	return out
}

// anyHeld returns a deterministic representative of the held set (the
// lexically smallest key).
func anyHeld(held map[string]token.Pos) (string, token.Pos) {
	var bestK string
	var bestP token.Pos
	for k, p := range held {
		if bestK == "" || k < bestK {
			bestK, bestP = k, p
		}
	}
	return bestK, bestP
}

func exprKey(e ast.Expr) string {
	switch x := e.(type) {
	case *ast.Ident:
		return x.Name
	case *ast.SelectorExpr:
		return exprKey(x.X) + "." + x.Sel.Name
	case *ast.ParenExpr:
		return exprKey(x.X)
	case *ast.CallExpr:
		return exprKey(x.Fun) + "()"
	case *ast.IndexExpr:
		return exprKey(x.X) + "[…]"
	default:
		return "?"
	}
}
