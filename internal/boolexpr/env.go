package boolexpr

import (
	"errors"
	"fmt"
)

// ErrInconsistent is the sentinel every unification failure wraps: a
// conflicting rebinding, a cyclic binding chain, or a formula that is not
// ground where the theory says it must be. On the coordinator these
// conditions can only be produced by corrupt or malicious site responses,
// so the evaluation algorithms surface them as query errors matching
// errors.Is(err, ErrInconsistent) — never as panics of a serving process.
var ErrInconsistent = errors.New("boolexpr: inconsistent bindings")

// Env is a (partial) binding of variables to formulas. It is the vehicle of
// unification: the coordinator binds the variables a site introduced for a
// virtual node to the (possibly still symbolic) vector entries reported by
// the sub-fragment, then resolves.
//
// Env is not safe for concurrent mutation; concurrent reads are fine.
type Env struct {
	m map[Var]*Formula
}

// NewEnv returns an empty environment.
func NewEnv() *Env { return &Env{m: make(map[Var]*Formula)} }

// Len returns the number of bound variables.
func (e *Env) Len() int { return len(e.m) }

// Bind binds v to f. Rebinding a variable to a different formula means
// two parties disagree about the same vector entry — on the coordinator,
// a corrupt site response — and returns an error wrapping ErrInconsistent
// rather than silently corrupting an answer.
func (e *Env) Bind(v Var, f *Formula) error {
	if v == NoVar {
		return fmt.Errorf("%w: Bind(NoVar)", ErrInconsistent)
	}
	if old, ok := e.m[v]; ok && !Equal(old, f) {
		return fmt.Errorf("%w: rebinding x%d from %v to %v", ErrInconsistent, v, old, f)
	}
	e.m[v] = f
	return nil
}

// BindConst binds v to the constant b, with Bind's conflict semantics.
func (e *Env) BindConst(v Var, b bool) error { return e.Bind(v, Const(b)) }

// Resolve substitutes bindings into f, transitively following variable
// chains (a variable may be bound to a formula that itself mentions bound
// variables, as happens when a parent fragment's variables are expressed in
// terms of a grandchild fragment's variables). Unbound variables remain
// symbolic. Resolve detects binding cycles and panics: the fragment tree is
// acyclic, so a cycle indicates a bug in vector plumbing.
func (e *Env) Resolve(f *Formula) *Formula {
	// Constants, unbound variables and variables bound to constants are
	// the common case on the evaluation paths; they resolve to a formula
	// that already exists, with no memo to build.
	switch f.op {
	case OpTrue, OpFalse:
		return f
	case OpVar:
		if b := e.m[f.v]; b == nil {
			return f
		} else if b.op == OpTrue || b.op == OpFalse {
			return b
		}
	}
	memo := make(map[*Formula]*Formula)
	return e.resolve(f, memo, make(map[Var]bool))
}

func (e *Env) resolve(f *Formula, memo map[*Formula]*Formula, onPath map[Var]bool) *Formula {
	if r, ok := memo[f]; ok {
		return r
	}
	var out *Formula
	switch f.op {
	case OpTrue, OpFalse:
		out = f
	case OpVar:
		bound := e.m[f.v]
		if bound == nil {
			out = f
		} else {
			if onPath[f.v] {
				// Resolve's recursive shape cannot thread an error without
				// taxing every frame of the hot path; it panics with an
				// ErrInconsistent-wrapping error value that the engine's
				// recovery boundary turns back into a typed query error.
				//paxlint:allow nopanic(typed ErrInconsistent value; recovered at the engine boundary into a query error)
				panic(fmt.Errorf("%w: cyclic binding through x%d", ErrInconsistent, f.v))
			}
			onPath[f.v] = true
			out = e.resolve(bound, memo, onPath)
			delete(onPath, f.v)
		}
	case OpNot:
		out = Not(e.resolve(f.kids[0], memo, onPath))
	case OpAnd, OpOr:
		// And/Or copy their operands, so short operand lists can live in a
		// stack buffer.
		var buf [8]*Formula
		kids := buf[:0]
		for _, k := range f.kids {
			kids = append(kids, e.resolve(k, memo, onPath))
		}
		if f.op == OpAnd {
			out = And(kids...)
		} else {
			out = Or(kids...)
		}
	default:
		// Unreachable for formulas built through this package's
		// constructors; same recovery contract as the cycle panic above.
		//paxlint:allow nopanic(typed ErrInconsistent value; recovered at the engine boundary into a query error)
		panic(fmt.Errorf("%w: corrupt formula op %d", ErrInconsistent, f.op))
	}
	// Memoization is only safe for subterms that do not depend on the
	// variable path, which holds because bindings are acyclic; on the rare
	// panic path we never get here.
	memo[f] = out
	return out
}

// MustResolveConst resolves f and returns its constant value, panicking if
// any variable remains unbound. The evaluation algorithms call this at the
// point where the theory guarantees groundness (after evalFT unification).
func (e *Env) MustResolveConst(f *Formula) bool {
	r := e.Resolve(f)
	val, ok := r.IsConst()
	if !ok {
		panic(fmt.Errorf("%w: formula not ground after resolution: %v", ErrInconsistent, r))
	}
	return val
}
