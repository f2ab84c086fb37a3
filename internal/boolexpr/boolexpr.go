// Formula representation and smart constructors; package docs in doc.go.

package boolexpr

import (
	"fmt"
	"sort"
	"strings"
)

// Var identifies a Boolean variable. Variable identity is global within a
// query evaluation; the mapping from a Var to its meaning (which fragment,
// which vector, which entry) is maintained by the caller, typically through
// a deterministic naming scheme such as parbox.VarScheme.
type Var int32

// NoVar is the zero Var and is never allocated.
const NoVar Var = 0

// Op enumerates formula node kinds.
type Op uint8

// Formula node kinds.
const (
	OpFalse Op = iota
	OpTrue
	OpVar
	OpNot
	OpAnd
	OpOr
)

func (o Op) String() string {
	switch o {
	case OpFalse:
		return "false"
	case OpTrue:
		return "true"
	case OpVar:
		return "var"
	case OpNot:
		return "not"
	case OpAnd:
		return "and"
	case OpOr:
		return "or"
	default:
		return fmt.Sprintf("op(%d)", uint8(o))
	}
}

// Formula is an immutable Boolean formula. The zero value is not valid; use
// the package constructors. Formulas may share sub-structure freely.
type Formula struct {
	op   Op
	v    Var        // valid when op == OpVar
	kids []*Formula // valid when op is OpNot (1 kid), OpAnd, OpOr (>=2 kids)
}

// Singleton constants. Pointer equality against these is valid for any
// formula produced by this package's constructors.
var (
	tru = &Formula{op: OpTrue}
	fls = &Formula{op: OpFalse}
)

// True returns the constant true formula.
func True() *Formula { return tru }

// False returns the constant false formula.
func False() *Formula { return fls }

// Const returns the constant formula for b.
func Const(b bool) *Formula {
	if b {
		return tru
	}
	return fls
}

// V returns the formula consisting of the single variable v.
func V(v Var) *Formula {
	if v == NoVar {
		//paxlint:allow nopanic(constructor misuse: NoVar is a compile-time sentinel no data path produces)
		panic("boolexpr: V(NoVar)")
	}
	return &Formula{op: OpVar, v: v}
}

// Op reports the top-level kind of f.
func (f *Formula) Op() Op { return f.op }

// Kids returns the immediate children of f. Callers must not mutate the
// returned slice.
func (f *Formula) Kids() []*Formula { return f.kids }

// IsConst reports whether f is a constant, and its value.
func (f *Formula) IsConst() (val, ok bool) {
	switch f.op {
	case OpTrue:
		return true, true
	case OpFalse:
		return false, true
	}
	return false, false
}

// IsTrue reports whether f is the constant true.
func (f *Formula) IsTrue() bool { return f.op == OpTrue }

// IsFalse reports whether f is the constant false.
func (f *Formula) IsFalse() bool { return f.op == OpFalse }

// Not returns the negation of f with double negations and constants folded.
func Not(f *Formula) *Formula {
	switch f.op {
	case OpTrue:
		return fls
	case OpFalse:
		return tru
	case OpNot:
		return f.kids[0]
	}
	return &Formula{op: OpNot, kids: []*Formula{f}}
}

// And returns the conjunction of fs. Constants are folded, nested
// conjunctions are flattened, duplicates removed, and complementary literal
// pairs (x, ¬x) collapse the whole conjunction to false.
func And(fs ...*Formula) *Formula { return nary(OpAnd, fs) }

// Or returns the disjunction of fs, with simplifications dual to And.
func Or(fs ...*Formula) *Formula { return nary(OpOr, fs) }

func nary(op Op, fs []*Formula) *Formula {
	if r := fold(op, fs); r != nil {
		return r
	}
	r, kids := merge(op, fs, make([]*Formula, 0, len(fs)))
	if r == nil {
		r = &Formula{op: op, kids: kids}
	}
	return r
}

// units returns the identity and absorbing elements of op.
func units(op Op) (identity, absorber *Formula) {
	if op == OpOr {
		return fls, tru
	}
	return tru, fls
}

// fold is nary's pass before allocating: most calls on the evaluation
// paths combine constants with at most one distinct symbolic operand, and
// the result is that operand. merge would return it too, except for an
// op-node, which it flattens and rebuilds into a structurally equal copy;
// returning the node itself saves that copy (its kids are already folded,
// deduplicated and absorption-free, having come through here). fold
// returns nil when two or more distinct symbolic operands remain.
func fold(op Op, fs []*Formula) *Formula {
	identity, absorber := units(op)
	var only *Formula
	for _, f := range fs {
		if f == nil {
			//paxlint:allow nopanic(constructor misuse: operands come from constructors that never return nil)
			panic("boolexpr: nil operand")
		}
		switch {
		case f.op == absorber.op:
			return absorber
		case f.op == identity.op, f == only:
		case only == nil:
			only = f
		default:
			return nil
		}
	}
	if only == nil {
		return identity
	}
	return only
}

// merge is nary's general path. It appends the operands of the op-node
// over fs to out — flattened, deduplicated, with complementary pairs and
// absorption applied — and returns them, or returns the result itself
// when that is a constant or a single operand.
func merge(op Op, fs []*Formula, out []*Formula) (*Formula, []*Formula) {
	identity, absorber := units(op)
	seen := make(map[*Formula]bool, len(fs))
	var add func(f *Formula) bool // returns false if the result is absorbed
	add = func(f *Formula) bool {
		if f == absorber || f.op == absorber.op {
			return false
		}
		if f == identity || f.op == identity.op {
			return true
		}
		if f.op == op { // flatten
			for _, k := range f.kids {
				if !add(k) {
					return false
				}
			}
			return true
		}
		if seen[f] {
			return true
		}
		seen[f] = true
		out = append(out, f)
		return true
	}
	for _, f := range fs {
		if !add(f) {
			return absorber, out
		}
	}
	// Complementary-pair detection on variables and pointer-identical
	// sub-formulas: x ∧ ¬x → false, x ∨ ¬x → true.
	for _, f := range out {
		if f.op == OpNot {
			inner := f.kids[0]
			if seen[inner] {
				return absorber, out
			}
		}
	}
	// Absorption on shared sub-structure: x ∧ (x ∨ y) → x and
	// x ∨ (x ∧ y) → x. Residual formulas share sub-DAGs heavily (the same
	// variable vector entries feed many connectives), so pointer-identity
	// absorption fires often and keeps shipped formulas small.
	dual := OpOr
	if op == OpOr {
		dual = OpAnd
	}
	kept := out[:0]
	for _, f := range out {
		absorbed := false
		if f.op == dual {
			for _, k := range f.kids {
				if seen[k] {
					absorbed = true
					break
				}
			}
		}
		if !absorbed {
			kept = append(kept, f)
		}
	}
	switch len(kept) {
	case 0:
		return identity, kept
	case 1:
		return kept[0], kept
	}
	return nil, kept
}

// Vars appends every distinct variable occurring in f to dst and returns the
// extended slice, sorted ascending.
func (f *Formula) Vars(dst []Var) []Var {
	set := make(map[Var]bool)
	f.visitVars(func(v Var) { set[v] = true }, make(map[*Formula]bool))
	for v := range set {
		dst = append(dst, v)
	}
	sort.Slice(dst, func(i, j int) bool { return dst[i] < dst[j] })
	return dst
}

func (f *Formula) visitVars(fn func(Var), done map[*Formula]bool) {
	if done[f] {
		return
	}
	done[f] = true
	if f.op == OpVar {
		fn(f.v)
		return
	}
	for _, k := range f.kids {
		k.visitVars(fn, done)
	}
}

// HasVars reports whether f mentions any variable, i.e. is not ground.
func (f *Formula) HasVars() bool {
	switch f.op {
	case OpTrue, OpFalse:
		return false
	case OpVar:
		return true
	}
	for _, k := range f.kids {
		if k.HasVars() {
			return true
		}
	}
	return false
}

// Size returns the number of nodes in f counted as a tree (shared subterms
// counted once per occurrence). Useful for asserting communication bounds.
func (f *Formula) Size() int {
	n := 1
	for _, k := range f.kids {
		n += k.Size()
	}
	return n
}

// Eval evaluates f under the total assignment get. It panics if get reports
// no value for a variable; use PartialEval when the assignment may be
// incomplete.
func (f *Formula) Eval(get func(Var) bool) bool {
	switch f.op {
	case OpTrue:
		return true
	case OpFalse:
		return false
	case OpVar:
		return get(f.v)
	case OpNot:
		return !f.kids[0].Eval(get)
	case OpAnd:
		for _, k := range f.kids {
			if !k.Eval(get) {
				return false
			}
		}
		return true
	case OpOr:
		for _, k := range f.kids {
			if k.Eval(get) {
				return true
			}
		}
		return false
	}
	//paxlint:allow nopanic(unreachable: the op switch above is exhaustive for constructor-built formulas)
	panic("boolexpr: corrupt formula")
}

// String renders f in a compact infix syntax, with variables printed as
// x<N>. Deterministic for use in tests and debug logs.
func (f *Formula) String() string {
	var b strings.Builder
	f.write(&b, 0)
	return b.String()
}

// precedence: Or < And < Not/atom
func (f *Formula) write(b *strings.Builder, parentPrec int) {
	prec := 0
	switch f.op {
	case OpTrue:
		b.WriteString("true")
		return
	case OpFalse:
		b.WriteString("false")
		return
	case OpVar:
		fmt.Fprintf(b, "x%d", f.v)
		return
	case OpNot:
		b.WriteString("!")
		f.kids[0].write(b, 3)
		return
	case OpAnd:
		prec = 2
	case OpOr:
		prec = 1
	}
	if prec < parentPrec {
		b.WriteString("(")
	}
	sep := " & "
	if f.op == OpOr {
		sep = " | "
	}
	for i, k := range f.kids {
		if i > 0 {
			b.WriteString(sep)
		}
		k.write(b, prec+1)
	}
	if prec < parentPrec {
		b.WriteString(")")
	}
}

// Equal reports structural equality of a and b. Conjunction/disjunction
// operand order is significant (the constructors preserve insertion order),
// so Equal is primarily useful for formulas built through identical paths.
func Equal(a, b *Formula) bool {
	if a == b {
		return true
	}
	if a.op != b.op || a.v != b.v || len(a.kids) != len(b.kids) {
		return false
	}
	for i := range a.kids {
		if !Equal(a.kids[i], b.kids[i]) {
			return false
		}
	}
	return true
}
