package boolexpr

import (
	"cmp"
	"slices"
)

// Builder builds formulas that are canonical by construction: it interns
// every variable leaf and every composite node by its operator and the
// identities of its children, so two structurally equal formulas it built
// are one pointer, and the constructors' pointer-identity rules (dedup,
// complementary pairs, absorption) fire across subtrees built on separate
// traversal paths. Its binary True/False/FromBool/Not/And/Or make it an
// xpath.Algebra over *Formula.
//
// Operands must be constants or formulas built by the same Builder; any
// other operand yields a correct formula that is not canonical. A Builder
// is not safe for concurrent use. The zero Builder is ready to use, and
// allocates its tables on first insert.
type Builder struct {
	// vars holds the variable leaves sorted by variable. A site creates a
	// visit's variables in ascending order, so an insert is an append,
	// and a sorted slice costs far less than a map per visit.
	vars  []*Formula
	nodes map[nodeKey]*Formula
	// more holds the nodes whose key is taken in nodes by a node with
	// different middle children; only nodes of three or more kids can
	// collide.
	more map[nodeKey][]*Formula
	buf  []*Formula // merge scratch
}

// nodeKey identifies a composite node by its operator, arity and first
// and last child — exactly for up to two children.
type nodeKey struct {
	op          Op
	n           int32
	first, last *Formula
}

// True returns the true formula.
func (*Builder) True() *Formula { return tru }

// False returns the false formula.
func (*Builder) False() *Formula { return fls }

// FromBool returns the constant formula for val.
func (*Builder) FromBool(val bool) *Formula { return Const(val) }

// V returns the canonical leaf of variable v.
func (b *Builder) V(v Var) *Formula {
	i, ok := slices.BinarySearchFunc(b.vars, v, func(f *Formula, v Var) int { return cmp.Compare(f.v, v) })
	if ok {
		return b.vars[i]
	}
	f := V(v)
	b.vars = slices.Insert(b.vars, i, f)
	return f
}

// Not returns the canonical negation of f, folded as Not folds.
func (b *Builder) Not(f *Formula) *Formula {
	switch f.op {
	case OpTrue:
		return fls
	case OpFalse:
		return tru
	case OpNot:
		return f.kids[0]
	}
	kids := [1]*Formula{f}
	return b.node(OpNot, kids[:])
}

// And returns the canonical conjunction of x and y, simplified as And
// simplifies.
func (b *Builder) And(x, y *Formula) *Formula { return b.nary(OpAnd, x, y) }

// Or returns the canonical disjunction of x and y, simplified as Or
// simplifies.
func (b *Builder) Or(x, y *Formula) *Formula { return b.nary(OpOr, x, y) }

func (b *Builder) nary(op Op, x, y *Formula) *Formula {
	fs := [2]*Formula{x, y}
	if r := fold(op, fs[:]); r != nil {
		return r
	}
	r, kids := merge(op, fs[:], b.buf[:0])
	b.buf = kids[:0]
	if r != nil {
		return r
	}
	return b.node(op, kids)
}

// node returns the node this Builder holds for (op, kids), creating it
// with a copy of kids on first sight. A lookup allocates nothing.
func (b *Builder) node(op Op, kids []*Formula) *Formula {
	k := nodeKey{op: op, n: int32(len(kids)), first: kids[0], last: kids[len(kids)-1]}
	c, taken := b.nodes[k]
	if taken && slices.Equal(c.kids, kids) {
		return c
	}
	for _, c := range b.more[k] {
		if slices.Equal(c.kids, kids) {
			return c
		}
	}
	f := &Formula{op: op, kids: slices.Clone(kids)}
	if taken {
		if b.more == nil {
			b.more = make(map[nodeKey][]*Formula)
		}
		b.more[k] = append(b.more[k], f)
	} else {
		if b.nodes == nil {
			b.nodes = make(map[nodeKey]*Formula)
		}
		b.nodes[k] = f
	}
	return f
}
