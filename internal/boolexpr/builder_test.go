package boolexpr

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// formulaAlg is the constructor surface a random recipe builds through:
// either the package constructors or a Builder.
type formulaAlg interface {
	V(Var) *Formula
	Not(*Formula) *Formula
	And(x, y *Formula) *Formula
	Or(x, y *Formula) *Formula
}

// pkgAlg builds through the package constructors, whose every V call is a
// pointer-distinct leaf — the shape separate traversal paths produce.
type pkgAlg struct{}

func (pkgAlg) V(v Var) *Formula           { return V(v) }
func (pkgAlg) Not(f *Formula) *Formula    { return Not(f) }
func (pkgAlg) And(x, y *Formula) *Formula { return And(x, y) }
func (pkgAlg) Or(x, y *Formula) *Formula  { return Or(x, y) }

// recipe builds a random formula over variables 1..nv through alg; the
// same rand state yields the same recipe whatever alg builds it.
func recipe(alg formulaAlg, r *rand.Rand, depth, nv int) *Formula {
	if depth == 0 || r.Intn(4) == 0 {
		switch r.Intn(4) {
		case 0:
			return True()
		case 1:
			return False()
		default:
			return alg.V(Var(1 + r.Intn(nv)))
		}
	}
	switch r.Intn(3) {
	case 0:
		return alg.Not(recipe(alg, r, depth-1, nv))
	case 1:
		x := recipe(alg, r, depth-1, nv)
		y := recipe(alg, r, depth-1, nv)
		return alg.And(alg.And(x, y), recipe(alg, r, depth-1, nv))
	default:
		x := recipe(alg, r, depth-1, nv)
		return alg.Or(x, recipe(alg, r, depth-1, nv))
	}
}

func TestBuilderCrossPointerDedup(t *testing.T) {
	b := &Builder{}
	// x ∧ x from two V calls: one leaf, so the conjunction is that leaf.
	if got := b.And(b.V(1), b.V(1)); got != b.V(1) {
		t.Errorf("x∧x = %v, want the interned leaf x1", got)
	}
	// x ∧ ¬x from separate V calls collapses to false.
	if got := b.And(b.V(2), b.Not(b.V(2))); !got.IsFalse() {
		t.Errorf("x∧¬x = %v, want false", got)
	}
	// Absorption across separate V calls: x ∨ (x ∧ y) → x.
	if got := b.Or(b.V(3), b.And(b.V(3), b.V(4))); got != b.V(3) {
		t.Errorf("x∨(x∧y) = %v, want x3", got)
	}
}

func TestBuilderIdenticalSubtreesShare(t *testing.T) {
	b := &Builder{}
	// Two structurally equal conjunctions built separately are one node,
	// so their disjunction collapses to it.
	mk := func() *Formula { return b.And(b.V(1), b.V(2)) }
	if x, y := mk(), mk(); x != y {
		t.Errorf("structurally equal subtrees built as distinct nodes: %v vs %v", x, y)
	}
	if got := b.Or(mk(), mk()); got != mk() {
		t.Errorf("(x∧y)∨(x∧y) = %v, want x∧y", got)
	}
	// Different calls that flatten to the same operands meet in one node.
	l := b.And(b.And(b.V(1), b.V(2)), b.V(3))
	r := b.And(b.V(1), b.And(b.V(2), b.V(3)))
	if l != r {
		t.Errorf("(x∧y)∧z and x∧(y∧z) built as distinct nodes: %v vs %v", l, r)
	}
	// Nodes with equal operator, arity, first and last child but a
	// different middle child are distinct, and each is found again.
	mid := func(v Var) *Formula { return b.And(b.And(b.V(1), b.V(v)), b.V(9)) }
	if x2, x3 := mid(2), mid(3); x2 == x3 || mid(2) != x2 || mid(3) != x3 {
		t.Errorf("x1∧x2∧x9 and x1∧x3∧x9: %v, %v; rebuilt %v, %v", x2, x3, mid(2), mid(3))
	}
}

// Property: a Builder's formula is never larger than the package
// constructors' formula of the same recipe.
func TestQuickBuilderNeverGrows(t *testing.T) {
	f := func(seed int64) bool {
		plain := recipe(pkgAlg{}, rand.New(rand.NewSource(seed)), 5, 6)
		canon := recipe(&Builder{}, rand.New(rand.NewSource(seed)), 5, 6)
		return len(Encode(canon)) <= len(Encode(plain)) && canon.Size() <= plain.Size()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: a Builder's formula agrees with the package constructors' one
// under every assignment of a small variable set — the invariant that lets
// sites ship what they build without changing any query answer.
func TestQuickBuilderPreservesSemantics(t *testing.T) {
	const nv = 4
	f := func(seed int64) bool {
		plain := recipe(pkgAlg{}, rand.New(rand.NewSource(seed)), 5, nv)
		canon := recipe(&Builder{}, rand.New(rand.NewSource(seed)), 5, nv)
		for mask := 0; mask < 1<<nv; mask++ {
			get := func(v Var) bool { return mask&(1<<(int(v)-1)) != 0 }
			if plain.Eval(get) != canon.Eval(get) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

func TestBuilderSharesAcrossVectorEntries(t *testing.T) {
	b := &Builder{}
	vec := []*Formula{
		b.And(b.V(1), b.V(2)),
		b.Or(b.And(b.V(1), b.V(2)), b.And(b.V(1), b.V(2))),
	}
	if vec[0] != vec[1] {
		t.Errorf("vector entries did not share canonical nodes: %v vs %v", vec[0], vec[1])
	}
}
