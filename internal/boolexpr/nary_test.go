package boolexpr

import (
	"math/rand"
	"testing"
)

// refNary is nary as it was before the fold-before-allocate fast path: it
// always builds out/seen. It also reports how many operands survived
// folding, flattening, deduplication and absorption. Kept as the oracle
// for the fast path.
func refNary(op Op, fs []*Formula) (*Formula, int) {
	identity, absorber := tru, fls
	if op == OpOr {
		identity, absorber = fls, tru
	}
	out := make([]*Formula, 0, len(fs))
	seen := make(map[*Formula]bool, len(fs))
	var add func(f *Formula) bool
	add = func(f *Formula) bool {
		if f == absorber || f.op == absorber.op {
			return false
		}
		if f == identity || f.op == identity.op {
			return true
		}
		if f.op == op {
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
			return absorber, 0
		}
	}
	for _, f := range out {
		if f.op == OpNot && seen[f.kids[0]] {
			return absorber, 0
		}
	}
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
	out = kept
	switch len(out) {
	case 0:
		return identity, 0
	case 1:
		return out[0], 1
	}
	return &Formula{op: op, kids: out}, len(out)
}

// TestNaryFoldAllocs pins the fast path: folding constants into at most
// one distinct operand allocates nothing, through the package constructors
// and through a Builder, and a warmed Builder finds a node it already holds
// without allocating.
func TestNaryFoldAllocs(t *testing.T) {
	x, y := V(1), V(2)
	or, and := Or(x, y), And(x, y)
	b := &Builder{}
	bx, by, bz := b.V(1), b.V(2), b.V(3)
	bor, band, bnot := b.Or(bx, by), b.And(bx, by), b.Not(bx)
	band3 := b.And(band, bz)
	bmid := b.And(b.And(bx, b.V(4)), bz) // shares band3's key, so lives in more
	cases := []struct {
		name string
		fn   func() *Formula
		want *Formula
	}{
		{"Or(False,False)", func() *Formula { return Or(False(), False()) }, False()},
		{"Or(x,False)", func() *Formula { return Or(x, False()) }, x},
		{"And(True,x)", func() *Formula { return And(True(), x) }, x},
		{"Or(x,x)", func() *Formula { return Or(x, x) }, x},
		{"And(x,True,x)", func() *Formula { return And(x, True(), x) }, x},
		{"Or(x|y,False)", func() *Formula { return Or(or, False()) }, or},
		{"And(x&y,x&y)", func() *Formula { return And(and, and) }, and},
		{"And(x,False)", func() *Formula { return And(x, False()) }, False()},
		{"Builder.Or(x,False)", func() *Formula { return b.Or(bx, b.False()) }, bx},
		{"Builder.And(x&y,x&y)", func() *Formula { return b.And(band, band) }, band},
		{"Builder.Not(!x)", func() *Formula { return b.Not(bnot) }, bx},
		{"Builder.V(1)", func() *Formula { return b.V(1) }, bx},
		{"Builder.Or(x,y)", func() *Formula { return b.Or(bx, by) }, bor},
		{"Builder.Not(x)", func() *Formula { return b.Not(bx) }, bnot},
		{"Builder.And(x,y&z)", func() *Formula { return b.And(bx, b.And(by, bz)) }, band3},
		{"Builder.And(x&w,z)", func() *Formula { return b.And(b.And(bx, b.V(4)), bz) }, bmid},
	}
	for _, c := range cases {
		if got := c.fn(); got != c.want {
			t.Errorf("%s = %v, want %v (pointer-identical)", c.name, got, c.want)
		}
		if allocs := testing.AllocsPerRun(100, func() { c.fn() }); allocs != 0 {
			t.Errorf("%s allocates %.1f times per call, want 0", c.name, allocs)
		}
	}
}

// TestNaryMatchesReference runs seeded random operand lists through And
// and Or and through refNary. When the reference keeps at most one
// operand, the results are the same pointer; otherwise they are Equal.
func TestNaryMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 10000; i++ {
		// A pool of leaves, negations and same-/dual-op composites over
		// four variables; operand lists draw from it with repetition, so
		// repeated pointers and x/¬x pairs are common.
		var pool []*Formula
		for v := Var(1); v <= 4; v++ {
			x := V(v)
			pool = append(pool, x, Not(x))
		}
		for len(pool) < 14 {
			a, b := pool[r.Intn(len(pool))], pool[r.Intn(len(pool))]
			if r.Intn(2) == 0 {
				pool = append(pool, And(a, b))
			} else {
				pool = append(pool, Or(a, b))
			}
		}
		pool = append(pool, True(), False())
		fs := make([]*Formula, r.Intn(6))
		for j := range fs {
			fs[j] = pool[r.Intn(len(pool))]
		}
		for _, op := range []Op{OpAnd, OpOr} {
			var got *Formula
			if op == OpAnd {
				got = And(fs...)
			} else {
				got = Or(fs...)
			}
			want, survivors := refNary(op, fs)
			if survivors <= 1 && got != want {
				t.Fatalf("case %d: %v%v = %v, want the same pointer as %v", i, op, fs, got, want)
			}
			if !Equal(got, want) {
				t.Fatalf("case %d: %v%v = %v, want %v", i, op, fs, got, want)
			}
		}
	}
}
