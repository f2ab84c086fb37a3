package arena

import (
	"slices"
	"testing"

	"paxq/internal/xmltree"
)

// buildComb makes a comb-shaped tree: a spine of n elements, each with one
// leaf child — parents and descendants at every level.
func buildComb(n int) *xmltree.Tree {
	root := xmltree.NewElement("s")
	cur := root
	for i := 0; i < n; i++ {
		cur.Append(xmltree.ElT("leaf", "1"))
		next := xmltree.NewElement("s")
		cur.Append(next)
		cur = next
	}
	return xmltree.NewTree(root)
}

// buildChain makes a chain of n nested elements — the deepest tree of n
// nodes, where a join's climb from the leaf crosses every level.
func buildChain(n int) *xmltree.Tree {
	root := xmltree.NewElement("c")
	cur := root
	for i := 1; i < n; i++ {
		next := xmltree.NewElement("c")
		cur.Append(next)
		cur = next
	}
	return xmltree.NewTree(root)
}

// TestBitsetWordBoundaries exercises the kernels at 63/64/65 nodes — the
// sizes where the tail-masking invariant can silently break.
func TestBitsetWordBoundaries(t *testing.T) {
	for _, n := range []int{1, 63, 64, 65, 127, 128, 129} {
		empty := NewBitset(n)
		if empty.Any() || empty.OnesCount() != 0 {
			t.Fatalf("n=%d: fresh bitset not empty", n)
		}
		full := NewBitset(n)
		full.Fill(n)
		if full.OnesCount() != n {
			t.Fatalf("n=%d: Fill set %d bits", n, full.OnesCount())
		}
		// NOT of all-ones is empty; NOT of empty is all-ones — and neither
		// may leak tail bits.
		not := NewBitset(n)
		not.SetNot(full, n)
		if not.OnesCount() != 0 {
			t.Fatalf("n=%d: NOT(ones) has %d bits", n, not.OnesCount())
		}
		not.SetNot(empty, n)
		if not.OnesCount() != n {
			t.Fatalf("n=%d: NOT(empty) has %d bits, want %d", n, not.OnesCount(), n)
		}
		// Boundary bits round-trip through Set/Get/Clear.
		b := NewBitset(n)
		for _, i := range []int{0, n / 2, n - 1} {
			b.Set(i)
			if !b.Get(i) {
				t.Fatalf("n=%d: bit %d not set", n, i)
			}
		}
		if b.OnesCount() == 0 {
			t.Fatalf("n=%d: no bits set", n)
		}
		b.Clear(n - 1)
		if b.Get(n - 1) {
			t.Fatalf("n=%d: bit %d still set after Clear", n, n-1)
		}
		// AND/OR/ANDNOT against full/empty behave as identities/absorbers.
		dst := NewBitset(n)
		dst.SetAnd(b, full)
		if dst.OnesCount() != b.OnesCount() {
			t.Fatalf("n=%d: AND ones changed the set", n)
		}
		dst.SetOr(b, empty)
		if dst.OnesCount() != b.OnesCount() {
			t.Fatalf("n=%d: OR empty changed the set", n)
		}
		dst.SetAndNot(b, b)
		if dst.Any() {
			t.Fatalf("n=%d: ANDNOT self not empty", n)
		}
		// ForEachSet visits exactly the members, ascending.
		b.Zero()
		var want []int
		for _, i := range []int{0, 5, n - 1} {
			if i < n && (len(want) == 0 || i > want[len(want)-1]) {
				want = append(want, i)
			}
		}
		for _, i := range want {
			b.Set(i)
		}
		var got []int
		b.ForEachSet(func(i int) { got = append(got, i) })
		if len(got) != len(want) {
			t.Fatalf("n=%d: ForEachSet visited %v, want %v", n, got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("n=%d: ForEachSet visited %v, want %v", n, got, want)
			}
		}
	}
}

// TestKernelSweepAllocs caps allocations of the steady-state vector sweep:
// with preallocated masks and scratch, one full AND/OR/NOT + join round
// must not allocate — the discipline the wire codec's write path holds.
func TestKernelSweepAllocs(t *testing.T) {
	const n = 1037
	a, b, dst := NewBitset(n), NewBitset(n), NewBitset(n)
	a.Fill(n)
	for i := 0; i < n; i += 7 {
		b.Set(i)
	}
	allocs := testing.AllocsPerRun(100, func() {
		dst.SetAnd(a, b)
		dst.SetOr(dst, b)
		dst.SetAndNot(dst, a)
		dst.SetNot(dst, n)
		dst.CopyFrom(b)
		_ = dst.OnesCount()
		dst.Zero()
	})
	if allocs != 0 {
		t.Fatalf("steady-state kernel sweep allocates %.1f times per run, want 0", allocs)
	}
}

// TestJoinAllocs caps allocations of the structural joins with
// caller-supplied destination masks.
func TestJoinAllocs(t *testing.T) {
	tree := buildComb(300)
	a := FromTree(tree)
	src := NewBitset(a.Len())
	for i := 0; i < a.Len(); i += 5 {
		src.Set(i)
	}
	dst := NewBitset(a.Len())
	allocs := testing.AllocsPerRun(50, func() {
		a.ParentScatter(src, dst)
		a.StrictDescendants(src, dst)
		a.ParentIn(a.Elements(), src, dst)
		a.DescendantsOrSelf(src, dst)
	})
	if allocs != 0 {
		t.Fatalf("structural joins allocate %.1f times per run, want 0", allocs)
	}
}

// TestFillRange holds fillRange to a bit-by-bit fill on every range of a
// 200-node set, whose ends fall at, before and after word boundaries.
func TestFillRange(t *testing.T) {
	const n = 200
	for lo := 0; lo <= n; lo++ {
		for hi := lo - 1; hi <= n; hi++ {
			got, want := NewBitset(n), NewBitset(n)
			got.Set(0) // members outside the range stay
			want.Set(0)
			got.fillRange(lo, hi)
			for i := lo; i < hi; i++ {
				want.Set(i)
			}
			if !slices.Equal(got, want) {
				t.Fatalf("fillRange(%d, %d) = %x, want %x", lo, hi, got, want)
			}
		}
	}
}

func TestAnyInRange(t *testing.T) {
	b := NewBitset(200)
	for _, i := range []int{0, 63, 64, 130, 199} {
		b.Set(i)
	}
	cases := []struct {
		lo, hi int
		want   bool
	}{
		{0, 1, true}, {1, 63, false}, {1, 64, true}, {64, 65, true},
		{65, 130, false}, {65, 131, true}, {131, 199, false},
		{131, 200, true}, {5, 5, false}, {10, 5, false}, {0, 200, true},
	}
	for _, c := range cases {
		if got := b.AnyInRange(c.lo, c.hi); got != c.want {
			t.Errorf("AnyInRange(%d, %d) = %v, want %v", c.lo, c.hi, got, c.want)
		}
	}
	empty := NewBitset(100)
	if empty.AnyInRange(0, 100) {
		t.Error("empty set reported a member")
	}
}

func TestNextSet(t *testing.T) {
	b := NewBitset(200)
	members := []int{0, 63, 64, 130, 199}
	for _, i := range members {
		b.Set(i)
	}
	for lo := 0; lo <= 200; lo++ {
		for hi := lo; hi <= 200; hi++ {
			want := hi
			for _, m := range members {
				if m >= lo && m < hi {
					want = m
					break
				}
			}
			if got := b.NextSet(lo, hi); got != want {
				t.Fatalf("NextSet(%d, %d) = %d, want %d", lo, hi, got, want)
			}
		}
	}
	var got []int
	for j := b.NextSet(1, 199); j < 199; j = b.NextSet(j+1, 199) {
		got = append(got, j)
	}
	if want := []int{63, 64, 130}; !slices.Equal(got, want) {
		t.Errorf("members of [1, 199) = %v, want %v", got, want)
	}
	if got := NewBitset(100).NextSet(0, 100); got != 100 {
		t.Errorf("empty set: NextSet(0, 100) = %d, want 100", got)
	}
}
