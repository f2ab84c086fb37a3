package arena

import (
	"testing"

	"paxq/internal/xmark"
	"paxq/internal/xmltree"
)

func benchTree(b *testing.B) *xmltree.Tree {
	b.Helper()
	return xmark.Generate(2, xmark.DefaultSite.Scale(0.05), 3)
}

// BenchmarkArenaFromTree measures columnar construction — the one-time
// per-fragment cost the vector evaluator amortizes across queries.
func BenchmarkArenaFromTree(b *testing.B) {
	tree := benchTree(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		FromTree(tree)
	}
}

// BenchmarkArenaKernelSweep measures one steady-state mask round: the
// AND/OR/NOT word sweeps plus both structural joins, with preallocated
// operands — the inner loop of the vector Stage-1 pass.
func BenchmarkArenaKernelSweep(b *testing.B) {
	a := FromTree(benchTree(b))
	n := a.Len()
	src, dst, tmp := NewBitset(n), NewBitset(n), NewBitset(n)
	src.CopyFrom(a.Elements())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tmp.SetAnd(src, a.Elements())
		tmp.SetOr(tmp, src)
		tmp.SetNot(tmp, n)
		tmp.SetAndNot(src, tmp)
		a.ParentScatter(src, dst)
		a.StrictDescendants(src, dst)
	}
}

// BenchmarkArenaJoins measures each structural join alone on the
// all-elements source of BenchmarkArenaKernelSweep and on two selective
// label-mask sources, the shape of most qualifier predicates and steps:
// listitem, the deepest repeated element of the generator (XMark's
// keywords sit inside it), and person. ParentIn takes the source as its
// candidates and every element as the parents. Every join costs the bits
// it reads and sets plus a pass over the words, so the selective sources
// run far below the elements.
func BenchmarkArenaJoins(b *testing.B) {
	a := FromTree(benchTree(b))
	dst := NewBitset(a.Len())
	sources := []struct {
		name string
		src  Bitset
	}{
		{"elements", a.Elements()},
		{"listitem", a.LabelMask("listitem")},
		{"person", a.LabelMask("person")},
	}
	for _, s := range sources {
		b.Run(s.name+"/ParentScatter", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				a.ParentScatter(s.src, dst)
			}
		})
		b.Run(s.name+"/StrictDescendants", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				a.StrictDescendants(s.src, dst)
			}
		})
		b.Run(s.name+"/ParentIn", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				a.ParentIn(s.src, a.Elements(), dst)
			}
		})
		b.Run(s.name+"/DescendantsOrSelf", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				a.DescendantsOrSelf(s.src, dst)
			}
		})
	}
}
