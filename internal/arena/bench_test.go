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
