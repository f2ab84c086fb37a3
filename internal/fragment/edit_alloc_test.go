package fragment

import (
	"testing"

	"paxq/internal/xmark"
	"paxq/internal/xmltree"
)

// xmarkFrag0 cuts an XMark document of the given shape at 7 random
// elements (seed 1) and returns the root fragment. With 4 sites of
// 125 000 bytes it is the benchmark's pinned cut, whose root fragment
// holds 31 380 nodes; with 1 site of 16 000 bytes the root fragment holds
// 1 046.
func xmarkFrag0(tb testing.TB, sites, bytes int) *Fragment {
	tb.Helper()
	tr := xmark.Generate(sites, xmark.Calibrate().SpecForBytes(bytes), 1)
	ft, err := Cut(tr, RandomCuts(tr, 7, 1))
	if err != nil {
		tb.Fatal(err)
	}
	return ft.Root()
}

// patchEdits is the benchmark's edit pair: <patch><v>1</v></patch> inserted
// as the first child of the fragment root, then deleted again.
func patchEdits() (ins, del Edit) {
	patch := xmltree.El("patch", xmltree.ElT("v", "1"))
	return Edit{Op: EditInsert, Node: 0, Pos: 0, Subtree: patch}, Edit{Op: EditDelete, Node: 1}
}

// BenchmarkApplyEdit times one insert/delete pair on the 31 380-node root
// fragment of the pinned XMark cut.
func BenchmarkApplyEdit(b *testing.B) {
	f := xmarkFrag0(b, 4, 125_000)
	f.Arena()
	ins, del := patchEdits()
	b.ReportAllocs()
	for b.Loop() {
		mid, err := f.ApplyEdit(ins)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := mid.ApplyEdit(del); err != nil {
			b.Fatal(err)
		}
	}
}

// TestApplyEditAllocsIndependentOfSize pins a site edit's allocations to
// the edit, not the fragment: an insert and a delete each allocate at most
// 200 times, and a 31 380-node fragment allocates within 10 of a
// 1 046-node one for the same edit.
func TestApplyEditAllocsIndependentOfSize(t *testing.T) {
	ins, del := patchEdits()
	count := func(f *Fragment) (insAllocs, delAllocs float64) {
		f.Arena()
		mid, err := f.ApplyEdit(ins)
		if err != nil {
			t.Fatal(err)
		}
		insAllocs = testing.AllocsPerRun(5, func() { f.ApplyEdit(ins) })
		delAllocs = testing.AllocsPerRun(5, func() { mid.ApplyEdit(del) })
		return insAllocs, delAllocs
	}
	bigIns, bigDel := count(xmarkFrag0(t, 4, 125_000))
	smallIns, smallDel := count(xmarkFrag0(t, 1, 16_000))
	t.Logf("insert: %.0f allocs on 31 380 nodes, %.0f on 1 046; delete: %.0f and %.0f", bigIns, smallIns, bigDel, smallDel)
	for _, c := range []struct {
		op         string
		big, small float64
	}{{"insert", bigIns, smallIns}, {"delete", bigDel, smallDel}} {
		if c.big > 200 || c.small > 200 {
			t.Errorf("%s allocates %.0f (large fragment) and %.0f (small) times, want at most 200", c.op, c.big, c.small)
		}
		if d := c.big - c.small; d > 10 || d < -10 {
			t.Errorf("%s allocations differ by %.0f between fragment sizes, want at most 10", c.op, d)
		}
	}
}
