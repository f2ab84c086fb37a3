package fragment

import (
	"fmt"
	"runtime"
	"runtime/debug"
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

// BenchmarkApplyEdit times the benchmark's edits on the 31 380-node and
// the 1 046-node root fragments of the pinned XMark cut, so that any
// dependence of an edit's cost on the fragment's size shows. Each edit
// applies to the latest version, as a site's do: pair is one insert and
// the delete undoing it; insert, delete and rename time one edit each,
// with the edit restoring the fragment's shape applied outside the timer.
func BenchmarkApplyEdit(b *testing.B) {
	ins, del := patchEdits()
	for _, size := range []struct {
		nodes, sites, bytes int
	}{{31_380, 4, 125_000}, {1_046, 1, 16_000}} {
		apply := func(b *testing.B, f *Fragment, e Edit) *Fragment {
			nf, err := f.ApplyEdit(e)
			if err != nil {
				b.Fatal(err)
			}
			return nf
		}
		f := xmarkFrag0(b, size.sites, size.bytes)
		if n := f.Tree.Len(); n != size.nodes {
			b.Fatalf("root fragment has %d nodes, want %d", n, size.nodes)
		}
		prefix := fmt.Sprintf("nodes=%d/", size.nodes)
		b.Run(prefix+"pair", func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				f = apply(b, apply(b, f, ins), del)
			}
		})
		b.Run(prefix+"insert", func(b *testing.B) {
			b.ReportAllocs()
			for range b.N {
				f = apply(b, f, ins)
				b.StopTimer()
				f = apply(b, f, del)
				b.StartTimer()
			}
		})
		b.Run(prefix+"delete", func(b *testing.B) {
			b.ReportAllocs()
			for range b.N {
				b.StopTimer()
				f = apply(b, f, ins)
				b.StartTimer()
				f = apply(b, f, del)
			}
		})
		b.Run(prefix+"rename", func(b *testing.B) {
			f := apply(b, f, ins)
			labels := [2]string{"fix", "patch"}
			b.ReportAllocs()
			for i := 0; b.Loop(); i++ {
				f = apply(b, f, Edit{Op: EditRename, Node: 1, Label: labels[i&1]})
			}
		})
	}
}

// TestApplyEditAllocsIndependentOfSize pins a site edit's allocations to
// the edit, not the fragment: an insert and a delete each allocate at most
// 200 times, and a 31 380-node fragment allocates within 10 of a
// 1 046-node one for the same edit.
func TestApplyEditAllocsIndependentOfSize(t *testing.T) {
	ins, del := patchEdits()
	count := func(f *Fragment) (insAllocs, delAllocs float64) {
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

// TestApplyEditBytesPerNode pins what a site edit copies to the
// pointer-free index columns and masks: on the 31 380-node fragment an
// insert and a delete, each applied to the latest version as a site's
// are, allocate at most 32 bytes per node of the fragment. The values
// stay in the pool the versions share.
func TestApplyEditBytesPerNode(t *testing.T) {
	if raceEnabled() {
		t.Skip("the race detector's shadow memory makes heap measurements meaningless")
	}
	f := xmarkFrag0(t, 4, 125_000)
	n := f.Tree.Len()
	ins, del := patchEdits()
	apply := func(f *Fragment, e Edit) *Fragment {
		nf, err := f.ApplyEdit(e)
		if err != nil {
			t.Fatal(err)
		}
		return nf
	}
	// The first edit moves the arena's values into a pool with room to
	// append; the measured ones append to it.
	f = apply(apply(f, ins), del)
	const runs = 10
	var insBytes, delBytes uint64
	var ms runtime.MemStats
	for range runs {
		runtime.ReadMemStats(&ms)
		before := ms.TotalAlloc
		mid := apply(f, ins)
		runtime.ReadMemStats(&ms)
		between := ms.TotalAlloc
		f = apply(mid, del)
		runtime.ReadMemStats(&ms)
		insBytes += between - before
		delBytes += ms.TotalAlloc - between
	}
	perNode := func(b uint64) float64 { return float64(b) / runs / float64(n) }
	t.Logf("%d nodes: insert %.1f B/node, delete %.1f B/node", n, perNode(insBytes), perNode(delBytes))
	for _, c := range []struct {
		op    string
		bytes uint64
	}{{"insert", insBytes}, {"delete", delBytes}} {
		if b := perNode(c.bytes); b > 32 {
			t.Errorf("%s allocates %.1f bytes per node, want at most 32", c.op, b)
		}
	}
}

// raceEnabled reports whether the test binary was built with -race.
func raceEnabled() bool {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return false
	}
	for _, s := range bi.Settings {
		if s.Key == "-race" {
			return s.Value == "true"
		}
	}
	return false
}
