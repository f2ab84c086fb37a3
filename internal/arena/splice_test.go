package arena

import (
	"reflect"
	"testing"

	"paxq/internal/xmltree"
)

// applyPointerEdit performs the pointer-tree twin of one splice kernel on
// a clone of t, returning the re-frozen tree, or ok=false when the edit is
// invalid (the kernel must then error too).
func applyPointerEdit(t *xmltree.Tree, op uint8, target, pos int, arg string) (*xmltree.Tree, bool) {
	root := t.Root.Clone()
	t2 := xmltree.NewTree(root)
	nd := t2.Node(xmltree.NodeID(target))
	switch op % 3 {
	case 0: // delete
		if nd == nil || nd.Parent == nil {
			return nil, false
		}
		p := nd.Parent
		for i, c := range p.Children {
			if c == nd {
				p.Children = append(p.Children[:i], p.Children[i+1:]...)
				break
			}
		}
	case 1: // insert
		sub, err := xmltree.ParseString(arg)
		if err != nil || nd == nil || nd.Kind != xmltree.Element || pos > len(nd.Children) {
			return nil, false
		}
		c := sub.Root.Clone()
		c.Parent = nd
		nd.Children = append(nd.Children[:pos], append([]*xmltree.Node{c}, nd.Children[pos:]...)...)
	case 2: // rename
		if nd == nil || nd.Kind != xmltree.Element {
			return nil, false
		}
		nd.Label = arg
	}
	t2.Freeze()
	return t2, true
}

func applyKernel(a *Tree, op uint8, target, pos int, arg string) (*Tree, error) {
	switch op % 3 {
	case 0:
		return a.DeleteSubtree(target)
	case 1:
		sub, err := xmltree.ParseString(arg)
		if err != nil {
			return nil, err
		}
		return a.InsertSubtree(target, pos, sub.Root)
	default:
		return a.Relabel(target, arg)
	}
}

// requireArenasEqual compares every column and derived mask of two arenas.
func requireArenasEqual(t *testing.T, got, want *Tree) {
	t.Helper()
	if got.Len() != want.Len() {
		t.Fatalf("arena length %d, want %d", got.Len(), want.Len())
	}
	n := want.Len()
	for _, col := range []struct {
		name      string
		got, want any
	}{
		{"Text", got.Text, want.Text},
		{"Parent", got.Parent, want.Parent},
		{"FirstChild", got.FirstChild, want.FirstChild},
		{"NextSibling", got.NextSibling, want.NextSibling},
		{"SubtreeEnd", got.SubtreeEnd, want.SubtreeEnd},
		{"Value", got.Value, want.Value},
		{"NumVal", got.NumVal, want.NumVal},
	} {
		if !reflect.DeepEqual(col.got, col.want) {
			t.Fatalf("column %s differs:\n got %v\nwant %v", col.name, col.got, col.want)
		}
	}
	for i := 0; i < n; i++ {
		if got.Elements().Get(i) != want.Elements().Get(i) {
			t.Fatalf("element mask differs at %d", i)
		}
		if got.NumOK.Get(i) != want.NumOK.Get(i) {
			t.Fatalf("NumOK differs at %d", i)
		}
		if want.Elements().Get(i) {
			if got.LabelOf(i) != want.LabelOf(i) {
				t.Fatalf("label at %d: %q, want %q", i, got.LabelOf(i), want.LabelOf(i))
			}
			if !reflect.DeepEqual(got.Attrs(i), want.Attrs(i)) {
				t.Fatalf("attrs at %d differ", i)
			}
		}
	}
	// Label masks agree for the union of label vocabularies.
	for _, l := range append(append([]string(nil), got.labels...), want.labels...) {
		g, w := got.LabelMask(l), want.LabelMask(l)
		for i := 0; i < n; i++ {
			if g.Get(i) != w.Get(i) {
				t.Fatalf("label mask %q differs at %d", l, i)
			}
		}
	}
	if !xmltree.DeepEqual(got.ToTree().Root, want.ToTree().Root) {
		t.Fatal("ToTree round trips differ")
	}
}

func checkSplice(t *testing.T, xml string, op uint8, target, pos int, arg string) {
	t.Helper()
	tree, err := xmltree.ParseString(xml)
	if err != nil {
		t.Skip()
	}
	a := FromTree(tree)
	want, ok := applyPointerEdit(tree, op, target, pos, arg)
	got, kerr := applyKernel(a, op, target, pos, arg)
	if !ok {
		if kerr == nil {
			t.Fatalf("kernel accepted invalid edit op=%d target=%d pos=%d arg=%q on %q", op%3, target, pos, arg, xml)
		}
		return
	}
	if kerr != nil {
		t.Fatalf("kernel rejected valid edit op=%d target=%d pos=%d arg=%q on %q: %v", op%3, target, pos, arg, xml, kerr)
	}
	requireArenasEqual(t, got, FromTree(want))
	// The input arena must be untouched: rebuild and compare.
	requireArenasEqual(t, a, FromTree(xmltree.NewTree(tree.Root)))
}

func TestSpliceDelete(t *testing.T) {
	const doc = `<a><b>1</b><c><d/>t<e>x</e></c><f/></a>`
	tree, _ := xmltree.ParseString(doc)
	for id := 1; id < tree.Size(); id++ {
		checkSplice(t, doc, 0, id, 0, "")
	}
	if _, err := FromTree(tree).DeleteSubtree(0); err == nil {
		t.Fatal("deleting the root must fail")
	}
	if _, err := FromTree(tree).DeleteSubtree(tree.Size()); err == nil {
		t.Fatal("deleting out of range must fail")
	}
}

func TestSpliceInsert(t *testing.T) {
	const doc = `<a><b>1</b><c><d/>t</c></a>`
	tree, _ := xmltree.ParseString(doc)
	for id := 0; id < tree.Size(); id++ {
		for pos := 0; pos <= 4; pos++ {
			checkSplice(t, doc, 1, id, pos, `<n k="v"><m>7</m>txt</n>`)
		}
	}
}

func TestSpliceRename(t *testing.T) {
	const doc = `<a><b>1</b><c><d/></c></a>`
	tree, _ := xmltree.ParseString(doc)
	for id := 0; id < tree.Size(); id++ {
		checkSplice(t, doc, 2, id, 0, "z") // fresh label
		checkSplice(t, doc, 2, id, 0, "b") // existing label
	}
}

func TestSpliceBits(t *testing.T) {
	for _, n := range []int{1, 5, 63, 64, 65, 130, 200} {
		src := NewBitset(n)
		for i := 0; i < n; i += 3 {
			src.Set(i)
		}
		for _, at := range []int{0, 1, n / 2, n} {
			for _, oldLen := range []int{0, 1, 7, n - at} {
				if at+oldLen > n || oldLen < 0 {
					continue
				}
				for _, newLen := range []int{0, 1, 64, 100} {
					got := SpliceBits(src, at, oldLen, newLen, n)
					n2 := n - oldLen + newLen
					for i := 0; i < n2; i++ {
						want := false
						switch {
						case i < at:
							want = src.Get(i)
						case i < at+newLen:
							want = false
						default:
							want = src.Get(i - newLen + oldLen)
						}
						if got.Get(i) != want {
							t.Fatalf("n=%d at=%d old=%d new=%d: bit %d = %v, want %v", n, at, oldLen, newLen, i, got.Get(i), want)
						}
					}
					if got.OnesCount() != countExpected(src, at, oldLen, n) {
						t.Fatalf("n=%d at=%d old=%d new=%d: tail bits leaked", n, at, oldLen, newLen)
					}
				}
			}
		}
	}
}

func countExpected(src Bitset, at, oldLen, n int) int {
	c := 0
	for i := 0; i < n; i++ {
		if (i < at || i >= at+oldLen) && src.Get(i) {
			c++
		}
	}
	return c
}

// FuzzArenaSplice drives random edits against the splice kernels and
// asserts the result is column-identical to rebuilding the arena from the
// edited pointer tree — i.e. splice/renumber round-trips losslessly
// through FromTree/ToTree.
func FuzzArenaSplice(f *testing.F) {
	f.Add("<a><b>1</b><c><d/>t</c></a>", uint8(0), uint16(2), uint8(0), "")
	f.Add("<a><b>1</b><c><d/>t</c></a>", uint8(1), uint16(0), uint8(1), "<n><m>7</m></n>")
	f.Add("<a><b>1</b><c><d/>t</c></a>", uint8(2), uint16(3), uint8(0), "zz")
	f.Add(`<r><x>9</x><y k="v">w</y></r>`, uint8(1), uint16(3), uint8(0), "<q/>")
	f.Fuzz(func(t *testing.T, xml string, op uint8, target uint16, pos uint8, arg string) {
		checkSplice(t, xml, op, int(target), int(pos%8), arg)
	})
}
