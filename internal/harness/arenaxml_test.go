package harness

import (
	"math/rand"
	"testing"

	"paxq/internal/fragment"
	"paxq/internal/testutil"
	"paxq/internal/testutil/fragtest"
	"paxq/internal/xmark"
	"paxq/internal/xmltree"
)

// hostileText is what hostileRandomTree appends to text and attribute
// values: the five markup characters, CR, tab and LF, a control character
// and a byte that is not UTF-8.
var hostileText = []string{"&", "<", ">", `"`, "'", "\r", "\t", "\n", "\x01", "\xff", "ü"}

// hostileRandomTree is testutil.RandomTree with hostile text appended to
// every text node and an attribute of hostile text on a third of the
// elements.
func hostileRandomTree(seed int64, size int) *xmltree.Tree {
	tr := testutil.RandomTree(seed, size)
	r := rand.New(rand.NewSource(seed))
	pick := func() string {
		return hostileText[r.Intn(len(hostileText))] + "v" + hostileText[r.Intn(len(hostileText))]
	}
	tr.Walk(func(n *xmltree.Node) bool {
		switch {
		case n.Kind == xmltree.Text:
			n.Data += pick()
		case r.Intn(3) == 0:
			n.SetAttr("k", pick())
		}
		return true
	})
	return tr
}

// TestArenaSerializeMatchesPointer holds the fragment file form, which
// sites write from arena columns, to the pointer serializer: at every
// element of every fragment — virtual nodes included — the element's
// slice of the file form (Fragment.SubtreeXML) is xmltree.SerializeString
// of its pointer subtree with virtual nodes as stubs, and the whole file
// form is the root's. It runs on the benchmark's pinned XMark cut, the
// bibliography corpus cut at /dblp/bib, and hostile random trees cut at
// random elements.
func TestArenaSerializeMatchesPointer(t *testing.T) {
	type corpus struct {
		name string
		tree *xmltree.Tree
		cuts func(*xmltree.Tree) []xmltree.NodeID
	}
	corpora := []corpus{
		{"xmark", xmark.Generate(4, xmark.Calibrate().SpecForBytes(125_000), 1),
			func(tr *xmltree.Tree) []xmltree.NodeID { return fragment.RandomCuts(tr, 7, 1) }},
		{"bibliography", smallBibliography(1, 4, 30), func(tr *xmltree.Tree) []xmltree.NodeID {
			var cuts []xmltree.NodeID
			for _, bib := range tr.Root.Children {
				cuts = append(cuts, bib.ID)
			}
			return cuts
		}},
	}
	for seed := int64(0); seed < 20; seed++ {
		corpora = append(corpora, corpus{"random", hostileRandomTree(seed, 150),
			func(tr *xmltree.Tree) []xmltree.NodeID { return fragment.RandomCuts(tr, 4, seed) }})
	}
	virtuals := 0
	for _, c := range corpora {
		ft, err := fragment.Cut(c.tree, c.cuts(c.tree))
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range ft.Frags {
			virtuals += f.NumVirtuals()
			pt := f.Tree.ToTree()
			if got, want := f.XML(), xmltree.SerializeString(fragtest.StubbedCopy(f, pt.Root)); got != want {
				t.Fatalf("%s fragment %d file form:\n got %q\nwant %q", c.name, f.ID, got, want)
			}
			for _, n := range pt.PreorderNodes() {
				if !n.IsElement() {
					continue
				}
				got, want := f.SubtreeXML(n.ID), xmltree.SerializeString(fragtest.StubbedCopy(f, n))
				if got != want {
					t.Fatalf("%s fragment %d node %d:\n got %q\nwant %q", c.name, f.ID, n.ID, got, want)
				}
			}
		}
	}
	if virtuals == 0 {
		t.Fatal("no corpus has a virtual node")
	}
}
