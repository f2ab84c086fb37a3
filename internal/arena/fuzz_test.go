package arena

import (
	"testing"

	"paxq/internal/xmltree"
)

// FuzzArenaRoundTrip feeds arbitrary XML through the parser and asserts
// FromTree/ToTree is the identity on everything that parses, with the
// columnar structure indices agreeing with the pointer structure and the
// structural joins agreeing with a pointer walk.
func FuzzArenaRoundTrip(f *testing.F) {
	f.Add("<a/>")
	f.Add("<a><b>text</b><c/></a>")
	f.Add(`<a k="v"><b>1</b><b>2.5</b>mixed<c><d/></c></a>`)
	f.Add("<r>" + "<x>9</x>" + "</r>")
	f.Fuzz(func(t *testing.T, xml string) {
		tree, err := xmltree.ParseString(xml)
		if err != nil {
			t.Skip()
		}
		a := FromTree(tree)
		if a.Len() != tree.Size() {
			t.Fatalf("arena has %d nodes, tree %d", a.Len(), tree.Size())
		}
		back := a.ToTree()
		if !xmltree.DeepEqual(tree.Root, back.Root) {
			t.Fatalf("round trip not the identity for %q", xml)
		}
		for _, nd := range tree.PreorderNodes() {
			i := int(nd.ID)
			if nd.Parent != nil && a.Parent[i] != int32(nd.Parent.ID) {
				t.Fatalf("node %d: Parent = %d, want %d", i, a.Parent[i], nd.Parent.ID)
			}
			if (nd.Kind == xmltree.Element) != a.Elements().Get(i) {
				t.Fatalf("node %d: element mask disagrees with kind", i)
			}
			if int(a.SubtreeEnd[i]) <= i || int(a.SubtreeEnd[i]) > a.Len() {
				t.Fatalf("node %d: SubtreeEnd %d out of range", i, a.SubtreeEnd[i])
			}
		}
		// The structural joins agree with the pointer-walk oracle on a
		// source mask the input chooses.
		src := NewBitset(a.Len())
		for i := 0; i < a.Len(); i++ {
			if xml[i%len(xml)]&1 == 1 {
				src.Set(i)
			}
		}
		requireJoins(t, xml, a, tree, src)
	})
}
