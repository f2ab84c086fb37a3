package fragment

import (
	"testing"

	"paxq/internal/xmltree"
)

// TestFileFormAllocs pins the builder of the cached file form to two
// allocations, the text and the offset columns, whatever the fragment
// holds: escaped text and attributes, and virtual nodes written as stubs.
// It replaces TestArenaSerializeStringAllocs, which pinned the per-answer
// arena serializer the file form's slices retired.
func TestFileFormAllocs(t *testing.T) {
	tree, err := xmltree.ParseString(`<r a="&amp;&lt;&#x9;"><x>1 &amp; 2</x><y k="&quot;'">&lt;tag&gt;&#xD;<c/></y><z><d>4</d></z></r>`)
	if err != nil {
		t.Fatal(err)
	}
	var cuts []xmltree.NodeID
	for _, n := range tree.PreorderNodes() {
		if n.Label == "c" || n.Label == "d" {
			cuts = append(cuts, n.ID)
		}
	}
	ft, err := Cut(tree, cuts)
	if err != nil {
		t.Fatal(err)
	}
	f := ft.Root()
	want := `<r a="&amp;&lt;&#x9;"><x>1 &amp; 2</x><y k="&#34;&#39;">&lt;tag&gt;&#xD;<fragment-ref ref="1"/></y><z><fragment-ref ref="2"/></z></r>`
	if got := f.XML(); got != want {
		t.Fatalf("XML = %q, want %q", got, want)
	}
	if allocs := testing.AllocsPerRun(20, func() { f.buildFileForm() }); allocs != 2 {
		t.Errorf("buildFileForm allocates %.1f times per call, want 2", allocs)
	}
}

// TestSubtreeXMLIsSerialization holds every node's slice of the file form
// to the node's own serialization: an element's to xmltree.SerializeString
// of its subtree with virtual nodes as stubs, a text node's to its escaped
// text without the comment that separates it from a preceding text node.
func TestSubtreeXMLIsSerialization(t *testing.T) {
	x := xmltree.El("x")
	root := xmltree.El("r", xmltree.NewText("a<"), xmltree.NewText("b"), x, xmltree.ElT("y", "&"))
	tree := xmltree.NewTree(root)
	ft, err := Cut(tree, []xmltree.NodeID{x.ID})
	if err != nil {
		t.Fatal(err)
	}
	f := ft.Root()
	for id, want := range []string{
		`<r>a&lt;<!---->b<fragment-ref ref="1"/><y>&amp;</y></r>`,
		`a&lt;`, `b`, `<fragment-ref ref="1"/>`, `<y>&amp;</y>`, `&amp;`,
	} {
		if got := f.SubtreeXML(xmltree.NodeID(id)); got != want {
			t.Errorf("node %d: SubtreeXML = %q, want %q", id, got, want)
		}
	}
	if got, want := ft.Frag(1).XML(), `<x/>`; got != want {
		t.Errorf("fragment 1: XML = %q, want %q", got, want)
	}
}
