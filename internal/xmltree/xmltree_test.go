package xmltree

import (
	"encoding/xml"
	"errors"
	"io"
	"math/rand"
	"strings"
	"testing"
	"testing/iotest"
	"testing/quick"
)

// paperTree builds the clientele tree of Fig. 1 (slightly abbreviated).
func paperTree() *Tree {
	root := El("clientele",
		El("client",
			ElT("name", "Anna"),
			ElT("country", "US"),
			El("broker",
				ElT("name", "E*trade"),
				El("market",
					ElT("name", "NYSE"),
					El("stock", ElT("code", "IBM"), ElT("buy", "80"), ElT("qt", "50")),
				),
				El("market",
					ElT("name", "NASDAQ"),
					El("stock", ElT("code", "GOOG"), ElT("buy", "370"), ElT("qt", "75")),
				),
			),
		),
		El("client",
			ElT("name", "Lisa"),
			ElT("country", "Canada"),
			El("broker",
				ElT("name", "CIBC"),
				El("market",
					ElT("name", "TSE"),
					El("stock", ElT("code", "GOOG"), ElT("buy", "382"), ElT("qt", "90")),
				),
			),
		),
	)
	return NewTree(root)
}

func TestAppendSetsParent(t *testing.T) {
	p := NewElement("a")
	c := NewElement("b")
	p.Append(c)
	if c.Parent != p {
		t.Fatal("parent link missing")
	}
	if len(p.Children) != 1 || p.Children[0] != c {
		t.Fatal("child link missing")
	}
}

func TestAppendPanicsOnReparent(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("re-appending a parented node must panic")
		}
	}()
	p, q, c := NewElement("a"), NewElement("b"), NewElement("c")
	p.Append(c)
	q.Append(c)
}

func TestAppendPanicsOnTextParent(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("appending to a text node must panic")
		}
	}()
	NewText("x").Append(NewElement("a"))
}

func TestValue(t *testing.T) {
	n := El("buy", Tx("  370 "))
	if got := n.Value(); got != "370" {
		t.Errorf("Value = %q", got)
	}
	if v, ok := n.NumValue(); !ok || v != 370 {
		t.Errorf("NumValue = %v %v", v, ok)
	}
	if _, ok := ElT("name", "GOOG").NumValue(); ok {
		t.Error("non-numeric NumValue must report !ok")
	}
	// Mixed content: only immediate text children count.
	m := El("a", Tx("x"), ElT("b", "ignored"), Tx("y"))
	if got := m.Value(); got != "xy" {
		t.Errorf("mixed Value = %q", got)
	}
}

func TestFreezeAssignsPreorderIDs(t *testing.T) {
	tr := paperTree()
	if tr.Root.ID != 0 {
		t.Fatalf("root ID = %d", tr.Root.ID)
	}
	want := NodeID(0)
	tr.Walk(func(n *Node) bool {
		if n.ID != want {
			t.Fatalf("node %v has ID %d want %d", n, n.ID, want)
		}
		if tr.Node(n.ID) != n {
			t.Fatalf("Node(%d) lookup mismatch", n.ID)
		}
		want++
		return true
	})
	if int(want) != tr.Size() {
		t.Fatalf("walk visited %d of %d", want, tr.Size())
	}
	if tr.Node(NodeID(tr.Size())) != nil || tr.Node(-1) != nil {
		t.Fatal("out-of-range Node() must return nil")
	}
}

func TestWalkEarlyStop(t *testing.T) {
	tr := paperTree()
	count := 0
	tr.Walk(func(n *Node) bool {
		count++
		return count < 3
	})
	if count != 3 {
		t.Fatalf("early stop visited %d", count)
	}
}

func TestStats(t *testing.T) {
	tr := paperTree()
	s := tr.ComputeStats()
	if s.Nodes != tr.Size() {
		t.Errorf("Nodes = %d want %d", s.Nodes, tr.Size())
	}
	if s.Elements+s.Texts != s.Nodes {
		t.Error("element/text split inconsistent")
	}
	if s.Depth != 7 { // clientele/client/broker/market/stock/code/text
		t.Errorf("Depth = %d", s.Depth)
	}
	if s.Bytes <= 0 {
		t.Error("Bytes must be positive")
	}
}

func TestCloneAndDeepEqual(t *testing.T) {
	tr := paperTree()
	c := tr.Root.Clone()
	if !DeepEqual(tr.Root, c) {
		t.Fatal("clone not equal to original")
	}
	if c.Parent != nil || c.ID != NoID {
		t.Fatal("clone must be detached and unfrozen")
	}
	// Mutating the clone must not affect the original.
	c.Children[0].Children[0].Children[0].Data = "Bob"
	if DeepEqual(tr.Root, c) {
		t.Fatal("mutation leaked into original")
	}
	if DeepEqual(tr.Root, nil) || !DeepEqual(nil, nil) {
		t.Fatal("nil handling")
	}
}

func TestParseBasic(t *testing.T) {
	tr, err := ParseString(`<a x="1"><b>hello</b><c/> <b>world &amp; peace</b></a>`)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Root.Label != "a" || len(tr.Root.Attrs) != 1 || tr.Root.Attrs[0] != (Attr{"x", "1"}) {
		t.Fatalf("root = %v attrs=%v", tr.Root, tr.Root.Attrs)
	}
	if len(tr.Root.Children) != 3 {
		t.Fatalf("children = %d (inter-element whitespace must be dropped)", len(tr.Root.Children))
	}
	if got := tr.Root.Children[2].Value(); got != "world & peace" {
		t.Errorf("entity decoding: %q", got)
	}
}

func TestParseErrors(t *testing.T) {
	for _, bad := range []string{
		"",
		"   ",
		"<a><b></a></b>",
		"<a></a><b></b>",
		"<a>",
		"<:a/>",
		"<a:b:c/>",
		`<a :k="v"/>`,
		`<?xml version="0"?><a/>`,
		`<?xml version="1.0" encoding="latin9"?><a/>`,
	} {
		var syntax *xml.SyntaxError
		if _, err := ParseString(bad); !errors.As(err, &syntax) {
			t.Errorf("ParseString(%q): err %v, want an *xml.SyntaxError", bad, err)
		}
	}
}

// TestParseReadError: a failed read is the reader's error, not a
// malformed document.
func TestParseReadError(t *testing.T) {
	boom := errors.New("boom")
	_, err := Parse(io.MultiReader(strings.NewReader("<a><b>"), iotest.ErrReader(boom)))
	var syntax *xml.SyntaxError
	if !errors.Is(err, boom) || errors.As(err, &syntax) {
		t.Errorf("Parse over a failing reader: err %v, want the read error", err)
	}
}

func TestSerializeRoundTrip(t *testing.T) {
	tr := paperTree()
	s := SerializeString(tr.Root)
	back, err := ParseString(s)
	if err != nil {
		t.Fatalf("reparse: %v (doc=%q)", err, s)
	}
	if !DeepEqual(tr.Root, back.Root) {
		t.Fatal("round trip lost structure")
	}
}

func TestSerializeEscaping(t *testing.T) {
	n := El("a", Tx("<&>\"'"))
	n.SetAttr("k", `va"l<`)
	s := SerializeString(n)
	back, err := ParseString(s)
	if err != nil {
		t.Fatalf("reparse: %v (doc=%q)", err, s)
	}
	if !DeepEqual(n, back.Root) {
		t.Fatalf("escaping round trip: %q -> %v", s, back.Root)
	}
}

func TestSerializeSelfClosing(t *testing.T) {
	if got := SerializeString(El("empty")); got != "<empty/>" {
		t.Errorf("empty element = %q", got)
	}
}

func TestElementChildren(t *testing.T) {
	n := El("a", Tx("t"), El("b"), Tx("u"), El("c"))
	var labels []string
	n.ElementChildren(func(c *Node) bool {
		labels = append(labels, c.Label)
		return true
	})
	if strings.Join(labels, ",") != "b,c" {
		t.Errorf("ElementChildren = %v", labels)
	}
	// early stop
	count := 0
	n.ElementChildren(func(c *Node) bool { count++; return false })
	if count != 1 {
		t.Errorf("early stop count = %d", count)
	}
}

// randomNode builds a random tree with n element nodes from the labels set.
func randomNode(r *rand.Rand, budget *int, labels []string) *Node {
	n := NewElement(labels[r.Intn(len(labels))])
	*budget--
	if r.Intn(3) == 0 {
		n.Append(NewText(labels[r.Intn(len(labels))]))
	}
	for *budget > 0 && r.Intn(3) != 0 {
		n.Append(randomNode(r, budget, labels))
	}
	return n
}

// RandomTree builds a deterministic pseudo-random tree with about size
// element nodes. Exported within the package for reuse by other tests via
// the internal test helper pattern.
func RandomTree(seed int64, size int) *Tree {
	r := rand.New(rand.NewSource(seed))
	labels := []string{"a", "b", "c", "d"}
	budget := size
	root := NewElement("root")
	budget--
	for budget > 0 {
		root.Append(randomNode(r, &budget, labels))
	}
	return NewTree(root)
}

// Property: serialize → parse is the identity on random trees.
func TestQuickSerializeParseRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		tr := RandomTree(seed, 60)
		back, err := ParseString(SerializeString(tr.Root))
		return err == nil && DeepEqual(tr.Root, back.Root)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: clone is always DeepEqual and fully detached.
func TestQuickCloneEqual(t *testing.T) {
	f := func(seed int64) bool {
		tr := RandomTree(seed, 40)
		c := tr.Root.Clone()
		if !DeepEqual(tr.Root, c) {
			return false
		}
		ok := true
		walkPre(c, func(n *Node) bool {
			if n.ID != NoID {
				ok = false
			}
			return ok
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: preorder IDs are dense, in range, and parent ID < child ID.
func TestQuickPreorderIDs(t *testing.T) {
	f := func(seed int64) bool {
		tr := RandomTree(seed, 50)
		ok := true
		tr.Walk(func(n *Node) bool {
			if n.Parent != nil && n.Parent.ID >= n.ID {
				ok = false
			}
			if tr.Node(n.ID) != n {
				ok = false
			}
			return ok
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkParse(b *testing.B) {
	doc := SerializeString(RandomTree(1, 2000).Root)
	b.SetBytes(int64(len(doc)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := ParseString(doc); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSerialize(b *testing.B) {
	tr := RandomTree(1, 2000)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = SerializeString(tr.Root)
	}
}
