package xmltree

import (
	"bufio"
	"bytes"
	"encoding/xml"
	"errors"
	"math/rand"
	"strings"
	"testing"
)

// referenceSerialize is the serializer SerializeString replaced: a
// bufio.Writer over the output and xml.EscapeText for text and attribute
// values. SerializeString must produce its bytes exactly.
func referenceSerialize(n *Node) string {
	var out bytes.Buffer
	w := bufio.NewWriter(&out)
	var write func(n *Node)
	write = func(n *Node) {
		if n.Kind == Text {
			xml.EscapeText(w, []byte(n.Data))
			return
		}
		w.WriteByte('<')
		w.WriteString(n.Label)
		for _, a := range n.Attrs {
			w.WriteByte(' ')
			w.WriteString(a.Name)
			w.WriteString(`="`)
			xml.EscapeText(w, []byte(a.Value))
			w.WriteByte('"')
		}
		if len(n.Children) == 0 {
			w.WriteString("/>")
			return
		}
		w.WriteByte('>')
		for _, c := range n.Children {
			write(c)
		}
		w.WriteString("</")
		w.WriteString(n.Label)
		w.WriteByte('>')
	}
	write(n)
	w.Flush()
	return out.String()
}

// hostileAlphabet is what the text and attribute values of hostileTree are
// made of: every byte xml.EscapeText rewrites (markup characters, tab, LF,
// CR, NUL and other control characters, an invalid byte, the UTF-8 bytes
// of a lone surrogate) beside the runes it must keep or replace (a literal
// U+FFFD, U+FFFE, 2- and 4-byte runes) and plain letters.
var hostileAlphabet = []string{
	"<", ">", "&", `"`, "'", "\t", "\n", "\r", "\x00", "\x1f", "\x7f",
	"\xff", "\xed\xa0\x80", "\uFFFD", "\uFFFE", "ü", "𝄞", "a", "bc", " ",
}

// hostileString draws up to max pieces of hostileAlphabet.
func hostileString(r *rand.Rand, max int) string {
	var b strings.Builder
	for i := r.Intn(max + 1); i > 0; i-- {
		b.WriteString(hostileAlphabet[r.Intn(len(hostileAlphabet))])
	}
	return b.String()
}

// hostileTree builds a deterministic tree of about size elements whose
// text and attribute values come from hostileAlphabet.
func hostileTree(seed int64, size int) *Tree {
	r := rand.New(rand.NewSource(seed))
	labels := []string{"a", "b", "c", "d"}
	budget := size
	var node func() *Node
	node = func() *Node {
		n := NewElement(labels[r.Intn(len(labels))])
		budget--
		for i := r.Intn(3); i > 0; i-- {
			n.SetAttr(labels[r.Intn(len(labels))], hostileString(r, 6))
		}
		if r.Intn(2) == 0 {
			n.Append(NewText(hostileString(r, 12)))
		}
		for budget > 0 && r.Intn(3) != 0 {
			n.Append(node())
		}
		return n
	}
	root := NewElement("root")
	budget--
	for budget > 0 {
		root.Append(node())
	}
	return NewTree(root)
}

// TestSerializeMatchesReference holds SerializeString byte-identical to the
// reference writer on random trees and on trees of hostile text, and its
// first pass's length to the output's.
func TestSerializeMatchesReference(t *testing.T) {
	var trees []*Tree
	for seed := int64(0); seed < 50; seed++ {
		trees = append(trees, RandomTree(seed, 200), hostileTree(seed, 200))
	}
	for i, tr := range trees {
		tr.Walk(func(n *Node) bool {
			got, want := SerializeString(n), referenceSerialize(n)
			if got != want {
				t.Fatalf("tree %d node %d:\n got %q\nwant %q", i, n.ID, got, want)
			}
			var size Writer
			size.node(n)
			if size.n != len(got) {
				t.Fatalf("tree %d node %d: first pass counted %d bytes, wrote %d", i, n.ID, size.n, len(got))
			}
			return true
		})
		var viaWriter bytes.Buffer
		if err := Serialize(&viaWriter, tr.Root); err != nil {
			t.Fatal(err)
		}
		if viaWriter.String() != SerializeString(tr.Root) {
			t.Fatalf("tree %d: Serialize and SerializeString differ", i)
		}
	}
}

// FuzzSerializeEscape compares the escaping writer, and its counting pass,
// with xml.EscapeText on arbitrary bytes.
func FuzzSerializeEscape(f *testing.F) {
	for _, s := range hostileAlphabet {
		f.Add(s)
	}
	f.Add("plain text")
	f.Add("a<b>&\"c'\t\n\r\x00\xff\xed\xa0\x80\uFFFD\uFFFE\U0010FFFF\xf4\x90\x80\x80")
	f.Fuzz(func(t *testing.T, s string) {
		var want bytes.Buffer
		xml.EscapeText(&want, []byte(s))
		var w Writer
		w.Text(s)
		size := w.n
		w.Alloc()
		w.Text(s)
		if w.String() != want.String() {
			t.Fatalf("Text(%q) = %q, xml.EscapeText = %q", s, w.String(), want.String())
		}
		if size != want.Len() || w.n != want.Len() {
			t.Fatalf("Text(%q): counted %d and %d bytes, want %d", s, size, w.n, want.Len())
		}
	})
}

// FuzzParseRoundTrip feeds arbitrary bytes to Parse, the parser sites and
// the coordinator run on XML from the wire. Every input either fails with
// a typed error (*xml.SyntaxError or ErrTooDeep) or serializes to a fixed
// point: parsing the serialization and serializing again gives the same
// bytes.
func FuzzParseRoundTrip(f *testing.F) {
	f.Add(`<a x="1&quot;2"><b>t &amp; u</b><c/></a>`)
	f.Add(`<site><person>Ada</person><fragment-ref ref="2"/></site>`)
	f.Add(`<?xml version="1.0"?><!DOCTYPE d [<!ENTITY e "v">]><d>&e;<![CDATA[<x>]]><!-- c --></d>`)
	f.Add(`<p:a xmlns:p="u" p:k="v">` + "\r\n\t" + `x</p:a>`)
	f.Add(`<a><b></a>`)
	f.Add(`<a>x<!--c-->y<![CDATA[z]]><b/></a>`)
	f.Add(`<a><:b/><c:d:e/></a>`)
	f.Fuzz(func(t *testing.T, doc string) {
		tr, err := ParseString(doc)
		if err != nil {
			var syntax *xml.SyntaxError
			if !errors.As(err, &syntax) && !errors.Is(err, ErrTooDeep) {
				t.Fatalf("Parse(%q): untyped error %v", doc, err)
			}
			return
		}
		if err := CheckRoundTrip(tr.Root); err != nil {
			t.Fatalf("Parse(%q) returned a tree CheckRoundTrip rejects: %v", doc, err)
		}
		once := SerializeString(tr.Root)
		back, err := ParseString(once)
		if err != nil {
			t.Fatalf("Parse(%q) = %q, which does not parse: %v", doc, once, err)
		}
		if !DeepEqual(back.Root, tr.Root) {
			t.Fatalf("Parse(%q): %q parses back to other nodes", doc, once)
		}
		if twice := SerializeString(back.Root); twice != once {
			t.Fatalf("Parse(%q): serialization is not a fixed point:\n once %q\ntwice %q", doc, once, twice)
		}
	})
}

// TestSerializeKeepsAdjacentText checks two text nodes in a row, which
// Parse makes of text split by a comment or CDATA section, come back from
// Parse as two nodes, not merged into one.
func TestSerializeKeepsAdjacentText(t *testing.T) {
	tr, err := ParseString(`<a>x<!--c-->y<![CDATA[z]]><b/></a>`)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Size() != 5 {
		t.Fatalf("parsed %d nodes, want a, three texts and b", tr.Size())
	}
	s := SerializeString(tr.Root)
	if want := `<a>x<!---->y<!---->z<b/></a>`; s != want {
		t.Fatalf("SerializeString = %q, want %q", s, want)
	}
	if back, err := ParseString(s); err != nil || !DeepEqual(back.Root, tr.Root) {
		t.Fatalf("%q parses back to %v (err %v)", s, back, err)
	}
}

func TestIsName(t *testing.T) {
	for _, s := range []string{"a", "_x", "A1", "a-b.c", "été", "名前"} {
		if !IsName(s) {
			t.Errorf("IsName(%q) = false", s)
		}
	}
	for _, s := range []string{"", "a b", "1x", "-a", ".a", "a>", "x:y", ":a", "#virtual", "a\x00", "é é", "é>", "é:x", "\xff"} {
		if IsName(s) {
			t.Errorf("IsName(%q) = true", s)
		}
	}
}

// TestCheckRoundTrip checks CheckRoundTrip rejects each kind of tree Parse
// cannot return, and that every tree it accepts comes back from Parse
// node for node.
func TestCheckRoundTrip(t *testing.T) {
	deep := NewElement("d")
	for range MaxDepth {
		deep = El("d", deep)
	}
	bad := map[string]*Node{
		"bad label":       El("a", El("a b")),
		"colon label":     El("x:y"),
		"bad attr name":   El("a").SetAttr("1k", "v"),
		"attr control":    El("a").SetAttr("k", "v\x01"),
		"whitespace text": El("a", Tx(" \n")),
		"empty text":      El("a", Tx("")),
		"text bad utf8":   El("a", Tx("x\xff")),
		"too deep":        deep,
	}
	for name, n := range bad {
		if err := CheckRoundTrip(n); err == nil {
			t.Errorf("%s: CheckRoundTrip accepted %s", name, SerializeString(n))
		}
	}
	if err := CheckRoundTrip(deep.Children[0]); err != nil {
		t.Errorf("MaxDepth elements deep: %v", err)
	}
	accepted := 0
	for seed := int64(0); seed < 50; seed++ {
		for _, tr := range []*Tree{RandomTree(seed, 200), hostileTree(seed, 200)} {
			if CheckRoundTrip(tr.Root) != nil {
				continue
			}
			accepted++
			back, err := ParseString(SerializeString(tr.Root))
			if err != nil || !DeepEqual(back.Root, tr.Root) {
				t.Fatalf("seed %d: accepted tree does not round-trip (err %v)", seed, err)
			}
		}
	}
	if accepted < 50 {
		t.Errorf("only %d random trees accepted", accepted)
	}
}

// TestSerializeStringAllocs pins SerializeString to one allocation per
// call, the output string, on a 2 000-node tree full of escapes.
func TestSerializeStringAllocs(t *testing.T) {
	tr := hostileTree(1, 2000)
	if s := SerializeString(tr.Root); !strings.Contains(s, "&amp;") || !strings.Contains(s, "\uFFFD") {
		t.Fatal("test tree has no escapes")
	}
	if allocs := testing.AllocsPerRun(20, func() { SerializeString(tr.Root) }); allocs != 1 {
		t.Errorf("SerializeString allocates %.1f times per call, want 1", allocs)
	}
}
