package xmltree

import (
	"errors"
	"strings"
	"testing"
)

func TestParseSkipsCommentsAndPIs(t *testing.T) {
	tr, err := ParseString(`<?xml version="1.0"?><!-- header --><a><!-- inner --><b>x</b><?pi data?></a>`)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Root.Children) != 1 || tr.Root.Children[0].Label != "b" {
		t.Fatalf("comments/PIs must be skipped: %+v", tr.Root.Children)
	}
}

func TestParseCDATA(t *testing.T) {
	tr, err := ParseString(`<a><![CDATA[raw <text> & stuff]]></a>`)
	if err != nil {
		t.Fatal(err)
	}
	if got := tr.Root.Value(); got != "raw <text> & stuff" {
		t.Errorf("CDATA value = %q", got)
	}
}

func TestParseDeepNesting(t *testing.T) {
	doc := ""
	const depth = 400
	for i := 0; i < depth; i++ {
		doc += "<a>"
	}
	doc += "x"
	for i := 0; i < depth; i++ {
		doc += "</a>"
	}
	tr, err := ParseString(doc)
	if err != nil {
		t.Fatal(err)
	}
	if s := tr.ComputeStats(); s.Depth != depth+1 {
		t.Errorf("depth = %d want %d", s.Depth, depth+1)
	}
}

// TestParseDepthBound pins MaxDepth: a document nesting exactly MaxDepth
// elements parses, and one level deeper fails with ErrTooDeep.
func TestParseDepthBound(t *testing.T) {
	nested := func(depth int) string {
		return strings.Repeat("<a>", depth) + "x" + strings.Repeat("</a>", depth)
	}
	tr, err := ParseString(nested(MaxDepth))
	if err != nil {
		t.Fatalf("document at the bound: %v", err)
	}
	if s := tr.ComputeStats(); s.Depth != MaxDepth+1 {
		t.Errorf("depth = %d want %d", s.Depth, MaxDepth+1)
	}
	if _, err := ParseString(nested(MaxDepth + 1)); !errors.Is(err, ErrTooDeep) {
		t.Fatalf("document one level past the bound: err %v, want ErrTooDeep", err)
	}
}

// dblpHeader is the prologue of a DBLP extract: a DOCTYPE whose internal
// subset declares the umlaut entities the records use.
const dblpHeader = `<?xml version="1.0" encoding="UTF-8"?>
<!DOCTYPE dblp [
  <!ENTITY uuml "ü">
  <!ENTITY auml "ä">
  <!ENTITY ouml "ö">
  <!ENTITY szlig "ß">
  <!ENTITY Uuml "Ü">
  <!ENTITY Auml "Ä">
  <!ENTITY Ouml "Ö">
]>
`

func TestParseDeclaredEntities(t *testing.T) {
	tr, err := ParseString(dblpHeader + `<dblp><bib>
	<inproceedings mdate="2022-08-03" key="conf/sigmod/HutterAK0L22">
		<author>Thomas H&uuml;tter</author>
		<title>Gro&szlig;e &Auml;pfel &amp; &#214;l</title>
	</inproceedings>
</bib></dblp>`)
	if err != nil {
		t.Fatal(err)
	}
	inproc := tr.Root.Children[0].Children[0]
	if got := inproc.Children[0].Value(); got != "Thomas Hütter" {
		t.Errorf("author = %q, want %q", got, "Thomas Hütter")
	}
	if got := inproc.Children[1].Value(); got != "Große Äpfel & Öl" {
		t.Errorf("title = %q", got)
	}

	// Single-quoted values work, and other declarations in the subset
	// are skipped.
	tr, err = ParseString(`<!DOCTYPE a [<!ELEMENT a (#PCDATA)> <!ENTITY e 'üä'>]><a>&e;</a>`)
	if err != nil {
		t.Fatal(err)
	}
	if got := tr.Root.Value(); got != "üä" {
		t.Errorf("value = %q, want %q", got, "üä")
	}
}

// Only internal general entities are accepted: an external entity would
// make the parser read a resource the document names (XXE).
func TestParseRejectsExternalEntities(t *testing.T) {
	for _, doc := range []string{
		`<!DOCTYPE a [<!ENTITY xxe SYSTEM "file:secret.txt">]><a>&xxe;</a>`,
		`<!DOCTYPE a [<!ENTITY xxe PUBLIC "-//X//EN" "http://example.com/x">]><a>&xxe;</a>`,
		`<!DOCTYPE a [<!ENTITY % p SYSTEM "x.dtd"> %p;]><a/>`,
		`<!DOCTYPE a [<!ENTITY m "<b/>">]><a>&m;</a>`,
		`<!DOCTYPE a [<!ENTITY r "&#252;">]><a>&r;</a>`,
		`<!DOCTYPE a [<!ENTITY u "x">]><a>&undeclared;</a>`,
	} {
		if _, err := ParseString(doc); err == nil {
			t.Errorf("ParseString(%q) succeeded, want an error", doc)
		}
	}
}
