package xmltree

import (
	"encoding/xml"
	"fmt"
	"io"
	"strings"
	"unicode/utf8"
)

// Parse reads an XML document from r into a Tree. Processing instructions,
// comments and directives are skipped, except that the <!ENTITY name
// "value"> declarations of a DOCTYPE internal subset define the entities
// the document may reference; the document must have exactly one
// top-level element. Character data consisting entirely of whitespace
// between elements is dropped (it is markup formatting, not content),
// matching how the paper's datasets are interpreted.
func Parse(r io.Reader) (*Tree, error) {
	dec := xml.NewDecoder(r)
	var root *Node
	var stack []*Node
	for {
		tok, err := dec.Token()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("xmltree: parse: %w", err)
		}
		switch t := tok.(type) {
		case xml.StartElement:
			n := NewElement(t.Name.Local)
			for _, a := range t.Attr {
				n.SetAttr(a.Name.Local, a.Value)
			}
			if len(stack) == 0 {
				if root != nil {
					return nil, fmt.Errorf("xmltree: parse: multiple root elements")
				}
				root = n
			} else {
				stack[len(stack)-1].Append(n)
			}
			stack = append(stack, n)
		case xml.EndElement:
			if len(stack) == 0 {
				return nil, fmt.Errorf("xmltree: parse: unbalanced end element %q", t.Name.Local)
			}
			stack = stack[:len(stack)-1]
		case xml.CharData:
			if len(stack) == 0 {
				continue // whitespace outside root
			}
			s := string(t)
			if strings.TrimSpace(s) == "" {
				continue
			}
			stack[len(stack)-1].Append(NewText(s))
		case xml.Directive:
			if err := declareEntities(dec, t); err != nil {
				return nil, fmt.Errorf("xmltree: parse: %w", err)
			}
		}
	}
	if root == nil {
		return nil, fmt.Errorf("xmltree: parse: no root element")
	}
	if len(stack) != 0 {
		return nil, fmt.Errorf("xmltree: parse: unterminated element %q", stack[len(stack)-1].Label)
	}
	return NewTree(root), nil
}

// declareEntities adds the internal general entities declared in a DOCTYPE
// directive's internal subset to dec.Entity, so that references such as
// &uuml; in the document body resolve. Only <!ENTITY name "value"> (or
// 'value') is accepted: a parameter entity, an external entity (SYSTEM or
// PUBLIC, which would make parsing read other resources) or a value with
// markup or entity references is an error. Other declarations are skipped;
// encoding/xml has already dropped comments from the directive.
func declareEntities(dec *xml.Decoder, d xml.Directive) error {
	s := string(d)
	if !strings.HasPrefix(s, "DOCTYPE") {
		return nil
	}
	open := indexUnquoted(s, '[')
	if open < 0 {
		return nil
	}
	s = s[open+1:]
	for {
		s = strings.TrimLeft(s, " \t\r\n")
		if s == "" || s[0] == ']' {
			return nil
		}
		if !strings.HasPrefix(s, "<!ENTITY") {
			end := indexUnquoted(s, '>')
			if end < 0 {
				return fmt.Errorf("unterminated declaration in DOCTYPE")
			}
			s = s[end+1:]
			continue
		}
		fields := strings.Fields(s[len("<!ENTITY"):])
		if len(fields) < 2 {
			return fmt.Errorf("malformed entity declaration")
		}
		name := fields[0]
		if name == "%" {
			return fmt.Errorf("parameter entity %q not supported", fields[1])
		}
		if fields[1] == "SYSTEM" || fields[1] == "PUBLIC" {
			return fmt.Errorf("external entity %q not supported", name)
		}
		rest := strings.TrimLeft(s[len("<!ENTITY"):], " \t\r\n")[len(name):]
		rest = strings.TrimLeft(rest, " \t\r\n")
		if rest == "" || (rest[0] != '"' && rest[0] != '\'') {
			return fmt.Errorf("malformed entity declaration %q", name)
		}
		closeQ := strings.IndexByte(rest[1:], rest[0])
		if closeQ < 0 {
			return fmt.Errorf("unterminated value of entity %q", name)
		}
		value := rest[1 : 1+closeQ]
		if strings.ContainsAny(value, "<&%") {
			return fmt.Errorf("entity %q: markup and references in entity values not supported", name)
		}
		rest = strings.TrimLeft(rest[2+closeQ:], " \t\r\n")
		if !strings.HasPrefix(rest, ">") {
			return fmt.Errorf("malformed entity declaration %q", name)
		}
		if dec.Entity == nil {
			dec.Entity = make(map[string]string)
		}
		dec.Entity[name] = value
		s = rest[1:]
	}
}

// indexUnquoted returns the index of the first c in s outside quoted
// literals, or -1.
func indexUnquoted(s string, c byte) int {
	var quote byte
	for i := 0; i < len(s); i++ {
		switch b := s[i]; {
		case quote != 0:
			if b == quote {
				quote = 0
			}
		case b == '"' || b == '\'':
			quote = b
		case b == c:
			return i
		}
	}
	return -1
}

// ParseString is Parse over an in-memory document.
func ParseString(s string) (*Tree, error) { return Parse(strings.NewReader(s)) }

// Serialize writes the subtree rooted at n as XML to w, without declaration
// or indentation: the bytes of SerializeString(n), in one write. The output
// round-trips through Parse.
func Serialize(w io.Writer, n *Node) error {
	_, err := io.WriteString(w, SerializeString(n))
	return err
}

// SerializeString renders the subtree rooted at n as an XML string with one
// allocation: a first pass over the subtree computes the exact output
// length, a second writes into a buffer of that size. Labels and attribute
// names are written as they are; text and attribute values are escaped
// byte for byte as xml.EscapeText escapes them.
func SerializeString(n *Node) string {
	var w Writer
	w.node(n)
	w.Alloc()
	w.node(n)
	return w.String()
}

// Writer is one pass of a two-pass XML serializer. A zero Writer only
// counts the bytes it would write; Alloc then sizes its buffer to exactly
// that count, and the same walk run again writes them. SerializeString
// and arena.Tree.SerializeString both drive it, so the two share the
// markup and the escaping, the counted length is the written length by
// construction, and the output costs one allocation.
type Writer struct {
	b     strings.Builder
	n     int
	write bool
}

// Alloc ends the counting pass: it sizes the buffer to the bytes counted
// and switches the Writer to writing.
func (w *Writer) Alloc() {
	w.b.Grow(w.n)
	w.n, w.write = 0, true
}

// String returns what the writing pass wrote.
func (w *Writer) String() string { return w.b.String() }

func (w *Writer) str(s string) {
	w.n += len(s)
	if w.write {
		w.b.WriteString(s)
	}
}

// Text writes character data, escaped. Runs between escapes are copied as
// substrings of s.
func (w *Writer) Text(s string) {
	last := 0
	for i, j, esc := nextEscape(s, 0); i < len(s); i, j, esc = nextEscape(s, j) {
		w.str(s[last:i])
		w.str(esc)
		last = j
	}
	w.str(s[last:])
}

// Open writes the start tag of an element with its attributes, values
// escaped; an empty element (no children) gets a self-closing tag and no
// Close.
func (w *Writer) Open(label string, attrs []Attr, empty bool) {
	w.str("<")
	w.str(label)
	for _, a := range attrs {
		w.str(" ")
		w.str(a.Name)
		w.str(`="`)
		w.Text(a.Value)
		w.str(`"`)
	}
	if empty {
		w.str("/>")
		return
	}
	w.str(">")
}

// Close writes the end tag of a non-empty element.
func (w *Writer) Close(label string) {
	w.str("</")
	w.str(label)
	w.str(">")
}

func (w *Writer) node(n *Node) {
	if n.Kind == Text {
		w.Text(n.Data)
		return
	}
	w.Open(n.Label, n.Attrs, len(n.Children) == 0)
	if len(n.Children) == 0 {
		return
	}
	for _, c := range n.Children {
		w.node(c)
	}
	w.Close(n.Label)
}

// asciiEscapes holds xml.EscapeText's replacement for each ASCII byte, or
// "" for a byte it copies: the five markup characters as references, tab,
// LF and CR as character references, and every other control character,
// being outside the XML character range, as U+FFFD.
var asciiEscapes = func() (t [utf8.RuneSelf]string) {
	for c := range byte(0x20) {
		t[c] = "\uFFFD"
	}
	t['\t'], t['\n'], t['\r'] = "&#x9;", "&#xA;", "&#xD;"
	t['"'], t['\''] = "&#34;", "&#39;"
	t['&'], t['<'], t['>'] = "&amp;", "&lt;", "&gt;"
	return t
}()

// nextEscape finds the first byte range [i, j) of s at or after from that
// xml.EscapeText replaces, and its replacement. Past the last one it
// returns i == len(s). Beyond ASCII, EscapeText replaces a byte that is
// not valid UTF-8 and a rune outside the XML character range with U+FFFD.
func nextEscape(s string, from int) (i, j int, esc string) {
	for i = from; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if esc = asciiEscapes[c]; esc != "" {
				return i, i + 1, esc
			}
			i++
			continue
		}
		r, width := utf8.DecodeRuneInString(s[i:])
		if r == utf8.RuneError && width == 1 || !inCharRange(r) {
			return i, i + width, "\uFFFD"
		}
		i += width
	}
	return len(s), len(s), ""
}

// inCharRange reports whether a rune of two or more UTF-8 bytes is in the
// XML character range (XML 1.0 production [2]); the ASCII cases are in
// asciiEscapes.
func inCharRange(r rune) bool {
	return r <= 0xD7FF || r >= 0xE000 && r <= 0xFFFD || r >= 0x10000 && r <= 0x10FFFF
}
