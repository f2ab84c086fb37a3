package xmltree

import (
	"encoding/xml"
	"errors"
	"fmt"
	"io"
	"strings"
	"unicode/utf8"
)

// MaxDepth bounds element nesting in a parsed document. Parse itself is
// iterative, but the walkers behind it — Freeze, the arena writer, the
// edit validator — recurse once per level, and sites and the coordinator
// parse XML that arrives off the wire, so a document must not choose
// their stack depth. No real document comes near the bound.
const MaxDepth = 1 << 16

// ErrTooDeep is returned by Parse for a document whose elements nest more
// than MaxDepth deep.
var ErrTooDeep = errors.New("xmltree: elements nested deeper than MaxDepth")

// Parse reads an XML document from r into a Tree. Processing instructions,
// comments and directives are skipped, except that the <!ENTITY name
// "value"> declarations of a DOCTYPE internal subset define the entities
// the document may reference; the document must have exactly one
// top-level element. Character data consisting entirely of whitespace
// between elements is dropped (it is markup formatting, not content),
// matching how the paper's datasets are interpreted. A malformed document
// fails with an *xml.SyntaxError, one nested past MaxDepth with
// ErrTooDeep; an error reading r is returned wrapped.
func Parse(r io.Reader) (*Tree, error) {
	src := &sourceReader{r: r}
	dec := xml.NewDecoder(src)
	syntaxErr := func(msg string) error {
		line, _ := dec.InputPos()
		return fmt.Errorf("xmltree: parse: %w", &xml.SyntaxError{Msg: msg, Line: line})
	}
	var root *Node
	var stack []*Node
	for {
		tok, err := dec.Token()
		if err == io.EOF {
			break
		}
		if err != nil {
			var syntax *xml.SyntaxError
			if src.err == nil && !errors.As(err, &syntax) {
				// encoding/xml refuses an XML declaration it does not
				// support (a version other than 1.0, an encoding it cannot
				// read) with an untyped error; the document is malformed.
				return nil, syntaxErr(err.Error())
			}
			return nil, fmt.Errorf("xmltree: parse: %w", err)
		}
		switch t := tok.(type) {
		case xml.StartElement:
			if len(stack) == MaxDepth {
				return nil, fmt.Errorf("xmltree: parse: %w (%d)", ErrTooDeep, MaxDepth)
			}
			if !localName(t.Name) {
				return nil, syntaxErr("element name " + t.Name.Local + " is not a valid local name")
			}
			n := NewElement(t.Name.Local)
			for _, a := range t.Attr {
				if !localName(a.Name) {
					return nil, syntaxErr("attribute name " + a.Name.Local + " is not a valid local name")
				}
				n.SetAttr(a.Name.Local, a.Value)
			}
			if len(stack) == 0 {
				if root != nil {
					return nil, syntaxErr("multiple root elements")
				}
				root = n
			} else {
				stack[len(stack)-1].Append(n)
			}
			stack = append(stack, n)
		case xml.EndElement:
			// The decoder matches end elements to start elements.
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
				return nil, syntaxErr(err.Error())
			}
		}
	}
	if root == nil {
		return nil, syntaxErr("no root element")
	}
	return NewTree(root), nil
}

// sourceReader records the error its reader returned, other than io.EOF,
// so Parse can tell a failed read from a malformed document.
type sourceReader struct {
	r   io.Reader
	err error
}

func (s *sourceReader) Read(p []byte) (int, error) {
	n, err := s.r.Read(p)
	if err != nil && err != io.EOF {
		s.err = err
	}
	return n, err
}

// localName reports whether the local part of a name is an XML name
// without a colon, as Namespaces in XML requires (an NCName): the decoder
// checks the qualified name only, and Parse keeps the local part alone, so
// `p:0` would otherwise come out as the name `0`, and `:a` or `a:b:c` as a
// name with a colon.
func localName(n xml.Name) bool {
	return !strings.Contains(n.Local, ":") && (n.Space == "" || IsName(n.Local))
}

// IsName reports whether s is an XML name without a colon (an NCName),
// the only kind of label and attribute name Parse returns. ASCII names are
// checked here; a name with other characters is judged by the decoder.
func IsName(s string) bool {
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= utf8.RuneSelf:
			tok, err := xml.NewDecoder(strings.NewReader("<" + s + "/>")).RawToken()
			start, ok := tok.(xml.StartElement)
			return err == nil && ok && start.Name == xml.Name{Local: s} && len(start.Attr) == 0
		case 'a' <= c && c <= 'z' || 'A' <= c && c <= 'Z' || c == '_':
		case i > 0 && ('0' <= c && c <= '9' || c == '-' || c == '.'):
		default:
			return false
		}
	}
	return s != ""
}

// CheckRoundTrip returns an error if the subtree rooted at n is not one
// Parse can return, and so would not come back node for node through
// Serialize and Parse: elements nested past MaxDepth (ErrTooDeep), a label
// or attribute name that is not an IsName, whitespace-only text, or text
// or an attribute value with a character XML cannot carry.
func CheckRoundTrip(n *Node) error { return checkRoundTrip(n, 1) }

func checkRoundTrip(n *Node, depth int) error {
	ok := strings.TrimSpace(n.Data) != "" && carries(n.Data)
	if n.Kind == Element {
		if depth > MaxDepth {
			return ErrTooDeep
		}
		ok = IsName(n.Label)
		for _, a := range n.Attrs {
			ok = ok && IsName(a.Name) && carries(a.Value)
		}
	}
	if !ok {
		return fmt.Errorf("xmltree: %s node %q%q cannot round-trip", n.Kind, n.Label, n.Data)
	}
	for _, c := range n.Children {
		if err := checkRoundTrip(c, depth+1); err != nil {
			return err
		}
	}
	return nil
}

// carries reports whether XML can carry every character of s, that is,
// whether Writer.Text writes none of them as U+FFFD.
func carries(s string) bool {
	for i, j, esc := nextEscape(s, 0); i < len(s); i, j, esc = nextEscape(s, j) {
		if esc == "\uFFFD" {
			return false
		}
	}
	return true
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
// or indentation: the bytes of SerializeString(n), in one write. Parse
// reads the output back node for node if CheckRoundTrip(n) accepts it.
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
// and the fragment file form (fragment.Fragment.XML) both drive it, so the
// two share the markup and the escaping, the counted length is the written
// length by construction, and the output costs one allocation.
//
// Two text nodes in a row are written with an empty comment between them,
// which Parse skips while keeping the texts apart, so the output parses
// back into the same nodes.
type Writer struct {
	b     strings.Builder
	n     int
	write bool
	text  bool // the last thing written was a text node
}

// Alloc ends the counting pass: it sizes the buffer to the bytes counted
// and switches the Writer to writing.
func (w *Writer) Alloc() {
	w.b.Grow(w.n)
	w.n, w.write, w.text = 0, true, false
}

// String returns what the writing pass wrote.
func (w *Writer) String() string { return w.b.String() }

// Len returns the bytes the current pass has written, or counted: the
// offset at which the next write starts.
func (w *Writer) Len() int { return w.n }

func (w *Writer) str(s string) {
	w.n += len(s)
	if w.write {
		w.b.WriteString(s)
	}
}

// Text writes a text node, escaped, and returns the offset at which the
// node's own bytes start: after the empty comment that separates it from
// a text node written just before.
func (w *Writer) Text(s string) int {
	if w.text {
		w.str("<!---->")
	}
	start := w.n
	w.escaped(s)
	w.text = true
	return start
}

// escaped writes s escaped. Runs between escapes are copied as substrings
// of s.
func (w *Writer) escaped(s string) {
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
	w.text = false
	w.str("<")
	w.str(label)
	for _, a := range attrs {
		w.str(" ")
		w.str(a.Name)
		w.str(`="`)
		w.escaped(a.Value)
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
	w.text = false
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
