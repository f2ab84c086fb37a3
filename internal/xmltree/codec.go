package xmltree

import (
	"bufio"
	"encoding/xml"
	"fmt"
	"io"
	"strings"
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
// or indentation. The output round-trips through Parse.
func Serialize(w io.Writer, n *Node) error {
	bw := bufio.NewWriter(w)
	if err := writeNode(bw, n); err != nil {
		return err
	}
	return bw.Flush()
}

func writeNode(w *bufio.Writer, n *Node) error {
	if n.Kind == Text {
		if err := xml.EscapeText(w, []byte(n.Data)); err != nil {
			return err
		}
		return nil
	}
	w.WriteByte('<')
	w.WriteString(n.Label)
	for _, a := range n.Attrs {
		w.WriteByte(' ')
		w.WriteString(a.Name)
		w.WriteString(`="`)
		if err := xml.EscapeText(w, []byte(a.Value)); err != nil {
			return err
		}
		w.WriteByte('"')
	}
	if len(n.Children) == 0 {
		w.WriteString("/>")
		return nil
	}
	w.WriteByte('>')
	for _, c := range n.Children {
		if err := writeNode(w, c); err != nil {
			return err
		}
	}
	w.WriteString("</")
	w.WriteString(n.Label)
	w.WriteByte('>')
	return nil
}

// SerializeString renders the subtree rooted at n as an XML string.
func SerializeString(n *Node) string {
	var b strings.Builder
	bw := bufio.NewWriter(&b)
	if err := writeNode(bw, n); err != nil {
		// strings.Builder never errors; xml.EscapeText errors only on a
		// failing writer, so this is unreachable.
		//paxlint:allow nopanic(unreachable: strings.Builder writes cannot fail)
		panic(err)
	}
	bw.Flush()
	return b.String()
}
