// Package xmltree provides the XML document substrate for paxq: an in-memory
// ordered tree of element and text nodes with stable node identifiers,
// parsing from and serialization to standard XML, and traversal helpers.
//
// The model intentionally matches the data model of the paper: documents are
// node-labelled ordered trees; the XPath fragment X navigates only element
// structure, string values (text()) and numeric values (val()). Attributes
// are preserved through parse/serialize round trips for workload realism but
// are not addressable from queries.
package xmltree

import (
	"fmt"
	"strconv"
	"strings"
)

// NodeKind distinguishes element nodes from text nodes.
type NodeKind uint8

// Node kinds.
const (
	Element NodeKind = iota
	Text
)

func (k NodeKind) String() string {
	if k == Element {
		return "element"
	}
	return "text"
}

// NodeID identifies a node within its tree: the preorder rank assigned by
// Tree.Freeze. IDs are dense, start at 0 at the root, and are stable for the
// life of the tree unless the tree is structurally modified and re-frozen.
type NodeID int32

// NoID marks a node whose tree has not been frozen.
const NoID NodeID = -1

// Attr is an element attribute, preserved for serialization fidelity only.
type Attr struct {
	Name  string
	Value string
}

// Node is a single tree node. Fields are exported for cheap traversal by the
// evaluation algorithms; mutators keep parent/child links consistent and
// should be preferred during construction.
type Node struct {
	Kind     NodeKind
	Label    string // element tag; empty for text nodes
	Data     string // character data; empty for element nodes
	Attrs    []Attr
	Parent   *Node
	Children []*Node
	ID       NodeID
}

// NewElement returns a parentless element node labelled label.
func NewElement(label string) *Node {
	return &Node{Kind: Element, Label: label, ID: NoID}
}

// NewText returns a parentless text node carrying data.
func NewText(data string) *Node {
	return &Node{Kind: Text, Data: data, ID: NoID}
}

// Append attaches children to n in order, setting their parent pointers.
// It panics if a child already has a parent or if n is a text node:
// structural invariants are enforced eagerly because every evaluation
// algorithm depends on them.
func (n *Node) Append(children ...*Node) *Node {
	if n.Kind != Element {
		//paxlint:allow nopanic(documented eager structural invariant of the in-memory builder API)
		panic("xmltree: appending children to a text node")
	}
	for _, c := range children {
		if c.Parent != nil {
			//paxlint:allow nopanic(documented eager structural invariant of the in-memory builder API)
			panic("xmltree: node already has a parent")
		}
		c.Parent = n
		n.Children = append(n.Children, c)
	}
	return n
}

// SetAttr appends an attribute to an element node.
func (n *Node) SetAttr(name, value string) *Node {
	if n.Kind != Element {
		//paxlint:allow nopanic(documented eager structural invariant of the in-memory builder API)
		panic("xmltree: attribute on a text node")
	}
	n.Attrs = append(n.Attrs, Attr{Name: name, Value: value})
	return n
}

// Tag returns the node's label; with Value and NumValue it is the
// element view the xpath row evaluator reads.
func (n *Node) Tag() string { return n.Label }

// IsElement reports whether n is an element node.
func (n *Node) IsElement() bool { return n != nil && n.Kind == Element }

// Value returns the node's string value in the sense of the paper's
// text() tests: for a text node its character data; for an element node the
// concatenation of the character data of its immediate text children,
// whitespace-trimmed.
func (n *Node) Value() string {
	if n.Kind == Text {
		return strings.TrimSpace(n.Data)
	}
	// A leaf element has at most one text child; its value is a substring
	// of that child's data, with nothing to concatenate.
	var only *Node
	texts := 0
	for _, c := range n.Children {
		if c.Kind == Text {
			only = c
			texts++
		}
	}
	switch texts {
	case 0:
		return ""
	case 1:
		return strings.TrimSpace(only.Data)
	}
	var b strings.Builder
	for _, c := range n.Children {
		if c.Kind == Text {
			b.WriteString(c.Data)
		}
	}
	return strings.TrimSpace(b.String())
}

// NumValue returns the node's numeric value for val() comparisons and
// whether one exists.
func (n *Node) NumValue() (float64, bool) {
	v, err := strconv.ParseFloat(n.Value(), 64)
	if err != nil {
		return 0, false
	}
	return v, true
}

// ElementChildren iterates over the element children of n in document order.
func (n *Node) ElementChildren(yield func(*Node) bool) {
	for _, c := range n.Children {
		if c.Kind == Element {
			if !yield(c) {
				return
			}
		}
	}
}

// String renders a short debug description of the node.
func (n *Node) String() string {
	if n == nil {
		return "<nil>"
	}
	if n.Kind == Text {
		return fmt.Sprintf("text(%q)", n.Data)
	}
	return fmt.Sprintf("<%s id=%d kids=%d>", n.Label, n.ID, len(n.Children))
}

// Tree is a frozen document: a root element plus the preorder ID assignment.
type Tree struct {
	Root *Node
	// nodes indexes nodes by ID after Freeze.
	nodes []*Node
}

// NewTree wraps root and assigns preorder IDs to every node.
func NewTree(root *Node) *Tree {
	if root == nil {
		//paxlint:allow nopanic(documented eager structural invariant of the in-memory builder API)
		panic("xmltree: nil root")
	}
	if root.Kind != Element {
		//paxlint:allow nopanic(documented eager structural invariant of the in-memory builder API)
		panic("xmltree: root must be an element")
	}
	t := &Tree{Root: root}
	t.Freeze()
	return t
}

// Freeze (re)assigns dense preorder IDs. Call after structural mutation.
func (t *Tree) Freeze() {
	t.nodes = t.nodes[:0]
	var walk func(n *Node)
	walk = func(n *Node) {
		n.ID = NodeID(len(t.nodes))
		t.nodes = append(t.nodes, n)
		for _, c := range n.Children {
			walk(c)
		}
	}
	walk(t.Root)
}

// Size returns the number of nodes in the tree (elements and text nodes).
func (t *Tree) Size() int { return len(t.nodes) }

// Node returns the node with the given ID, or nil if out of range.
func (t *Tree) Node(id NodeID) *Node {
	if id < 0 || int(id) >= len(t.nodes) {
		return nil
	}
	return t.nodes[id]
}

// PreorderNodes returns every node of the frozen tree in preorder, indexed
// by NodeID (Freeze assigns dense preorder IDs, so PreorderNodes()[i].ID ==
// i). Columnar builders — see internal/arena — iterate this instead of
// chasing Children pointers. Callers must not mutate the returned slice;
// it is invalidated by the next Freeze.
func (t *Tree) PreorderNodes() []*Node { return t.nodes }

// Walk visits every node in preorder, aborting when visit returns false.
func (t *Tree) Walk(visit func(*Node) bool) { walkPre(t.Root, visit) }

func walkPre(n *Node, visit func(*Node) bool) bool {
	if !visit(n) {
		return false
	}
	for _, c := range n.Children {
		if !walkPre(c, visit) {
			return false
		}
	}
	return true
}

// Stats summarizes a tree for experiment reporting.
type Stats struct {
	Nodes    int // total nodes
	Elements int // element nodes
	Texts    int // text nodes
	Depth    int // maximum depth, root = 1
	Bytes    int // serialized size estimate (labels + data + markup overhead)
}

// ComputeStats walks the tree once and returns its Stats.
func (t *Tree) ComputeStats() Stats {
	var s Stats
	var walk func(n *Node, d int)
	walk = func(n *Node, d int) {
		s.Nodes++
		if d > s.Depth {
			s.Depth = d
		}
		if n.Kind == Element {
			s.Elements++
			s.Bytes += 2*len(n.Label) + 5 // <l></l>
			for _, a := range n.Attrs {
				s.Bytes += len(a.Name) + len(a.Value) + 4
			}
		} else {
			s.Texts++
			s.Bytes += len(n.Data)
		}
		for _, c := range n.Children {
			walk(c, d+1)
		}
	}
	walk(t.Root, 1)
	return s
}

// Clone deep-copies the subtree rooted at n. The copy is parentless and
// carries NoID on every node.
func (n *Node) Clone() *Node {
	c := &Node{Kind: n.Kind, Label: n.Label, Data: n.Data, ID: NoID}
	if len(n.Attrs) > 0 {
		c.Attrs = append([]Attr(nil), n.Attrs...)
	}
	for _, k := range n.Children {
		kc := k.Clone()
		kc.Parent = c
		c.Children = append(c.Children, kc)
	}
	return c
}

// DeepEqual reports whether two subtrees are structurally identical
// (kind, label, data, attributes and child order). IDs are ignored.
func DeepEqual(a, b *Node) bool {
	if a == nil || b == nil {
		return a == b
	}
	if a.Kind != b.Kind || a.Label != b.Label || a.Data != b.Data || len(a.Attrs) != len(b.Attrs) || len(a.Children) != len(b.Children) {
		return false
	}
	for i := range a.Attrs {
		if a.Attrs[i] != b.Attrs[i] {
			return false
		}
	}
	for i := range a.Children {
		if !DeepEqual(a.Children[i], b.Children[i]) {
			return false
		}
	}
	return true
}

// El is a compact constructor for tests and examples: an element with the
// given label and children.
func El(label string, children ...*Node) *Node {
	return NewElement(label).Append(children...)
}

// Tx is a compact constructor for a text node.
func Tx(data string) *Node { return NewText(data) }

// ElT builds the common leaf pattern <label>text</label>.
func ElT(label, text string) *Node {
	return El(label, Tx(text))
}
