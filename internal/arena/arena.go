package arena

import (
	"math/bits"
	"strings"

	"paxq/internal/xmltree"
)

// Tree is the columnar form of a document. Node i of the arena is the
// node of preorder rank i, which for a frozen xmltree.Tree is the node
// with xmltree.NodeID i (Freeze assigns dense preorder IDs). All columns
// have one entry per node; -1 marks an absent index. None of them holds a
// pointer, so an edit's successor copies them in bulk and the collector
// never scans them. A Tree is immutable once built (Builder.Tree) —
// callers must not mutate any column — and therefore safe for concurrent
// readers.
type Tree struct {
	n int

	// LabelID is the interned label per element node, -1 for text nodes.
	LabelID []int32
	// Parent encodes the tree structure; FirstChild and NextSibling are
	// derived from it and SubtreeEnd.
	Parent []int32
	// SubtreeEnd is the exclusive preorder end of node i's subtree: the
	// descendants of i are exactly the indices in (i, SubtreeEnd[i]).
	SubtreeEnd []int32
	// slot is node i's entry in vals: a text node's character data, or an
	// element's precomputed string and numeric values (xmltree.Node.Value
	// / NumValue semantics) and its attributes.
	slot []int32
	vals pool

	labels     []string         // label id -> label
	labelIDs   map[string]int32 // label -> label id
	labelMasks []Bitset         // label id -> element mask
	elements   Bitset
	emptyMask  Bitset // all-zero; returned for labels the document lacks
}

// Len returns the number of nodes.
func (a *Tree) Len() int { return a.n }

// LabelOf returns the label of element node i.
func (a *Tree) LabelOf(i int) string { return a.labels[a.LabelID[i]] }

// FirstChild returns node i's first child, or -1 when it has none: the
// node right after it in preorder, when that lies inside its subtree.
func (a *Tree) FirstChild(i int) int {
	if int(a.SubtreeEnd[i]) > i+1 {
		return i + 1
	}
	return -1
}

// NextSibling returns node i's next sibling, or -1 when it has none: the
// node right after its subtree, when that lies inside its parent's.
func (a *Tree) NextSibling(i int) int {
	p := a.Parent[i]
	if e := a.SubtreeEnd[i]; p >= 0 && e < a.SubtreeEnd[p] {
		return int(e)
	}
	return -1
}

// Text returns text node i's character data.
func (a *Tree) Text(i int) string { return a.vals.str[a.slot[i]] }

// Value returns element node i's string value.
func (a *Tree) Value(i int) string { return a.vals.str[a.slot[i]] }

// childText returns element node i's string value (xmltree.Node.Value):
// its immediate text children's data, concatenated and whitespace-trimmed.
// With at most one text child it is a substring of that child's data.
func (a *Tree) childText(i int) string {
	var only string
	texts := 0
	for c := a.FirstChild(i); c >= 0; c = a.NextSibling(c) {
		if a.LabelID[c] < 0 {
			only = a.Text(c)
			texts++
		}
	}
	if texts <= 1 {
		return strings.TrimSpace(only)
	}
	var sb strings.Builder
	for c := a.FirstChild(i); c >= 0; c = a.NextSibling(c) {
		if a.LabelID[c] < 0 {
			sb.WriteString(a.Text(c))
		}
	}
	return strings.TrimSpace(sb.String())
}

// NumValue returns element node i's numeric value and whether it has one.
func (a *Tree) NumValue(i int) (float64, bool) {
	s := a.slot[i]
	return a.vals.num[s], a.vals.numOK[s]
}

// Attrs returns element node i's attributes. Callers must not mutate the
// returned slice.
func (a *Tree) Attrs(i int) []xmltree.Attr { return a.vals.attrs[a.slot[i]] }

// Elem is element node I of arena T, read through the accessor the
// xpath row evaluator takes (xpath.Elem): label, string value and numeric
// value, straight from the columns.
type Elem struct {
	T *Tree
	I int
}

// Tag returns the element's label.
func (e Elem) Tag() string { return e.T.LabelOf(e.I) }

// Value returns the element's string value.
func (e Elem) Value() string { return e.T.Value(e.I) }

// NumValue returns the element's numeric value and whether it has one.
func (e Elem) NumValue() (float64, bool) { return e.T.NumValue(e.I) }

// Elements returns the mask of element nodes. Callers must not mutate it.
func (a *Tree) Elements() Bitset { return a.elements }

// LabelMask returns the mask of element nodes labelled label — the all-zero
// mask when no node carries it. Callers must not mutate the result.
func (a *Tree) LabelMask(label string) Bitset {
	if id, ok := a.labelIDs[label]; ok {
		return a.labelMasks[id]
	}
	return a.emptyMask
}

// ToTree reconstructs the pointer form. The result is a fresh tree whose
// node IDs coincide with the arena indices (both are dense preorder).
func (a *Tree) ToTree() *xmltree.Tree {
	built := make([]*xmltree.Node, a.n)
	for i := 0; i < a.n; i++ {
		var nd *xmltree.Node
		if a.LabelID[i] >= 0 {
			nd = xmltree.NewElement(a.LabelOf(i))
			if attrs := a.Attrs(i); len(attrs) > 0 {
				nd.Attrs = append([]xmltree.Attr(nil), attrs...)
			}
		} else {
			nd = xmltree.NewText(a.Text(i))
		}
		built[i] = nd
		// Preorder guarantees a parent precedes its children and siblings
		// appear in document order, so appending here preserves child order.
		if p := a.Parent[i]; p >= 0 {
			built[p].Append(nd)
		}
	}
	return xmltree.NewTree(built[0])
}

// ParentScatter computes into dst the set of nodes with at least one child
// in src — the QCV aggregation, "some child starts a match". It scans
// src's set bits a word at a time, so it costs O(|src| + n/64). dst is
// overwritten; src and dst must not alias.
func (a *Tree) ParentScatter(src, dst Bitset) {
	dst.Zero()
	par := a.Parent // a local header: the writes to dst cannot reload it
	for wi, w := range src {
		for ; w != 0; w &= w - 1 {
			if p := par[wi<<6+bits.TrailingZeros64(w)]; p >= 0 {
				dst.Set(int(p))
			}
		}
	}
}

// ParentIn computes into dst the members of cand whose parent is in src —
// the child-step join, "a cand node one step below src". It scans cand's
// set bits a word at a time, so it costs O(|cand| + n/64), not O(n). dst
// is overwritten; it must alias neither cand nor src.
func (a *Tree) ParentIn(cand, src, dst Bitset) {
	dst.Zero()
	par := a.Parent
	for wi, w := range cand {
		for ; w != 0; w &= w - 1 {
			i := wi<<6 + bits.TrailingZeros64(w)
			if p := par[i]; p >= 0 && src.Get(int(p)) {
				dst.Set(i)
			}
		}
	}
}

// DescendantsOrSelf computes into dst the set of nodes with an
// ancestor-or-self in src — the descendant-step join. From each member i
// it fills [i, SubtreeEnd[i]) a word at a time and resumes the scan at
// SubtreeEnd[i], so members inside a filled subtree are never read. dst
// is overwritten; src and dst must not alias.
func (a *Tree) DescendantsOrSelf(src, dst Bitset) {
	dst.Zero()
	end := a.SubtreeEnd
	for i := src.NextSet(0, a.n); i < a.n; {
		e := int(end[i])
		dst.fillRange(i, e)
		i = src.NextSet(e, a.n)
	}
}

// StrictDescendants computes into dst the set of nodes with at least one
// strict descendant in src — the QDV aggregation — as the ancestor closure
// of src's members: from each member it climbs the parent column, setting
// bits, and stops at the first node already in dst. dst stays closed under
// "parent of", so every node is set once and the join costs
// O(|src| + |dst| + n/64), not O(n). dst is overwritten; src and dst must
// not alias.
func (a *Tree) StrictDescendants(src, dst Bitset) {
	dst.Zero()
	par := a.Parent // a local header: the writes to dst cannot reload it
	for wi, w := range src {
		for ; w != 0; w &= w - 1 {
			for p := par[wi<<6+bits.TrailingZeros64(w)]; p >= 0 && !dst.Get(int(p)); p = par[p] {
				dst.Set(int(p))
			}
		}
	}
}
