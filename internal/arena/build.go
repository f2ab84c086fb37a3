package arena

import (
	"paxq/internal/xmltree"
)

// Builder writes a Tree's columns in one preorder pass: Open an element,
// write its children, Close it; Text writes a text node. It is the one
// column builder: FromTree drives it over a pointer tree or an arena,
// and fragment.Cut over a document's nodes, writing a virtual leaf where
// a sub-fragment is cut away. An element's string and numeric values are
// set when it closes, from its immediate text children, so the strings
// of a document with one text child per leaf element are shared, not
// copied.
type Builder struct {
	t     *Tree
	open  []int32        // the open elements, innermost last
	attrs []xmltree.Attr // the chunk attributes are carved from
}

// attrChunk is the number of attributes a Builder's chunk holds; a chunk
// is allocated when the current one cannot take an element's attributes.
const attrChunk = 128

// NewBuilder returns a Builder whose columns have room for n nodes: a
// tree of exactly n nodes is built with no growth copy and no spare
// capacity.
func NewBuilder(n int) *Builder {
	cols := make([]int32, 4*n)
	return &Builder{t: &Tree{
		LabelID:    cols[0:0:n],
		Parent:     cols[n : n : 2*n],
		SubtreeEnd: cols[2*n : 2*n : 3*n],
		slot:       cols[3*n : 3*n : 4*n],
		vals:       newPool(n),
		labelIDs:   make(map[string]int32),
	}}
}

// Open writes an element labelled label with a copy of attrs, child of
// the innermost open element, and leaves it open; it returns its index.
func (b *Builder) Open(label string, attrs []xmltree.Attr) int {
	t := b.t
	id, ok := t.labelIDs[label]
	if !ok {
		id = int32(len(t.labels))
		t.labelIDs[label] = id
		t.labels = append(t.labels, label)
	}
	i := b.node(id, t.vals.push("", 0, false, carveAttrs(&b.attrs, attrs)))
	b.open = append(b.open, int32(i))
	return i
}

// Text writes a text node carrying data, child of the innermost open
// element, and returns its index.
func (b *Builder) Text(data string) int { return b.node(-1, b.t.vals.pushText(data)) }

// Close closes the innermost open element and sets its values.
func (b *Builder) Close() {
	t := b.t
	i := int(b.open[len(b.open)-1])
	b.open = b.open[:len(b.open)-1]
	t.SubtreeEnd[i] = int32(len(t.LabelID))
	t.vals.setValue(t.slot[i], t.childText(i))
}

// node appends one node's column entries.
func (b *Builder) node(label, slot int32) int {
	t := b.t
	i := len(t.LabelID)
	parent := int32(-1)
	if k := len(b.open); k > 0 {
		parent = b.open[k-1]
	}
	t.LabelID = append(t.LabelID, label)
	t.Parent = append(t.Parent, parent)
	t.SubtreeEnd = append(t.SubtreeEnd, int32(i+1))
	t.slot = append(t.slot, slot)
	return i
}

// Tree closes every element still open and returns the built tree, its
// per-label and element masks written in one pass over the label column.
// The Builder must not be used afterwards.
func (b *Builder) Tree() *Tree {
	for len(b.open) > 0 {
		b.Close()
	}
	t := b.t
	b.t = nil
	t.n = len(t.LabelID)
	t.vals.claimed.Store(int64(t.vals.Len()))
	// Every label's mask, the element mask and the empty one, in one
	// allocation.
	words := (t.n + 63) / 64
	slab := make(Bitset, (len(t.labels)+2)*words)
	mask := func(k int) Bitset { return slab[k*words : (k+1)*words : (k+1)*words] }
	t.labelMasks = make([]Bitset, len(t.labels))
	for id := range t.labelMasks {
		t.labelMasks[id] = mask(id)
	}
	t.elements, t.emptyMask = mask(len(t.labels)), mask(len(t.labels)+1)
	for i, id := range t.LabelID {
		if id >= 0 {
			t.labelMasks[id].Set(i)
			t.elements.Set(i)
		}
	}
	return t
}

// write writes the subtree rooted at nd.
func (b *Builder) write(nd *xmltree.Node) {
	if nd.Kind != xmltree.Element {
		b.Text(nd.Data)
		return
	}
	b.Open(nd.Label, nd.Attrs)
	for _, c := range nd.Children {
		b.write(c)
	}
	b.Close()
}

// Source is a document FromTree reads: a pointer tree, or an arena.
type Source interface {
	*xmltree.Tree | *Tree
}

// FromTree builds the columnar layout of src. For a pointer tree the
// arena index of every node equals its xmltree.NodeID. For an arena it
// builds from src's pointer form (ToTree), so the copy has a value pool
// of its own holding only the entries src reads.
func FromTree[S Source](src S) *Tree {
	t, ok := any(src).(*xmltree.Tree)
	if !ok {
		t = any(src).(*Tree).ToTree()
	}
	b := NewBuilder(t.Size())
	b.write(t.Root)
	return b.Tree()
}
