package arena

import (
	"fmt"
	"maps"
	"math"
	"slices"

	"paxq/internal/xmltree"
)

// This file holds the document-order splice kernels, which are the whole
// of a site's fragment edit (fragment.Fragment.ApplyEdit); the pointer-tree
// edit of the oracle mirror (fragment.Fragmentation.ApplyEdit) is their
// reference. A Tree is immutable, so every kernel returns a fresh Tree;
// the input is never touched. The kernels renumber by pure index
// arithmetic — an old index j maps to j when j < at and to j+delta when
// j >= at+oldLen, where delta is the node-count change — so the same
// mapping applied to a bit-packed mask (SpliceBits) renumbers a whole
// mask at once, which is how a fragment edit carries its virtual and
// spine masks across.

// DeleteSubtree returns a new tree with the whole subtree rooted at node
// `at` removed. The root cannot be deleted.
func (a *Tree) DeleteSubtree(at int) (*Tree, error) {
	if at <= 0 || at >= a.n {
		return nil, fmt.Errorf("arena: delete target %d out of range (n=%d, root undeletable)", at, a.n)
	}
	return a.splice(at, int(a.SubtreeEnd[at])-at, int(a.Parent[at]), nil), nil
}

// InsertSubtree returns a new tree with the subtree rooted at repl
// attached as child number pos (counting element and text children alike)
// of element node parent. repl and its descendants are read, never
// retained or mutated.
func (a *Tree) InsertSubtree(parent, pos int, repl *xmltree.Node) (*Tree, error) {
	if parent < 0 || parent >= a.n || !a.elements.Get(parent) {
		return nil, fmt.Errorf("arena: insert parent %d is not an element (n=%d)", parent, a.n)
	}
	if repl == nil {
		return nil, fmt.Errorf("arena: nil insert subtree")
	}
	at, ok := a.ChildSlot(parent, pos)
	if !ok {
		return nil, fmt.Errorf("arena: insert position %d beyond the children of node %d", pos, parent)
	}
	return a.splice(at, 0, parent, repl), nil
}

// ChildSlot returns the preorder index at which a subtree inserted as
// child number pos (element and text children alike) of node parent
// starts, or ok=false when parent has fewer than pos children.
func (a *Tree) ChildSlot(parent, pos int) (at int, ok bool) {
	at, end := parent+1, int(a.SubtreeEnd[parent])
	for ; pos > 0; pos-- {
		if at >= end {
			return 0, false
		}
		at = int(a.SubtreeEnd[at])
	}
	return at, true
}

// Relabel returns a new tree with element node `node` relabelled. All
// columns the rename cannot touch are shared with the receiver.
func (a *Tree) Relabel(node int, label string) (*Tree, error) {
	if node < 0 || node >= a.n || !a.elements.Get(node) {
		return nil, fmt.Errorf("arena: relabel target %d is not an element (n=%d)", node, a.n)
	}
	b := *a // share every immutable column
	b.LabelID = slices.Clone(a.LabelID)
	id := b.intern(a, label)
	b.labelMasks = make([]Bitset, len(b.labels))
	copy(b.labelMasks, a.labelMasks)
	old := a.LabelID[node]
	oldMask := NewBitset(a.n)
	oldMask.CopyFrom(a.labelMasks[old])
	oldMask.Clear(node)
	b.labelMasks[old] = oldMask
	m := NewBitset(a.n)
	if int(id) < len(a.labelMasks) {
		m.CopyFrom(b.labelMasks[id])
	}
	m.Set(node)
	b.labelMasks[id] = m
	b.LabelID[node] = id
	return &b, nil
}

// intern returns label's id in b's vocabulary, adding it when new. b's
// vocabulary starts out shared with a's, the tree b is edited from: the
// first new label copies it, so an edit that brings no new label
// allocates nothing for it.
func (b *Tree) intern(a *Tree, label string) int32 {
	if id, ok := b.labelIDs[label]; ok {
		return id
	}
	if len(b.labels) == len(a.labels) {
		b.labelIDs = maps.Clone(a.labelIDs)
		b.labels = slices.Clip(a.labels)
	}
	id := int32(len(b.labels))
	b.labelIDs[label] = id
	b.labels = append(b.labels, label)
	return id
}

// splice replaces the preorder interval [at, at+oldLen) — a whole subtree
// of parent when oldLen > 0 — with the subtree rooted at repl (nil for a
// pure deletion).
//
// Only the pointer-free columns and masks are copied, in bulk around the
// interval; renumbering touches the part after it and the splice parent's
// ancestor chain. The inserted nodes' values go to the end of the value
// pool the receiver shares with its other versions, or, when the tail
// cannot be claimed or the dead entries would outnumber the live ones,
// the live entries move to a fresh pool.
func (a *Tree) splice(at, oldLen, parent int, repl *xmltree.Node) *Tree {
	b := &Tree{labels: a.labels, labelIDs: a.labelIDs}
	newLen, newAttrs := 0, 0
	if repl != nil {
		newLen, newAttrs = b.scan(a, repl)
	}
	delta := newLen - oldLen
	n2 := a.n + delta
	d := int32(delta)
	b.n = n2

	b.LabelID = spliceCol(a.LabelID, at, oldLen, newLen)
	b.slot = spliceCol(a.slot, at, oldLen, newLen)
	// A parent past the interval is past it too, so shifts with it; one
	// before it is unchanged, as is every index before the interval.
	b.Parent = spliceCol(a.Parent, at, oldLen, newLen)
	for j, p := range b.Parent[at+newLen:] {
		if int(p) >= at {
			b.Parent[at+newLen+j] = p + d
		}
	}
	// Subtree ends past the interval shift, and so do the ends of the
	// subtrees that hold it: the splice parent's and its ancestors'.
	b.SubtreeEnd = spliceCol(a.SubtreeEnd, at, oldLen, newLen)
	for j := at + newLen; j < n2; j++ {
		b.SubtreeEnd[j] += d
	}
	for p := int32(parent); p >= 0; p = b.Parent[p] {
		b.SubtreeEnd[p] += d
	}

	b.elements = SpliceBits(a.elements, at, oldLen, newLen, a.n)
	// Every label's mask, plus the empty one, in one allocation.
	words := (n2 + 63) / 64
	slab := make(Bitset, (len(b.labels)+1)*words)
	b.labelMasks = make([]Bitset, len(b.labels))
	for id := range b.labelMasks {
		m := slab[id*words : (id+1)*words : (id+1)*words]
		if id < len(a.labelMasks) {
			spliceBitsInto(m, a.labelMasks[id], at, oldLen, newLen, a.n)
		}
		b.labelMasks[id] = m
	}
	b.emptyMask = slab[len(b.labels)*words:]

	// The splice parent's string value is read from its immediate text
	// children, so it changes only when the interval is a text node; it
	// then takes a fresh entry, as the old one may be shared.
	textEdit := repl != nil && repl.Kind != xmltree.Element || repl == nil && a.LabelID[at] < 0
	k := newLen
	if textEdit {
		k++
	}
	var ok bool
	if b.vals, ok = a.vals.extend(k, n2); !ok {
		// Room for as many entries again, so that appends run in place
		// until dead entries would outnumber live ones.
		b.vals = newPool(2*n2 + 64)
		b.vals.claimed.Store(int64(n2 - newLen + k))
		for j, s := range b.slot {
			if j < at || j >= at+newLen {
				b.slot[j] = b.vals.copyEntry(&a.vals, s)
			}
		}
	}
	if repl != nil {
		attrs := make([]xmltree.Attr, 0, newAttrs)
		b.fill(repl, at, int32(parent), &attrs)
	}
	if textEdit {
		b.slot[parent] = b.vals.pushElem(b.childText(parent), b.Attrs(parent))
	}
	return b
}

// scan counts the nodes and attributes of an inserted subtree and interns
// its labels, so the spliced label masks can be sized before it is
// written.
func (b *Tree) scan(a *Tree, nd *xmltree.Node) (nodes, attrs int) {
	nodes = 1
	if nd.Kind == xmltree.Element {
		b.intern(a, nd.Label)
		attrs = len(nd.Attrs)
	}
	for _, c := range nd.Children {
		cn, ca := b.scan(a, c)
		nodes += cn
		attrs += ca
	}
	return nodes, attrs
}

// fill writes the inserted subtree rooted at nd into the columns at
// preorder index j under parent and its values into the pool, carving
// its attributes from attrs, and returns the index past its subtree.
func (b *Tree) fill(nd *xmltree.Node, j int, parent int32, attrs *[]xmltree.Attr) int {
	b.Parent[j] = parent
	if nd.Kind == xmltree.Element {
		b.elements.Set(j)
		id := b.labelIDs[nd.Label]
		b.LabelID[j] = id
		b.labelMasks[id].Set(j)
		b.slot[j] = b.vals.pushElem(nd.Value(), carveAttrs(attrs, nd.Attrs))
	} else {
		b.LabelID[j] = -1
		b.slot[j] = b.vals.pushText(nd.Data)
	}
	k := j + 1
	for _, c := range nd.Children {
		k = b.fill(c, k, int32(j), attrs)
	}
	b.SubtreeEnd[j] = int32(k)
	return k
}

// spliceCol returns src with the entries [at, at+oldLen) replaced by
// newLen entries of no particular value, for the caller to fill.
//
// It appends to a prefix of src whose capacity is under half the result's
// length, so append allocates exactly the result and zeroes none of it:
// every entry is copied from src. The appended run reads src at the
// suffix's shift, standing in for the new entries, and the part of the
// prefix it covers is copied back. An insert longer than that prefix has
// no such run; it appends the new entries, then the suffix.
func spliceCol(src []int32, at, oldLen, newLen int) []int32 {
	total := len(src) - oldLen + newLen
	k := min(at, (total-1)/2)
	if j := k + oldLen - newLen; j >= 0 {
		dst := append(src[:k:k], src[j:]...)
		copy(dst[k:at], src[k:at])
		return dst
	}
	return append(append(src[:at:at], make([]int32, newLen)...), src[at+oldLen:]...)
}

// SpliceBits returns src — a mask over oldN positions — with the bit
// interval [at, at+oldLen) removed and newLen zero bits inserted in its
// place. The result covers oldN-oldLen+newLen positions. This is the mask
// twin of the node renumbering the splice kernels perform.
func SpliceBits(src Bitset, at, oldLen, newLen, oldN int) Bitset {
	out := NewBitset(oldN - oldLen + newLen)
	spliceBitsInto(out, src, at, oldLen, newLen, oldN)
	return out
}

// spliceBitsInto is SpliceBits writing into out, which must be zero and
// sized for oldN-oldLen+newLen positions.
func spliceBitsInto(out, src Bitset, at, oldLen, newLen, oldN int) {
	copy(out[:at>>6], src)
	if r := at & 63; r != 0 {
		out[at>>6] = src[at>>6] & (1<<uint(r) - 1)
	}
	copyBits(out, at+newLen, src, at+oldLen, oldN-at-oldLen)
}

// copyBits ORs count bits of src starting at srcOff into dst starting at
// dstOff, whose bits there must be zero. After at most one partial word it
// writes whole destination words, each the join of two source words at a
// fixed shift.
func copyBits(dst Bitset, dstOff int, src Bitset, srcOff, count int) {
	if count <= 0 {
		return
	}
	if r := dstOff & 63; r != 0 {
		c := min(64-r, count)
		dst[dstOff>>6] |= readBits(src, srcOff, c) << uint(r)
		dstOff, srcOff, count = dstOff+c, srcOff+c, count-c
	}
	full := count >> 6
	d := dst[dstOff>>6:][:full]
	if sh := uint(srcOff & 63); sh == 0 {
		copy(d, src[srcOff>>6:])
	} else {
		// The last bit the whole words read, srcOff+64*full-1, lies below
		// the source's length, in word srcOff>>6+full.
		s := src[srcOff>>6:][:full+1]
		for k := range d {
			d[k] = s[k]>>sh | s[k+1]<<(64-sh)
		}
	}
	if rem := count & 63; rem != 0 {
		dst[dstOff>>6+full] = readBits(src, srcOff+full<<6, rem)
	}
}

// Equal reports whether two arenas describe the same document: every
// column, value, label assignment and attribute list agrees. Label IDs
// and value-pool slots may differ (both are history-dependent after
// splices); labels and values are compared by content.
func Equal(a, b *Tree) bool {
	if a.n != b.n {
		return false
	}
	for i := 0; i < a.n; i++ {
		if a.Parent[i] != b.Parent[i] || a.SubtreeEnd[i] != b.SubtreeEnd[i] ||
			a.elements.Get(i) != b.elements.Get(i) || a.Text(i) != b.Text(i) {
			return false
		}
		if a.elements.Get(i) {
			if a.LabelOf(i) != b.LabelOf(i) {
				return false
			}
			af, aok := a.NumValue(i)
			bf, bok := b.NumValue(i)
			if aok != bok || math.Float64bits(af) != math.Float64bits(bf) || !slices.Equal(a.Attrs(i), b.Attrs(i)) {
				return false
			}
		}
	}
	// Masks must agree for both vocabularies (a label absent from one side
	// must have an empty mask on the other). Both cover n positions and
	// keep their tail bits zero, so they agree word for word.
	for _, l := range append(slices.Clip(a.labels), b.labels...) {
		if !slices.Equal(a.LabelMask(l), b.LabelMask(l)) {
			return false
		}
	}
	return true
}

// readBits reads c (≤ 64) bits of src starting at bit offset off.
func readBits(src Bitset, off, c int) uint64 {
	wi, sh := off>>6, uint(off&63)
	w := src[wi] >> sh
	if sh > 0 && wi+1 < len(src) {
		w |= src[wi+1] << (64 - sh)
	}
	if c < 64 {
		w &= uint64(1)<<uint(c) - 1
	}
	return w
}
