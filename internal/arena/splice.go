package arena

import (
	"fmt"
	"maps"
	"slices"
	"strconv"
	"strings"

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
	oldLen := int(a.SubtreeEnd[at]) - at
	parent := a.Parent[at]
	// Previous sibling: the child of parent whose NextSibling is at.
	prev := int32(-1)
	for c := a.FirstChild[parent]; c >= 0 && c != int32(at); c = a.NextSibling[c] {
		prev = c
	}
	return a.splice(at, oldLen, parent, prev, a.NextSibling[at], nil)
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
	at, prev, next, ok := a.slot(parent, pos)
	if !ok {
		return nil, fmt.Errorf("arena: insert position %d beyond the children of node %d", pos, parent)
	}
	return a.splice(at, 0, int32(parent), prev, next, repl)
}

// ChildSlot returns the preorder index at which a subtree inserted as
// child number pos (element and text children alike) of node parent
// starts, or ok=false when parent has fewer than pos children.
func (a *Tree) ChildSlot(parent, pos int) (at int, ok bool) {
	at, _, _, ok = a.slot(parent, pos)
	return at, ok
}

// slot is ChildSlot plus the children before and after the slot (-1 when
// absent), found by walking parent's child chain.
func (a *Tree) slot(parent, pos int) (at int, prev, next int32, ok bool) {
	prev, next = -1, a.FirstChild[parent]
	for i := 0; i < pos; i++ {
		if next < 0 {
			return 0, -1, -1, false
		}
		prev, next = next, a.NextSibling[next]
	}
	at = parent + 1
	if prev >= 0 {
		at = int(a.SubtreeEnd[prev])
	}
	return at, prev, next, true
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
// when oldLen > 0 — with the subtree rooted at repl (nil for a pure
// deletion). parent is the element receiving the splice, prev its child
// preceding the interval (-1 when the interval is/becomes the first
// child), next the child following it (-1 at the end of the child list).
//
// Every column is copied in bulk around the interval. Renumbering is then
// one pass over the link columns: an old index j keeps its value when
// j < at and becomes j+delta when j >= at+oldLen.
func (a *Tree) splice(at, oldLen int, parent, prev, next int32, repl *xmltree.Node) (*Tree, error) {
	if oldLen > 0 && int(a.SubtreeEnd[at]) != at+oldLen {
		return nil, fmt.Errorf("arena: splice interval [%d,%d) is not a whole subtree", at, at+oldLen)
	}
	b := &Tree{labels: a.labels, labelIDs: a.labelIDs}
	newLen, newAttrs := 0, 0
	if repl != nil {
		newLen, newAttrs = b.scan(a, repl)
	}
	end := at + oldLen
	delta := newLen - oldLen
	n2 := a.n + delta
	b.n = n2

	b.LabelID = spliceCol(a.LabelID, at, oldLen, newLen)
	b.Text = spliceCol(a.Text, at, oldLen, newLen)
	b.Value = spliceCol(a.Value, at, oldLen, newLen)
	b.NumVal = spliceCol(a.NumVal, at, oldLen, newLen)
	b.Parent = spliceLinks(a.Parent, at, oldLen, newLen)
	b.FirstChild = spliceLinks(a.FirstChild, at, oldLen, newLen)
	b.NextSibling = spliceLinks(a.NextSibling, at, oldLen, newLen)
	// A subtree end past the interval shifts. One landing exactly on `at`
	// shifts only for the splice parent and its ancestors, whose subtrees
	// hold the interval — exactly the nodes j <= parent, since at > parent —
	// and not for a preceding sibling's subtree ending at the same place.
	b.SubtreeEnd = spliceCol(a.SubtreeEnd, at, oldLen, newLen)
	d := int32(delta)
	for j, q := range b.SubtreeEnd[:at] {
		if int(q) > at || int(q) == at && j <= int(parent) {
			b.SubtreeEnd[j] = q + d
		}
	}
	for j := at + newLen; j < n2; j++ {
		b.SubtreeEnd[j] += d
	}

	b.NumOK = SpliceBits(a.NumOK, at, oldLen, newLen, a.n)
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

	// Attribute storage: cut the removed interval's flat attrs, write the
	// inserted ones in its place.
	cutStart, cutEnd := a.attrOff[at], a.attrOff[end]
	if c := len(a.attrs) - int(cutEnd-cutStart) + newAttrs; c > 0 {
		b.attrs = make([]xmltree.Attr, 0, c)
	}
	b.attrs = append(b.attrs, a.attrs[:cutStart]...)
	b.attrOff = make([]int32, n2+1)
	copy(b.attrOff, a.attrOff[:at])
	if repl != nil {
		b.fill(repl, at, parent)
	}
	attrShift := int32(len(b.attrs)) - cutEnd
	for j := end; j <= a.n; j++ {
		b.attrOff[j+delta] = a.attrOff[j] + attrShift
	}
	b.attrs = append(b.attrs, a.attrs[cutEnd:]...)

	// Rewire the child list around the splice point. Pure deletion: the
	// interval leaves the chain. Insertion: the new root enters it.
	if repl == nil {
		if prev >= 0 {
			b.NextSibling[prev] = mapIdx(next, at, delta)
		} else {
			b.FirstChild[parent] = mapIdx(next, at, delta)
		}
	} else {
		if prev >= 0 {
			b.NextSibling[prev] = int32(at)
		} else {
			b.FirstChild[parent] = int32(at)
		}
		b.NextSibling[at] = mapIdx(next, at, delta) // the inserted root precedes the old occupant of the slot
	}
	// The splice parent's string value depends on its immediate text
	// children, which the edit may have changed; recompute it from the
	// rewired child chain.
	var sb strings.Builder
	for c := b.FirstChild[parent]; c >= 0; c = b.NextSibling[c] {
		if !b.elements.Get(int(c)) {
			sb.WriteString(b.Text[c])
		}
	}
	b.setValue(int(parent), strings.TrimSpace(sb.String()))
	return b, nil
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
// preorder index j under parent, and returns the index past its subtree.
// The links out of the subtree's root are the caller's to set.
func (b *Tree) fill(nd *xmltree.Node, j int, parent int32) int {
	b.Parent[j] = parent
	b.FirstChild[j] = -1
	b.NextSibling[j] = -1
	b.attrOff[j] = int32(len(b.attrs))
	if nd.Kind == xmltree.Element {
		b.elements.Set(j)
		id := b.labelIDs[nd.Label]
		b.LabelID[j] = id
		b.labelMasks[id].Set(j)
		b.attrs = append(b.attrs, nd.Attrs...)
		b.setValue(j, nd.Value())
	} else {
		b.LabelID[j] = -1
		b.Text[j] = nd.Data
	}
	k, last := j+1, int32(-1)
	for _, c := range nd.Children {
		if last < 0 {
			b.FirstChild[j] = int32(k)
		} else {
			b.NextSibling[last] = int32(k)
		}
		last = int32(k)
		k = b.fill(c, k, int32(j))
	}
	b.SubtreeEnd[j] = int32(k)
	return k
}

// setValue sets element i's string value and the numeric value parsed
// from it.
func (b *Tree) setValue(i int, v string) {
	b.Value[i] = v
	b.NumVal[i] = 0
	b.NumOK.Clear(i)
	if f, err := strconv.ParseFloat(v, 64); err == nil {
		b.NumVal[i] = f
		b.NumOK.Set(i)
	}
}

// mapIdx renumbers an old node index across a splice at `at` that changes
// the node count by delta; -1 stays -1.
func mapIdx(v int32, at, delta int) int32 {
	if v < 0 || int(v) < at {
		return v
	}
	return v + int32(delta)
}

// spliceCol returns src with the entries [at, at+oldLen) replaced by
// newLen zero entries.
func spliceCol[T any](src []T, at, oldLen, newLen int) []T {
	dst := make([]T, len(src)-oldLen+newLen)
	copy(dst, src[:at])
	copy(dst[at+newLen:], src[at+oldLen:])
	return dst
}

// spliceLinks is spliceCol over a column of node indices, renumbering the
// indices it keeps.
func spliceLinks(src []int32, at, oldLen, newLen int) []int32 {
	dst := spliceCol(src, at, oldLen, newLen)
	for _, part := range [2][]int32{dst[:at], dst[at+newLen:]} {
		for k, v := range part {
			part[k] = mapIdx(v, at, newLen-oldLen)
		}
	}
	return dst
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
	copyBits(out, 0, src, 0, at)
	copyBits(out, at+newLen, src, at+oldLen, oldN-at-oldLen)
}

// copyBits copies count bits from src starting at srcOff into dst starting
// at dstOff. Word-at-a-time: each iteration moves up to the rest of the
// current destination word.
func copyBits(dst Bitset, dstOff int, src Bitset, srcOff, count int) {
	for count > 0 {
		c := 64 - (dstOff & 63)
		if c > count {
			c = count
		}
		w := readBits(src, srcOff, c)
		wi, sh := dstOff>>6, uint(dstOff&63)
		var mask uint64
		if c == 64 {
			mask = ^uint64(0)
		} else {
			mask = (uint64(1)<<uint(c) - 1) << sh
		}
		dst[wi] = dst[wi]&^mask | (w<<sh)&mask
		srcOff += c
		dstOff += c
		count -= c
	}
}

// Equal reports whether two arenas describe the same document: every
// column, label assignment and attribute list agrees. Label IDs may differ
// (interning order is history-dependent after splices); labels are
// compared by name.
func Equal(a, b *Tree) bool {
	if a.n != b.n {
		return false
	}
	for i := 0; i < a.n; i++ {
		if a.Parent[i] != b.Parent[i] || a.FirstChild[i] != b.FirstChild[i] ||
			a.NextSibling[i] != b.NextSibling[i] || a.SubtreeEnd[i] != b.SubtreeEnd[i] ||
			a.Text[i] != b.Text[i] || a.Value[i] != b.Value[i] || a.NumVal[i] != b.NumVal[i] ||
			a.NumOK.Get(i) != b.NumOK.Get(i) || a.elements.Get(i) != b.elements.Get(i) {
			return false
		}
		if a.elements.Get(i) {
			if a.LabelOf(i) != b.LabelOf(i) {
				return false
			}
			ax, bx := a.Attrs(i), b.Attrs(i)
			if len(ax) != len(bx) {
				return false
			}
			for j := range ax {
				if ax[j] != bx[j] {
					return false
				}
			}
		}
	}
	// Masks must agree for both vocabularies (a label absent from one side
	// must have an empty mask on the other).
	for _, l := range append(append([]string(nil), a.labels...), b.labels...) {
		am, bm := a.LabelMask(l), b.LabelMask(l)
		for i := 0; i < a.n; i++ {
			if am.Get(i) != bm.Get(i) {
				return false
			}
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
