// Fragmentation model and cutting strategies; package docs in doc.go.

package fragment

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"

	"paxq/internal/xmltree"
)

// FragID identifies a fragment within a Fragmentation. The root fragment
// (the one containing the root of the original tree) is always 0.
type FragID int32

// RootFrag is the ID of the root fragment.
const RootFrag FragID = 0

// RootNode is the node ID of every fragment's root: node IDs are dense
// preorder ranks.
const RootNode xmltree.NodeID = 0

// NoFrag marks the absent parent of the root fragment.
const NoFrag FragID = -1

// VirtualLabel is the reserved label of virtual nodes. It starts with '#',
// which cannot begin an XML name, so no real node or query can collide
// with it.
const VirtualLabel = "#fragment"

// Fragment is one piece of the decomposed tree.
type Fragment struct {
	ID FragID
	// Tree is the fragment's pointer tree: set by Cut, Load and
	// Fragmentation.ApplyEdit, nil on fragments Fragment.ApplyEdit
	// returns, like Origin. A site reads its fragments through Arena only.
	Tree   *xmltree.Tree
	Parent FragID // NoFrag for the root fragment

	// ParentVirtual is the ID, within the parent fragment's tree, of the
	// virtual node standing for this fragment.
	ParentVirtual xmltree.NodeID

	// Annotation is the §5 XPath annotation of the fragment-tree edge from
	// the parent fragment: the labels of the nodes on the path from the
	// parent fragment's root (exclusive) to this fragment's root
	// (inclusive) in the original tree. Empty for the root fragment.
	Annotation []string

	// Origin maps every node ID of this fragment's tree to the ID of the
	// corresponding node in the original tree; a virtual node maps to the
	// original root of the sub-fragment it stands for. Used by tests and
	// by answer reporting; the evaluation algorithms never consult it.
	// Nil after an edit (ApplyEdit) until RecomputeOrigins runs.
	Origin []xmltree.NodeID

	// Version counts the edits applied to this fragment since it was cut
	// (or loaded). Sites use it for optimistic concurrency: an EditReq
	// carries the version it was prepared against and fails on mismatch.
	Version uint64

	virtuals map[xmltree.NodeID]FragID

	// arenaOnce/arena lazily cache the columnar view (see Arena).
	arenaOnce sync.Once
	arena     *ArenaView

	// xmlOnce guards the lazily built file form: its text, and where each
	// node's serialization starts and ends in it (see XML, SubtreeXML).
	xmlOnce          sync.Once
	xml              string
	xmlStart, xmlEnd []int32
}

// VirtualAt reports the sub-fragment a virtual node stands for.
func (f *Fragment) VirtualAt(id xmltree.NodeID) (FragID, bool) {
	k, ok := f.virtuals[id]
	return k, ok
}

// IsVirtual reports whether n is a virtual node of this fragment.
func (f *Fragment) IsVirtual(n *xmltree.Node) bool {
	_, ok := f.virtuals[n.ID]
	return ok
}

// Virtuals returns the virtual-node map (node ID → sub-fragment). Callers
// must not mutate it.
func (f *Fragment) Virtuals() map[xmltree.NodeID]FragID { return f.virtuals }

// NumVirtuals returns the number of sub-fragments.
func (f *Fragment) NumVirtuals() int { return len(f.virtuals) }

// IsLeaf reports whether the fragment has no sub-fragments.
func (f *Fragment) IsLeaf() bool { return len(f.virtuals) == 0 }

// Size returns the node count of the fragment (virtual nodes included).
func (f *Fragment) Size() int { return f.Arena().Tree.Len() }

// Fragmentation is a complete decomposition of one tree.
type Fragmentation struct {
	Frags []*Fragment // indexed by FragID

	children [][]FragID
}

// Root returns the root fragment.
func (ft *Fragmentation) Root() *Fragment { return ft.Frags[RootFrag] }

// Frag returns the fragment with the given ID.
func (ft *Fragmentation) Frag(id FragID) *Fragment { return ft.Frags[id] }

// Len returns the number of fragments.
func (ft *Fragmentation) Len() int { return len(ft.Frags) }

// Children returns the sub-fragments of id in the fragment tree.
func (ft *Fragmentation) Children(id FragID) []FragID { return ft.children[id] }

// TotalNodes returns the number of real (non-virtual) nodes across all
// fragments, which equals the node count of the original tree.
func (ft *Fragmentation) TotalNodes() int {
	n := 0
	for _, f := range ft.Frags {
		n += f.Size() - f.NumVirtuals()
	}
	return n
}

// AnnotationFromRoot returns the concatenated label path from the root of
// the original tree (exclusive) to the root of fragment id (inclusive),
// obtained by joining the edge annotations along the fragment tree. For the
// root fragment it returns nil.
func (ft *Fragmentation) AnnotationFromRoot(id FragID) []string {
	var parts [][]string
	for k := id; k != RootFrag; k = ft.Frags[k].Parent {
		parts = append(parts, ft.Frags[k].Annotation)
	}
	var out []string
	for i := len(parts) - 1; i >= 0; i-- {
		out = append(out, parts[i]...)
	}
	return out
}

// Cut decomposes t at the given cut nodes: every cut node becomes the root
// of its own fragment, replaced in its parent fragment by a virtual node.
// Cut nodes must be distinct non-root element nodes of t. Fragment IDs are
// assigned in document order of the fragment roots, so the root fragment is
// always 0 and a parent fragment always has a smaller ID than its children.
// No element of t may be labelled RefLabel (ErrReservedLabel).
func Cut(t *xmltree.Tree, cuts []xmltree.NodeID) (*Fragmentation, error) {
	for _, n := range t.PreorderNodes() {
		if n.Kind == xmltree.Element && n.Label == RefLabel {
			return nil, fmt.Errorf("fragment: node %d: %w", n.ID, ErrReservedLabel)
		}
	}
	cutSet := make(map[xmltree.NodeID]bool, len(cuts))
	for _, id := range cuts {
		n := t.Node(id)
		if n == nil {
			return nil, fmt.Errorf("fragment: cut node %d out of range", id)
		}
		if !n.IsElement() {
			return nil, fmt.Errorf("fragment: cut node %d is not an element", id)
		}
		if n.Parent == nil {
			return nil, fmt.Errorf("fragment: cannot cut at the root")
		}
		if cutSet[id] {
			return nil, fmt.Errorf("fragment: duplicate cut node %d", id)
		}
		cutSet[id] = true
	}
	// Fragment roots in document order.
	roots := []xmltree.NodeID{t.Root.ID}
	for id := range cutSet {
		roots = append(roots, id)
	}
	sort.Slice(roots, func(i, j int) bool { return roots[i] < roots[j] })
	fragOf := make(map[xmltree.NodeID]FragID, len(roots))
	for i, id := range roots {
		fragOf[id] = FragID(i)
	}

	ft := &Fragmentation{
		Frags:    make([]*Fragment, len(roots)),
		children: make([][]FragID, len(roots)),
	}
	for i, rootID := range roots {
		id := FragID(i)
		f := &Fragment{ID: id, Parent: NoFrag, virtuals: make(map[xmltree.NodeID]FragID)}
		orig := t.Node(rootID)
		var virtualNodes []*xmltree.Node
		var virtualFor []FragID
		var origin []xmltree.NodeID
		var build func(n *xmltree.Node) *xmltree.Node
		build = func(n *xmltree.Node) *xmltree.Node {
			clone := &xmltree.Node{Kind: n.Kind, Label: n.Label, Data: n.Data, ID: xmltree.NoID}
			if len(n.Attrs) > 0 {
				clone.Attrs = append([]xmltree.Attr(nil), n.Attrs...)
			}
			origin = append(origin, n.ID)
			for _, c := range n.Children {
				if c.Kind == xmltree.Element && cutSet[c.ID] {
					v := xmltree.NewElement(VirtualLabel)
					origin = append(origin, c.ID)
					virtualNodes = append(virtualNodes, v)
					virtualFor = append(virtualFor, fragOf[c.ID])
					clone.Append(v)
					continue
				}
				clone.Append(build(c))
			}
			return clone
		}
		f.Tree = xmltree.NewTree(build(orig))
		f.Origin = origin
		for j, v := range virtualNodes {
			f.virtuals[v.ID] = virtualFor[j]
		}
		ft.Frags[id] = f
	}
	// Wire parents, virtual back-references and annotations.
	for _, f := range ft.Frags {
		for vid, child := range f.virtuals {
			cf := ft.Frags[child]
			cf.Parent = f.ID
			cf.ParentVirtual = vid
			ft.children[f.ID] = append(ft.children[f.ID], child)
		}
	}
	for _, f := range ft.Frags {
		sort.Slice(ft.children[f.ID], func(i, j int) bool {
			return ft.children[f.ID][i] < ft.children[f.ID][j]
		})
	}
	for i := 1; i < len(roots); i++ {
		f := ft.Frags[i]
		if f.Parent == NoFrag {
			return nil, fmt.Errorf("fragment: internal error: fragment %d has no parent", i)
		}
		parentRootOrig := t.Node(roots[f.Parent])
		var labels []string
		for n := t.Node(roots[i]); n != parentRootOrig; n = n.Parent {
			labels = append(labels, n.Label)
		}
		for l, r := 0, len(labels)-1; l < r; l, r = l+1, r-1 {
			labels[l], labels[r] = labels[r], labels[l]
		}
		f.Annotation = labels
	}
	return ft, nil
}

// Whole wraps an unfragmented tree as a single-fragment fragmentation.
func Whole(t *xmltree.Tree) *Fragmentation {
	ft, err := Cut(t, nil)
	if err != nil {
		//paxlint:allow nopanic(unreachable: Cut with no cuts cannot fail)
		panic(err)
	}
	return ft
}

// Reassemble reconstructs the original tree from the fragments, splicing
// every sub-fragment in place of its virtual node. The result is a fresh
// tree; the fragmentation is unchanged.
func (ft *Fragmentation) Reassemble() *xmltree.Tree {
	var build func(f *Fragment, n *xmltree.Node) *xmltree.Node
	build = func(f *Fragment, n *xmltree.Node) *xmltree.Node {
		if child, ok := f.VirtualAt(n.ID); ok {
			cf := ft.Frags[child]
			return build(cf, cf.Tree.Root)
		}
		clone := &xmltree.Node{Kind: n.Kind, Label: n.Label, Data: n.Data, ID: xmltree.NoID}
		if len(n.Attrs) > 0 {
			clone.Attrs = append([]xmltree.Attr(nil), n.Attrs...)
		}
		for _, c := range n.Children {
			clone.Append(build(f, c))
		}
		return clone
	}
	return xmltree.NewTree(build(ft.Root(), ft.Root().Tree.Root))
}

// RandomCuts picks up to k distinct random non-root element nodes of t,
// deterministically from seed. Nested cuts arise naturally.
func RandomCuts(t *xmltree.Tree, k int, seed int64) []xmltree.NodeID {
	var elems []xmltree.NodeID
	t.Walk(func(n *xmltree.Node) bool {
		if n.IsElement() && n.Parent != nil {
			elems = append(elems, n.ID)
		}
		return true
	})
	r := rand.New(rand.NewSource(seed))
	r.Shuffle(len(elems), func(i, j int) { elems[i], elems[j] = elems[j], elems[i] })
	if k > len(elems) {
		k = len(elems)
	}
	cuts := append([]xmltree.NodeID(nil), elems[:k]...)
	sort.Slice(cuts, func(i, j int) bool { return cuts[i] < cuts[j] })
	return cuts
}

// TopLevelCuts cuts at the first k element children of the root — the FT1
// layout of Experiment 1, where each XMark "site" becomes one fragment.
func TopLevelCuts(t *xmltree.Tree, k int) []xmltree.NodeID {
	var cuts []xmltree.NodeID
	t.Root.ElementChildren(func(c *xmltree.Node) bool {
		if len(cuts) < k {
			cuts = append(cuts, c.ID)
		}
		return len(cuts) < k
	})
	return cuts
}

// CutsBySize chooses cut nodes so that no fragment much exceeds maxNodes
// nodes: a bottom-up sweep cuts a subtree as soon as its residual size
// (with already-cut subtrees counted as single virtual nodes) exceeds the
// threshold.
func CutsBySize(t *xmltree.Tree, maxNodes int) []xmltree.NodeID {
	if maxNodes < 2 {
		maxNodes = 2
	}
	var cuts []xmltree.NodeID
	var size func(n *xmltree.Node) int
	size = func(n *xmltree.Node) int {
		s := 1
		for _, c := range n.Children {
			s += size(c)
		}
		if s > maxNodes && n.Parent != nil && n.IsElement() {
			cuts = append(cuts, n.ID)
			return 1 // counts as a virtual node upstream
		}
		return s
	}
	size(t.Root)
	sort.Slice(cuts, func(i, j int) bool { return cuts[i] < cuts[j] })
	return cuts
}
