// Fragmentation model and cutting strategies; package docs in doc.go.

package fragment

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"sync"

	"paxq/internal/arena"
	"paxq/internal/centeval"
	"paxq/internal/xmltree"
	"paxq/internal/xpath"
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

// Fragment is one piece of the decomposed tree. A fragment is its
// columns: the embedded ArenaView is the only form of its tree it holds,
// built by every constructor (Cut, Whole, ReadFragment, Skeleton,
// ApplyEdit). A reader that needs a pointer form derives one with
// Tree.ToTree.
type Fragment struct {
	ArenaView

	ID     FragID
	Parent FragID // NoFrag for the root fragment

	// ParentVirtual is the ID, within the parent fragment's tree, of the
	// virtual node standing for this fragment.
	ParentVirtual xmltree.NodeID

	// Annotation is the §5 XPath annotation of the fragment-tree edge from
	// the parent fragment: the labels of the nodes on the path from the
	// parent fragment's root (exclusive) to this fragment's root
	// (inclusive) in the original tree. Empty for the root fragment.
	Annotation []string

	// Version counts the edits applied to this fragment since it was cut
	// (or loaded). Sites use it for optimistic concurrency: an EditReq
	// carries the version it was prepared against and fails on mismatch.
	Version uint64

	virtuals map[xmltree.NodeID]FragID

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

// Virtuals returns the virtual-node map (node ID → sub-fragment). Callers
// must not mutate it.
func (f *Fragment) Virtuals() map[xmltree.NodeID]FragID { return f.virtuals }

// NumVirtuals returns the number of sub-fragments.
func (f *Fragment) NumVirtuals() int { return len(f.virtuals) }

// IsLeaf reports whether the fragment has no sub-fragments.
func (f *Fragment) IsLeaf() bool { return len(f.virtuals) == 0 }

// Size returns the node count of the fragment (virtual nodes included).
func (f *Fragment) Size() int { return f.Tree.Len() }

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
//
// Cut writes every fragment's columns in one preorder pass over t's nodes
// (see cutter), sharing t's strings; it builds no pointer node.
func Cut(t *xmltree.Tree, cuts []xmltree.NodeID) (*Fragmentation, error) {
	roots := make([]xmltree.NodeID, 0, len(cuts)+1)
	roots = append(append(roots, t.Root.ID), cuts...)
	slices.Sort(roots[1:])
	for i, id := range roots[1:] {
		n := t.Node(id)
		switch {
		case n == nil:
			return nil, fmt.Errorf("fragment: cut node %d out of range", id)
		case !n.IsElement():
			return nil, fmt.Errorf("fragment: cut node %d is not an element", id)
		case n.Parent == nil:
			return nil, fmt.Errorf("fragment: cannot cut at the root")
		case roots[i] == id:
			return nil, fmt.Errorf("fragment: duplicate cut node %d", id)
		}
	}
	c := &cutter{
		ft:    &Fragmentation{Frags: make([]*Fragment, len(roots)), children: make([][]FragID, len(roots))},
		roots: roots,
		sizes: fragmentSizes(t, roots),
	}
	c.fragment(t.Root)
	if c.reserved != nil {
		return nil, fmt.Errorf("fragment: node %d: %w", c.reserved.ID, ErrReservedLabel)
	}
	for _, f := range c.ft.Frags[1:] {
		// The labels from the parent fragment's root (exclusive) down to
		// this fragment's root.
		top := t.Node(roots[f.Parent])
		var labels []string
		for n := t.Node(roots[f.ID]); n != top; n = n.Parent {
			labels = append(labels, n.Label)
		}
		slices.Reverse(labels)
		f.Annotation = labels
	}
	return c.ft, nil
}

// cutter is Cut's pass. It walks the document in preorder, writing each
// node into the columns of the fragment that holds it; at a cut node it
// writes a virtual leaf into the current fragment and walks the cut
// subtree into a new fragment before resuming. The walk thus meets the
// fragment roots in document order, which is the order of roots.
type cutter struct {
	ft       *Fragmentation
	roots    []xmltree.NodeID // fragment roots in document order
	sizes    []int            // node count of each fragment, virtual nodes included
	next     int              // the fragment the walk starts next
	reserved *xmltree.Node    // the first RefLabel element met
}

// fragment writes the fragment rooted at root, and every fragment below
// it, and returns it.
func (c *cutter) fragment(root *xmltree.Node) *Fragment {
	id := FragID(c.next)
	c.next++
	n := c.sizes[id]
	f := &Fragment{ID: id, Parent: NoFrag, virtuals: make(map[xmltree.NodeID]FragID)}
	c.ft.Frags[id] = f
	b := arena.NewBuilder(n)
	c.walk(f, b, root)
	f.ArenaView = newArenaView(b.Tree(), f.virtuals)
	return f
}

// walk writes the subtree of n into f's columns.
func (c *cutter) walk(f *Fragment, b *arena.Builder, n *xmltree.Node) {
	if n.Kind != xmltree.Element {
		b.Text(n.Data)
		return
	}
	if n.Label == RefLabel && c.reserved == nil {
		c.reserved = n
	}
	b.Open(n.Label, n.Attrs)
	for _, ch := range n.Children {
		if c.next == len(c.roots) || ch.ID != c.roots[c.next] {
			c.walk(f, b, ch)
			continue
		}
		v := xmltree.NodeID(b.Open(VirtualLabel, nil))
		b.Close()
		cf := c.fragment(ch)
		cf.Parent, cf.ParentVirtual = f.ID, v
		f.virtuals[v] = cf.ID
		c.ft.children[f.ID] = append(c.ft.children[f.ID], cf.ID)
	}
	b.Close()
}

// fragmentSizes returns the node count of the fragment rooted at each of
// roots (sorted, in document order), virtual nodes included: its root's
// subtree, less the subtree of each fragment directly below it, plus that
// fragment's virtual node. It reads only the roots and the last-child
// chains below them.
func fragmentSizes(t *xmltree.Tree, roots []xmltree.NodeID) []int {
	sizes := make([]int, len(roots))
	ends := make([]xmltree.NodeID, len(roots))
	var open []int // the fragments whose subtrees hold the current root
	for i, r := range roots {
		n := t.Node(r)
		for len(n.Children) > 0 {
			n = n.Children[len(n.Children)-1]
		}
		ends[i] = n.ID + 1
		sizes[i] = int(ends[i] - r)
		for len(open) > 0 && r >= ends[open[len(open)-1]] {
			open = open[:len(open)-1]
		}
		if len(open) > 0 {
			sizes[open[len(open)-1]] -= sizes[i] - 1
		}
		open = append(open, i)
	}
	return sizes
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

// Reassemble reconstructs the original tree from the fragments: the
// pointer form of each fragment (Tree.ToTree), with every sub-fragment's
// grafted in place of its virtual node. The result is a fresh tree; the
// fragmentation is unchanged.
func (ft *Fragmentation) Reassemble() *xmltree.Tree {
	var build func(f *Fragment) *xmltree.Node
	build = func(f *Fragment) *xmltree.Node {
		t := f.Tree.ToTree()
		for vid, k := range f.virtuals {
			v := t.Node(vid)
			sub := build(ft.Frags[k])
			sub.Parent = v.Parent
			v.Parent.Children[slices.Index(v.Parent.Children, v)] = sub
		}
		return t.Root
	}
	return xmltree.NewTree(build(ft.Root()))
}

// Origins maps every node of every fragment, indexed by fragment ID and
// then by node ID, to the ID of the same node in Reassemble's tree: a
// fragment's nodes in preorder, each sub-fragment's in place of its
// virtual node. A virtual node maps to the root of the sub-fragment it
// stands for. On a fragmentation Cut made, these are the IDs of the cut
// document. The slices are fresh on every call; the evaluation
// algorithms never need them, only the oracles that compare answers
// against a centralized evaluation.
func (ft *Fragmentation) Origins() [][]xmltree.NodeID {
	out := make([][]xmltree.NodeID, len(ft.Frags))
	ctr := xmltree.NodeID(0)
	var walk func(f *Fragment)
	walk = func(f *Fragment) {
		o := make([]xmltree.NodeID, f.Size())
		out[f.ID] = o
		for i := range o {
			o[i] = ctr // for a virtual node, the sub-fragment root's upcoming ID
			if f.VirtualMask.Get(i) {
				walk(ft.Frags[f.virtuals[xmltree.NodeID(i)]])
				continue
			}
			ctr++
		}
	}
	walk(ft.Root())
	return out
}

// SelectCuts chooses the cut nodes of t by the first strategy set: the
// elements the XPath queries in paths select (the root excluded, each
// node once), size-balanced cuts under maxNodes (CutsBySize), or
// frags-1 random cuts drawn from seed (RandomCuts). With none set it
// returns no cuts: the whole tree is one fragment.
func SelectCuts(t *xmltree.Tree, paths []string, maxNodes, frags int, seed int64) ([]xmltree.NodeID, error) {
	switch {
	case len(paths) > 0:
		var cuts []xmltree.NodeID
		seen := make(map[xmltree.NodeID]bool)
		for _, path := range paths {
			q, err := xpath.Parse(path)
			if err != nil {
				return nil, fmt.Errorf("cut path %q: %w", path, err)
			}
			for _, n := range centeval.EvalNaive(t, q) {
				if n.Parent != nil && !seen[n.ID] {
					seen[n.ID] = true
					cuts = append(cuts, n.ID)
				}
			}
		}
		return cuts, nil
	case maxNodes > 0:
		return CutsBySize(t, maxNodes), nil
	case frags > 1:
		return RandomCuts(t, frags-1, seed), nil
	}
	return nil, nil
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
