// Fragment edit operations: insert/delete/rename a subtree with
// document-order renumbering in both the pointer tree and the columnar
// arena view. Edits are copy-on-write — ApplyEdit returns a fresh
// *Fragment and never touches the receiver — so readers holding the old
// fragment (in-flight queries) keep a consistent version
// while the site swaps in the new one.
//
// Edits deliberately cannot change the fragmentation skeleton: virtual
// nodes, fragment roots and the spine (the ancestors of virtual nodes,
// whose labels are the §5 annotations) are off-limits, and inserted
// subtrees cannot contain reserved '#'-labels. That keeps every
// coordinator-side plan — relevance analysis, variable schemes, fragment
// counts — valid across edits: only fragment contents move.

package fragment

import (
	"errors"
	"fmt"
	"strings"

	"paxq/internal/arena"
	"paxq/internal/xmltree"
)

// EditOp selects the edit operation.
type EditOp uint8

// Edit operations.
const (
	EditInsert EditOp = iota // insert Subtree as child Pos of Node
	EditDelete               // delete the subtree rooted at Node
	EditRename               // relabel Node to Label
)

func (op EditOp) String() string {
	switch op {
	case EditInsert:
		return "insert"
	case EditDelete:
		return "delete"
	case EditRename:
		return "rename"
	}
	return fmt.Sprintf("EditOp(%d)", uint8(op))
}

// Edit is one mutation of a fragment's tree.
type Edit struct {
	Op   EditOp
	Node xmltree.NodeID // delete/rename target; insert parent
	// Pos is the insert slot among Node's children (text children
	// counted), 0..len(children).
	Pos int
	// Label is the new label for a rename.
	Label string
	// Subtree is the root of the inserted subtree for an insert. It is
	// cloned; the caller keeps ownership of the original.
	Subtree *xmltree.Node
}

// Typed edit validation errors, wrapped by ApplyEdit's returned errors and
// classifiable with errors.Is.
var (
	ErrNoSuchNode  = errors.New("edit target does not exist")
	ErrNotElement  = errors.New("edit target is not an element")
	ErrEditRoot    = errors.New("cannot edit the fragment root")
	ErrEditVirtual = errors.New("cannot edit a virtual node")
	ErrEditSpine   = errors.New("cannot edit the spine (an ancestor of a virtual node)")
	ErrBadSubtree  = errors.New("invalid inserted subtree")
	ErrBadPos      = errors.New("insert position out of range")
	ErrBadOp       = errors.New("unknown edit operation")
)

// ApplyEdit validates e against the fragment and returns a new fragment
// with the edit applied — fresh pointer tree with renumbered IDs, spliced
// arena view, remapped virtual-node map, Version incremented. The receiver
// is never modified. The new fragment's Origin is nil (stale by
// construction); Fragmentation.RecomputeOrigins restores origins when a
// caller needs them.
func (f *Fragment) ApplyEdit(e Edit) (*Fragment, error) {
	av := f.Arena()
	n := f.Tree.Node(e.Node)
	if n == nil {
		return nil, fmt.Errorf("fragment %d: %s node %d: %w", f.ID, e.Op, e.Node, ErrNoSuchNode)
	}
	if _, virt := f.virtuals[e.Node]; virt {
		return nil, fmt.Errorf("fragment %d: %s node %d: %w", f.ID, e.Op, e.Node, ErrEditVirtual)
	}
	if !n.IsElement() {
		return nil, fmt.Errorf("fragment %d: %s node %d: %w", f.ID, e.Op, e.Node, ErrNotElement)
	}

	// The edit replaces the preorder interval [at, at+oldLen) of the old
	// tree with [at, at+newLen) in the new one.
	var at, oldLen, newLen int
	var sub *xmltree.Node // insert only: the clone that joins the new tree
	switch e.Op {
	case EditDelete, EditRename:
		if e.Node == f.Tree.Root.ID {
			return nil, fmt.Errorf("fragment %d: %s node %d: %w", f.ID, e.Op, e.Node, ErrEditRoot)
		}
		if av.SpineMask.Get(int(e.Node)) {
			return nil, fmt.Errorf("fragment %d: %s node %d: %w", f.ID, e.Op, e.Node, ErrEditSpine)
		}
		at = int(e.Node)
		if e.Op == EditDelete {
			oldLen = int(av.Tree.SubtreeEnd[at]) - at
		} else {
			if err := checkLabel(e.Label); err != nil {
				return nil, fmt.Errorf("fragment %d: rename node %d: %w", f.ID, e.Node, err)
			}
			oldLen, newLen = 1, 1
		}
	case EditInsert:
		if e.Pos < 0 || e.Pos > len(n.Children) {
			return nil, fmt.Errorf("fragment %d: insert at node %d slot %d of %d: %w", f.ID, e.Node, e.Pos, len(n.Children), ErrBadPos)
		}
		if err := checkSubtree(e.Subtree); err != nil {
			return nil, fmt.Errorf("fragment %d: insert at node %d: %w", f.ID, e.Node, err)
		}
		at = int(e.Node) + 1
		if e.Pos > 0 {
			at = int(av.Tree.SubtreeEnd[n.Children[e.Pos-1].ID])
		}
		sub = e.Subtree.Clone()
		var count func(nd *xmltree.Node)
		count = func(nd *xmltree.Node) {
			newLen++
			for _, c := range nd.Children {
				count(c)
			}
		}
		count(sub)
	default:
		return nil, fmt.Errorf("fragment %d: op %d: %w", f.ID, uint8(e.Op), ErrBadOp)
	}

	// Apply to a structural clone of the pointer tree. The clone's Freeze
	// assigns the same IDs as the original (identical structure), so the
	// old target ID addresses the cloned target.
	t2 := xmltree.NewTree(f.Tree.Root.Clone())
	target := t2.Node(e.Node)
	switch e.Op {
	case EditDelete:
		p := target.Parent
		for i, c := range p.Children {
			if c == target {
				p.Children = append(p.Children[:i], p.Children[i+1:]...)
				break
			}
		}
	case EditRename:
		target.Label = e.Label
	case EditInsert:
		sub.Parent = target
		target.Children = append(target.Children[:e.Pos], append([]*xmltree.Node{sub}, target.Children[e.Pos:]...)...)
	}
	t2.Freeze()

	// Splice the columnar view rather than rebuilding it.
	var at2 *arena.Tree
	var err error
	switch e.Op {
	case EditDelete:
		at2, err = av.Tree.DeleteSubtree(int(e.Node))
	case EditRename:
		at2, err = av.Tree.Relabel(int(e.Node), e.Label)
	case EditInsert:
		at2, err = av.Tree.InsertSubtree(int(e.Node), e.Pos, sub)
	}
	if err != nil {
		return nil, fmt.Errorf("fragment %d: %s: %w", f.ID, e.Op, err)
	}
	av2 := &ArenaView{
		Tree:        at2,
		VirtualMask: arena.SpliceBits(av.VirtualMask, at, oldLen, newLen, f.Tree.Size()),
		SpineMask:   arena.SpliceBits(av.SpineMask, at, oldLen, newLen, f.Tree.Size()),
	}

	nf := &Fragment{
		ID:            f.ID,
		Tree:          t2,
		Parent:        f.Parent,
		ParentVirtual: f.ParentVirtual,
		Annotation:    f.Annotation,
		Version:       f.Version + 1,
		virtuals:      make(map[xmltree.NodeID]FragID, len(f.virtuals)),
	}
	// Virtual nodes are never inside the replaced interval, so each one
	// either precedes it or shifts by the edit's node-count change.
	for vid, k := range f.virtuals {
		if int(vid) >= at {
			vid += xmltree.NodeID(newLen - oldLen)
		}
		nf.virtuals[vid] = k
	}
	nf.arenaOnce.Do(func() { nf.arena = av2 })
	return nf, nil
}

// checkLabel rejects labels a real XML element cannot carry — reserved
// '#'-names would collide with virtual nodes — and empty labels.
func checkLabel(label string) error {
	if label == "" || strings.HasPrefix(label, "#") {
		return fmt.Errorf("label %q: %w", label, ErrBadSubtree)
	}
	return nil
}

// checkSubtree validates an inserted subtree: element-rooted (so the
// parent's string value cannot change), no reserved labels, text nodes
// only as non-roots.
func checkSubtree(s *xmltree.Node) error {
	if s == nil {
		return fmt.Errorf("nil subtree: %w", ErrBadSubtree)
	}
	if s.Kind != xmltree.Element {
		return fmt.Errorf("subtree root must be an element: %w", ErrBadSubtree)
	}
	var walk func(n *xmltree.Node) error
	walk = func(n *xmltree.Node) error {
		if n.Kind == xmltree.Element {
			if err := checkLabel(n.Label); err != nil {
				return err
			}
		}
		for _, c := range n.Children {
			if err := walk(c); err != nil {
				return err
			}
		}
		return nil
	}
	return walk(s)
}

// ApplyEdit applies an edit to fragment fid of the fragmentation in place:
// the edited fragment is replaced by its copy-on-write successor and the
// child fragments' ParentVirtual references follow the renumbered virtual
// nodes. Origins across the fragmentation become stale; call
// RecomputeOrigins when needed. This is the coordinator/oracle-side mirror
// of the per-site edit a cluster performs.
func (ft *Fragmentation) ApplyEdit(fid FragID, e Edit) error {
	if int(fid) < 0 || int(fid) >= len(ft.Frags) {
		return fmt.Errorf("fragment %d: %w", fid, ErrNoSuchNode)
	}
	nf, err := ft.Frags[fid].ApplyEdit(e)
	if err != nil {
		return err
	}
	ft.Frags[fid] = nf
	for vid, cid := range nf.virtuals {
		ft.Frags[cid].ParentVirtual = vid
	}
	return nil
}

// RecomputeOrigins rebuilds every fragment's Origin map by walking the
// reassembled document in preorder — the same ID assignment Reassemble's
// NewTree performs. Virtual nodes map to the original root of the
// sub-fragment they stand for, exactly as Cut's origins do.
func (ft *Fragmentation) RecomputeOrigins() {
	for _, f := range ft.Frags {
		f.Origin = make([]xmltree.NodeID, f.Size())
	}
	ctr := xmltree.NodeID(0)
	var walk func(f *Fragment, n *xmltree.Node)
	walk = func(f *Fragment, n *xmltree.Node) {
		if child, ok := f.VirtualAt(n.ID); ok {
			f.Origin[n.ID] = ctr // the sub-fragment root's upcoming ID
			cf := ft.Frags[child]
			walk(cf, cf.Tree.Root)
			return
		}
		f.Origin[n.ID] = ctr
		ctr++
		for _, c := range n.Children {
			walk(f, c)
		}
	}
	walk(ft.Root(), ft.Root().Tree.Root)
}
