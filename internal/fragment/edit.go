// Fragment edit operations: insert/delete/rename a subtree with
// document-order renumbering. Edits are copy-on-write — ApplyEdit returns
// a fresh *Fragment and never touches the receiver — so readers holding
// the old fragment (in-flight queries) keep a consistent version while the
// site swaps in the new one.
//
// An edit touches arena columns only: Fragment.ApplyEdit validates the
// edit against the columns and splices the ArenaView. The splice copies
// only the pointer-free index columns and masks; values stay in the value
// pool every version of the fragment shares, to which the edit appends
// its inserted nodes' values (arena.Tree's splice kernels). An edit costs
// those copies, about 25 bytes per node, and a few dozen allocations,
// whatever the fragment's size.
//
// Fragmentation.ApplyEdit, the oracle mirror, stores the same spliced
// successor, and checks it first against a reference independent of the
// splice: the pointer-tree edit (editTree) applied to the old version's
// pointer form (Tree.ToTree), rebuilt into columns. The check fails the
// edit unless the two agree column for column (arena.Equal), in their
// virtual maps (the pointer edit's read off its renumbered virtual
// nodes) and in their virtual and spine masks, so every test and
// differential that mirrors edits compares the splice with the pointer
// edit at every step.
//
// Edits deliberately cannot change the fragmentation skeleton: virtual
// nodes, fragment roots and the spine (the ancestors of virtual nodes,
// whose labels are the §5 annotations) are off-limits, and inserted
// subtrees cannot contain reserved '#'-labels or RefLabel. That keeps every
// coordinator-side plan — relevance analysis, variable schemes, fragment
// counts — valid across edits: only fragment contents move.

package fragment

import (
	"errors"
	"fmt"
	"maps"
	"slices"

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
	// cloned; the caller keeps ownership of the original. It travels to
	// sites as XML text, so it must be a tree xmltree.Parse can return
	// (see xmltree.CheckRoundTrip).
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

// ApplyEdit validates e against the fragment's arena columns and returns
// a new fragment with the edit applied: spliced arena view with
// renumbered nodes, remapped virtual-node map, Version incremented. The
// receiver is never modified.
func (f *Fragment) ApplyEdit(e Edit) (*Fragment, error) {
	at := f.Tree
	id := int(e.Node)
	fail := func(err error) (*Fragment, error) {
		return nil, fmt.Errorf("fragment %d: %s node %d: %w", f.ID, e.Op, e.Node, err)
	}
	if id < 0 || id >= at.Len() {
		return fail(ErrNoSuchNode)
	}
	if f.VirtualMask.Get(id) {
		return fail(ErrEditVirtual)
	}
	if at.LabelID[id] < 0 {
		return fail(ErrNotElement)
	}

	// The edit replaces the preorder interval [start, start+oldLen) of the
	// old fragment with [start, start+newLen) in the new one.
	var start, oldLen, newLen int
	var at2 *arena.Tree
	var err error
	switch e.Op {
	case EditDelete, EditRename:
		if e.Node == RootNode {
			return fail(ErrEditRoot)
		}
		if f.SpineMask.Get(id) {
			return fail(ErrEditSpine)
		}
		start = id
		if e.Op == EditDelete {
			oldLen = int(at.SubtreeEnd[id]) - id
			at2, err = at.DeleteSubtree(id)
		} else {
			if err := checkLabel(e.Label); err != nil {
				return fail(err)
			}
			oldLen, newLen = 1, 1
			at2, err = at.Relabel(id, e.Label)
		}
	case EditInsert:
		var ok bool
		if start, ok = at.ChildSlot(id, e.Pos); !ok || e.Pos < 0 {
			return nil, fmt.Errorf("fragment %d: insert at node %d slot %d: %w", f.ID, e.Node, e.Pos, ErrBadPos)
		}
		if err := checkSubtree(e.Subtree); err != nil {
			return fail(err)
		}
		at2, err = at.InsertSubtree(id, e.Pos, e.Subtree)
		if err == nil {
			newLen = at2.Len() - at.Len()
		}
	default:
		return nil, fmt.Errorf("fragment %d: op %d: %w", f.ID, uint8(e.Op), ErrBadOp)
	}
	if err != nil {
		return nil, fmt.Errorf("fragment %d: %s: %w", f.ID, e.Op, err)
	}

	nf := &Fragment{
		ID:            f.ID,
		Parent:        f.Parent,
		ParentVirtual: f.ParentVirtual,
		Annotation:    f.Annotation,
		Version:       f.Version + 1,
		virtuals:      f.virtuals,
	}
	// Virtual nodes are never inside the replaced interval, so each one
	// either precedes it or shifts by the edit's node-count change; the
	// map is shared when none shifts.
	if d := xmltree.NodeID(newLen - oldLen); d != 0 && f.VirtualMask.AnyInRange(start, at.Len()) {
		nf.virtuals = make(map[xmltree.NodeID]FragID, len(f.virtuals))
		for vid, k := range f.virtuals {
			if int(vid) >= start {
				vid += d
			}
			nf.virtuals[vid] = k
		}
	}
	nf.ArenaView = ArenaView{
		Tree:        at2,
		VirtualMask: arena.SpliceBits(f.VirtualMask, start, oldLen, newLen, at.Len()),
		SpineMask:   arena.SpliceBits(f.SpineMask, start, oldLen, newLen, at.Len()),
	}
	return nf, nil
}

// checkLabel rejects labels the fragment's file form (Save, a naive
// fetch) cannot carry: anything but an XML name without a colon — which
// also keeps out the reserved '#'-names of virtual nodes — and RefLabel,
// which the file form would read back as a virtual node.
func checkLabel(label string) error {
	if !xmltree.IsName(label) || label == RefLabel {
		return fmt.Errorf("label %q: %w", label, ErrBadSubtree)
	}
	return nil
}

// checkSubtree validates an inserted subtree: element-rooted (so the
// parent's string value cannot change), one that crosses to the sites as
// XML text node for node (xmltree.CheckRoundTrip), and free of RefLabel.
func checkSubtree(s *xmltree.Node) error {
	if s == nil {
		return fmt.Errorf("nil subtree: %w", ErrBadSubtree)
	}
	if s.Kind != xmltree.Element {
		return fmt.Errorf("subtree root must be an element: %w", ErrBadSubtree)
	}
	if err := xmltree.CheckRoundTrip(s); err != nil {
		return fmt.Errorf("%w: %w", ErrBadSubtree, err)
	}
	var hasRef func(n *xmltree.Node) bool
	hasRef = func(n *xmltree.Node) bool {
		return n.Label == RefLabel || slices.ContainsFunc(n.Children, hasRef)
	}
	if hasRef(s) {
		return fmt.Errorf("label %q: %w", RefLabel, ErrBadSubtree)
	}
	return nil
}

// ApplyEdit applies an edit to fragment fid of the fragmentation in place:
// the edited fragment is replaced by its copy-on-write successor and the
// child fragments' ParentVirtual references follow the renumbered virtual
// nodes. This is the coordinator/oracle-side mirror of the per-site edit
// a cluster performs: the successor is the one Fragment.ApplyEdit
// splices, stored only after it has been checked against the
// pointer-tree edit of the old version (see the file comment).
func (ft *Fragmentation) ApplyEdit(fid FragID, e Edit) error {
	if int(fid) < 0 || int(fid) >= len(ft.Frags) {
		return fmt.Errorf("fragment %d: %w", fid, ErrNoSuchNode)
	}
	f := ft.Frags[fid]
	nf, err := f.ApplyEdit(e)
	if err != nil {
		return err
	}
	// The pointer edit renumbers the virtual nodes it keeps, so their new
	// IDs are read off the nodes after it.
	t := f.Tree.ToTree()
	vnodes := make(map[*xmltree.Node]FragID, len(f.virtuals))
	for vid, k := range f.virtuals {
		vnodes[t.Node(vid)] = k
	}
	ref := arena.FromTree(editTree(t, e))
	virtuals := make(map[xmltree.NodeID]FragID, len(vnodes))
	for nd, k := range vnodes {
		virtuals[nd.ID] = k
	}
	if !arena.Equal(nf.Tree, ref) || !maps.Equal(nf.virtuals, virtuals) {
		return fmt.Errorf("fragment %d: %s node %d: spliced columns differ from the pointer-tree edit", fid, e.Op, e.Node)
	}
	want := newArenaView(ref, virtuals)
	if !slices.Equal(nf.VirtualMask, want.VirtualMask) || !slices.Equal(nf.SpineMask, want.SpineMask) ||
		!slices.Equal(want.VirtualMask, ref.LabelMask(VirtualLabel)) {
		return fmt.Errorf("fragment %d: %s node %d: spliced masks differ from the pointer-tree edit", fid, e.Op, e.Node)
	}
	ft.Frags[fid] = nf
	for vid, cid := range nf.virtuals {
		ft.Frags[cid].ParentVirtual = vid
	}
	return nil
}

// editTree applies a validated edit to t, a fresh tree, and returns it
// re-frozen. The edit's node ID addresses t's node, as t's IDs are the
// fragment's.
func editTree(t *xmltree.Tree, e Edit) *xmltree.Tree {
	target := t.Node(e.Node)
	switch e.Op {
	case EditDelete:
		p := target.Parent
		p.Children = slices.DeleteFunc(p.Children, func(c *xmltree.Node) bool { return c == target })
	case EditRename:
		target.Label = e.Label
	case EditInsert:
		sub := e.Subtree.Clone()
		sub.Parent = target
		target.Children = slices.Insert(target.Children, e.Pos, sub)
	}
	t.Freeze()
	return t
}
