// Package fragtest holds test oracles over fragments. It is apart from
// testutil because the fragment package's own tests import testutil.
package fragtest

import (
	"fmt"
	"math/rand"
	"slices"
	"strconv"

	"paxq/internal/fragment"
	"paxq/internal/xmltree"
)

// StubbedCopy copies the subtree of n, a node of f's pointer tree, with
// every virtual node written as the file form's stub for its
// sub-fragment: serialized, it is what the file form holds for n.
func StubbedCopy(f *fragment.Fragment, n *xmltree.Node) *xmltree.Node {
	if k, ok := f.VirtualAt(n.ID); ok {
		return xmltree.El(fragment.RefLabel).SetAttr("ref", strconv.Itoa(int(k)))
	}
	if n.Kind == xmltree.Text {
		return xmltree.NewText(n.Data)
	}
	cp := xmltree.NewElement(n.Label)
	cp.Attrs = slices.Clone(n.Attrs)
	for _, ch := range n.Children {
		cp.Append(StubbedCopy(f, ch))
	}
	return cp
}

// RandomEdit builds a valid edit for f from its columns: a small insert,
// a non-spine delete that keeps the fragment from collapsing, or a
// rename, retrying until the target passes the restrictions
// fragment.ApplyEdit enforces. Inserted subtrees use labels outside both
// query vocabularies ("patch", "v", "extra"), so inserts usually leave
// qualifier bits alone; deletes and renames hit live labels and usually
// do not. Their roots carry an attribute whose value needs escaping,
// derived from values already drawn, so the random stream depends on the
// fragment's shape only.
func RandomEdit(r *rand.Rand, f *fragment.Fragment) fragment.Edit {
	at := f.Tree
	for {
		id := r.Intn(f.Size())
		elem := at.LabelID[id] >= 0 && !f.VirtualMask.Get(id)
		// Deletes and renames spare the root and the spine.
		editable := elem && id != int(fragment.RootNode) && !f.SpineMask.Get(id)
		switch r.Intn(3) {
		case 0: // insert
			if !elem {
				continue
			}
			children := 0
			for c := at.FirstChild(id); c >= 0; c = at.NextSibling(c) {
				children++
			}
			v := r.Intn(100)
			sub := xmltree.El("patch", xmltree.ElT("v", fmt.Sprint(v)))
			if r.Intn(2) == 0 {
				sub = xmltree.El("extra")
			}
			sub.SetAttr("k", fmt.Sprintf(`%d"<&%d`, id, v))
			return fragment.Edit{Op: fragment.EditInsert, Node: xmltree.NodeID(id), Pos: r.Intn(children + 1), Subtree: sub}
		case 1: // delete
			if !editable || f.Size()-(int(at.SubtreeEnd[id])-id) < 3 {
				continue
			}
			return fragment.Edit{Op: fragment.EditDelete, Node: xmltree.NodeID(id)}
		default: // rename
			if !editable {
				continue
			}
			return fragment.Edit{Op: fragment.EditRename, Node: xmltree.NodeID(id), Label: fmt.Sprintf("l%d", r.Intn(5))}
		}
	}
}
