// Package fragtest holds test oracles over fragments. It is apart from
// testutil because the fragment package's own tests import testutil.
package fragtest

import (
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
