// The fragment's file form: its XML text with every virtual node written
// as a stub, built once per fragment version, with the byte range of every
// node's serialization inside it.

package fragment

import (
	"strconv"

	"paxq/internal/xmltree"
)

// XML returns the fragment in its file form, the one Save writes, a site
// ships as a final-stage body and a coordinator stitches into answers: the fragment's XML with each virtual node written as
// <fragment-ref ref="K"/>, K the sub-fragment it stands for. The text is
// built on first use and cached (see SubtreeXML); it reads the arena
// columns only, so a fragment a site has edited renders too. ReadFragment
// reads the form back.
func (f *Fragment) XML() string {
	f.fileForm()
	return f.xml
}

// SubtreeXML returns the serialization of node id's subtree in the
// fragment's file form: a substring of XML, so it costs no allocation
// once the file form is built. For an element it is the bytes
// xmltree.SerializeString writes for the node, except that virtual nodes
// below it are stubs.
func (f *Fragment) SubtreeXML(id xmltree.NodeID) string {
	f.fileForm()
	return f.xml[f.xmlStart[id]:f.xmlEnd[id]]
}

// fileForm builds the cached file form on first use. Fragments are
// immutable once a site serves them (an edit builds a new Fragment), so
// the cache never goes stale, and it is safe for concurrent readers.
func (f *Fragment) fileForm() {
	f.xmlOnce.Do(func() { f.xml, f.xmlStart, f.xmlEnd = f.buildFileForm() })
}

// buildFileForm writes the file form in xmltree.Writer's two passes, a
// counting one and a writing one that also records where each node's
// serialization starts and ends. It allocates the text and one array
// holding both offset columns.
func (f *Fragment) buildFileForm() (text string, start, end []int32) {
	n := f.Tree.Len()
	cols := make([]int32, 2*n)
	start, end = cols[:n:n], cols[n:]
	var w xmltree.Writer
	f.writeNode(&w, int(RootNode), nil, nil)
	w.Alloc()
	f.writeNode(&w, int(RootNode), start, end)
	return w.String(), start, end
}

// writeNode writes node i's subtree, recording its offsets in start and
// end when they are non-nil.
func (f *Fragment) writeNode(w *xmltree.Writer, i int, start, end []int32) {
	at := f.Tree
	from := w.Len()
	switch {
	case f.VirtualMask.Get(i):
		ref := strconv.Itoa(int(f.virtuals[xmltree.NodeID(i)]))
		w.Open(RefLabel, []xmltree.Attr{{Name: "ref", Value: ref}}, true)
	case at.LabelID[i] < 0:
		from = w.Text(at.Text(i))
	default:
		label, first := at.LabelOf(i), at.FirstChild(i)
		w.Open(label, at.Attrs(i), first < 0)
		if first >= 0 {
			for c := first; c >= 0; c = at.NextSibling(c) {
				f.writeNode(w, c, start, end)
			}
			w.Close(label)
		}
	}
	if start != nil {
		start[i], end[i] = int32(from), int32(w.Len())
	}
}
