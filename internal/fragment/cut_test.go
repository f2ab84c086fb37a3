package fragment

import (
	"fmt"
	"maps"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"testing"

	"paxq/internal/arena"
	"paxq/internal/testutil"
	"paxq/internal/xmark"
	"paxq/internal/xmltree"
)

// pointerFragment is one fragment as the pointer cut builds it: a cloned
// pointer tree with a virtual leaf per sub-fragment.
type pointerFragment struct {
	tree          *xmltree.Tree
	origin        []xmltree.NodeID
	virtuals      map[xmltree.NodeID]FragID
	parent        FragID
	parentVirtual xmltree.NodeID
	annotation    []string
}

// pointerCut is the oracle of Cut, independent of arena.Builder: it
// clones every fragment's nodes into a pointer tree of its own, node by
// node. cuts must be valid.
func pointerCut(t *xmltree.Tree, cuts []xmltree.NodeID) []*pointerFragment {
	cutSet := make(map[xmltree.NodeID]bool, len(cuts))
	for _, id := range cuts {
		cutSet[id] = true
	}
	roots := append([]xmltree.NodeID{t.Root.ID}, cuts...)
	sort.Slice(roots, func(i, j int) bool { return roots[i] < roots[j] })
	fragOf := make(map[xmltree.NodeID]FragID, len(roots))
	for i, id := range roots {
		fragOf[id] = FragID(i)
	}
	frags := make([]*pointerFragment, len(roots))
	for i, rootID := range roots {
		pf := &pointerFragment{parent: NoFrag, virtuals: make(map[xmltree.NodeID]FragID)}
		var virtualNodes []*xmltree.Node
		var virtualFor []FragID
		var build func(n *xmltree.Node) *xmltree.Node
		build = func(n *xmltree.Node) *xmltree.Node {
			clone := &xmltree.Node{Kind: n.Kind, Label: n.Label, Data: n.Data, ID: xmltree.NoID}
			if len(n.Attrs) > 0 {
				clone.Attrs = append([]xmltree.Attr(nil), n.Attrs...)
			}
			pf.origin = append(pf.origin, n.ID)
			for _, c := range n.Children {
				if c.Kind == xmltree.Element && cutSet[c.ID] {
					v := xmltree.NewElement(VirtualLabel)
					pf.origin = append(pf.origin, c.ID)
					virtualNodes = append(virtualNodes, v)
					virtualFor = append(virtualFor, fragOf[c.ID])
					clone.Append(v)
					continue
				}
				clone.Append(build(c))
			}
			return clone
		}
		pf.tree = xmltree.NewTree(build(t.Node(rootID)))
		for j, v := range virtualNodes {
			pf.virtuals[v.ID] = virtualFor[j]
		}
		frags[i] = pf
	}
	for i, pf := range frags {
		for vid, child := range pf.virtuals {
			frags[child].parent, frags[child].parentVirtual = FragID(i), vid
		}
	}
	for i := 1; i < len(frags); i++ {
		top := t.Node(roots[frags[i].parent])
		var labels []string
		for n := t.Node(roots[i]); n != top; n = n.Parent {
			labels = append(labels, n.Label)
		}
		slices.Reverse(labels)
		frags[i].annotation = labels
	}
	return frags
}

// bibliographyTree builds a DBLP-shaped bibliography: a <dblp> root over
// sections <bib> sections of entries <article>/<inproceedings> with key
// and mdate attributes and ten or so text-valued fields each — wide and
// shallow, the opposite of XMark. With 16 sections of 150 entries it has
// about 50 000 nodes.
func bibliographyTree(seed int64, sections, entries int) *xmltree.Tree {
	r := rand.New(rand.NewSource(seed))
	words := []string{"Distributed", "Query", "Evaluation", "Performance", "XPath", "Trees", "Joins", "Streams"}
	el, tx := xmltree.El, xmltree.ElT
	root := el("dblp")
	for s := 0; s < sections; s++ {
		bib := el("bib")
		for i := 0; i < entries; i++ {
			year := fmt.Sprint(1995 + r.Intn(30))
			e := el("inproceedings")
			if i%2 == 0 {
				e = el("article")
			}
			e.SetAttr("mdate", fmt.Sprintf("20%02d-%02d-01", 15+r.Intn(10), 1+r.Intn(12)))
			e.SetAttr("key", fmt.Sprintf("conf/x/%d-%d", s, i))
			for a := 1 + r.Intn(4); a > 0; a-- {
				e.Append(tx("author", fmt.Sprintf("Author %d", r.Intn(50))))
			}
			title := words[r.Intn(len(words))]
			for w := 4 + r.Intn(5); w > 0; w-- {
				title += " " + words[r.Intn(len(words))]
			}
			e.Append(tx("title", title+"."), tx("pages", fmt.Sprintf("%d-%d", 1+r.Intn(300), 310+r.Intn(20))), tx("year", year))
			if i%2 == 0 {
				e.Append(tx("volume", fmt.Sprint(1+r.Intn(40))), tx("journal", "Proc. VLDB Endow."), tx("number", fmt.Sprint(1+r.Intn(12))))
			} else {
				e.Append(tx("booktitle", "SIGMOD Conference"), tx("crossref", "conf/sigmod/"+year))
			}
			e.Append(tx("ee", fmt.Sprintf("https://doi.org/10.%d/%d", 1000+r.Intn(9000), r.Intn(1e7))), tx("url", "db/conf/x.html"))
			bib.Append(e)
		}
		root.Append(bib)
	}
	return xmltree.NewTree(root)
}

// bibliographyCuts cuts a bibliography at its sections, as /dblp/bib
// does.
func bibliographyCuts(t *xmltree.Tree) []xmltree.NodeID {
	var cuts []xmltree.NodeID
	t.Root.ElementChildren(func(c *xmltree.Node) bool {
		cuts = append(cuts, c.ID)
		return true
	})
	return cuts
}

// valueTree is a random tree whose elements carry attributes, several
// text children and text that is, or almost is, a number, so that string
// values are concatenated and trimmed and numeric values parsed at every
// edge of the float syntax.
func valueTree(seed int64, size int) *xmltree.Tree {
	r := rand.New(rand.NewSource(seed))
	texts := []string{" 12 ", "-3.5", "+.5", "inf", "-Infinity", "NaN", "nan", "0x1p-2", "1e400", "1_0", "abc", "Ünï", ".", "", "\t7\n", "i", "N/A"}
	nodes := []*xmltree.Node{xmltree.NewElement(testutil.Labels[0])}
	for len(nodes) < size {
		p := nodes[r.Intn(len(nodes))]
		var n *xmltree.Node
		if r.Intn(3) == 0 {
			n = xmltree.NewText(texts[r.Intn(len(texts))])
		} else {
			n = xmltree.NewElement(testutil.Labels[r.Intn(len(testutil.Labels))])
			for a := r.Intn(3); a > 0; a-- {
				n.SetAttr(fmt.Sprintf("k%d", a), texts[r.Intn(len(texts))])
			}
		}
		if p.Kind != xmltree.Element {
			p = p.Parent
		}
		p.Append(n)
		nodes = append(nodes, n)
	}
	return xmltree.NewTree(nodes[0])
}

// TestCutMatchesPointerCut holds Cut, which writes columns straight from
// the document, to pointerCut, a pointer clone of the same cut: per
// fragment the columns equal FromTree of the clone, every value equals
// the clone node's xmltree value, the masks mark the clone's virtual
// nodes and their ancestors, Origins, the virtual map, Parent,
// ParentVirtual and Annotation are the clone's, and the fragments
// reassemble to the document.
func TestCutMatchesPointerCut(t *testing.T) {
	type corpus struct {
		name string
		tree *xmltree.Tree
		cuts []xmltree.NodeID
	}
	xm := xmark.Generate(4, xmark.Calibrate().SpecForBytes(125_000), 1)
	bib := bibliographyTree(1, 16, 150)
	paper := testutil.PaperTree()
	corpora := []corpus{
		{"xmark", xm, RandomCuts(xm, 7, 1)},
		{"bibliography", bib, bibliographyCuts(bib)},
		{"paper/figure1", paper, figure1Cuts(t, paper)},
		{"paper/whole", paper, nil},
	}
	for seed := int64(1); seed <= 20; seed++ {
		rt := testutil.RandomTree(seed, 200)
		corpora = append(corpora, corpus{fmt.Sprintf("random-%d", seed), rt, RandomCuts(rt, int(seed%9), seed)})
		vt := valueTree(seed, 300)
		corpora = append(corpora, corpus{fmt.Sprintf("values-%d", seed), vt, RandomCuts(vt, int(seed%5), seed)})
	}
	for _, c := range corpora {
		ft, err := Cut(c.tree, c.cuts)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		want := pointerCut(c.tree, c.cuts)
		if ft.Len() != len(want) {
			t.Fatalf("%s: %d fragments, pointer cut %d", c.name, ft.Len(), len(want))
		}
		origins := ft.Origins()
		for i, f := range ft.Frags {
			w := want[i]
			if !arena.Equal(f.Tree, arena.FromTree(w.tree)) {
				t.Fatalf("%s fragment %d: columns differ from the pointer cut's", c.name, i)
			}
			for _, n := range w.tree.PreorderNodes() {
				id := int(n.ID)
				if n.Kind != xmltree.Element {
					continue
				}
				gf, gok := f.Tree.NumValue(id)
				wf, wok := n.NumValue()
				if f.Tree.Value(id) != n.Value() || gok != wok || math.Float64bits(gf) != math.Float64bits(wf) {
					t.Fatalf("%s fragment %d node %d: value %q %v %v, xmltree %q %v %v", c.name, i, id, f.Tree.Value(id), gf, gok, n.Value(), wf, wok)
				}
				_, virtual := w.virtuals[n.ID]
				spine := false
				for vid := range w.virtuals {
					for p := w.tree.Node(vid).Parent; p != nil; p = p.Parent {
						spine = spine || p == n
					}
				}
				if f.VirtualMask.Get(id) != virtual || f.SpineMask.Get(id) != spine {
					t.Fatalf("%s fragment %d node %d: virtual %v spine %v, want %v %v", c.name, i, id, f.VirtualMask.Get(id), f.SpineMask.Get(id), virtual, spine)
				}
			}
			if !slices.Equal(origins[i], w.origin) || !maps.Equal(f.Virtuals(), w.virtuals) ||
				f.Parent != w.parent || f.ParentVirtual != w.parentVirtual || !slices.Equal(f.Annotation, w.annotation) {
				t.Fatalf("%s fragment %d: origin, virtuals, parent or annotation differ from the pointer cut's", c.name, i)
			}
		}
		if !xmltree.DeepEqual(ft.Reassemble().Root, c.tree.Root) {
			t.Fatalf("%s: reassembly differs from the document", c.name)
		}
	}
}

// TestCutBytesPerNode pins what a cut fragmentation holds: on the XMark
// document the benchmark deploys (4 sites of 125 000 bytes, 8 fragments)
// at most 90 bytes of heap per document node — the columns, masks and
// values, about 75, with the document's strings shared. A pointer tree
// kept per fragment beside them would add over 130.
func TestCutBytesPerNode(t *testing.T) {
	if raceEnabled() {
		t.Skip("the race detector's shadow memory makes heap measurements meaningless")
	}
	tr := xmark.Generate(4, xmark.Calibrate().SpecForBytes(125_000), 1)
	cuts := RandomCuts(tr, 7, 1)
	heap := func() uint64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	before := heap()
	ft, err := Cut(tr, cuts)
	if err != nil {
		t.Fatal(err)
	}
	held := heap() - before
	runtime.KeepAlive(ft)
	runtime.KeepAlive(tr)
	perNode := float64(held) / float64(tr.Size())
	t.Logf("%d nodes in %d fragments: %d bytes held, %.1f B/node", tr.Size(), ft.Len(), held, perNode)
	if perNode > 90 {
		t.Errorf("a cut fragmentation holds %.1f bytes per node, want at most 90", perNode)
	}
}

// BenchmarkCut times Cut on the benchmark's two deployments: the XMark
// document cut at 7 random elements (8 fragments) and the bibliography
// cut at its 16 sections (17 fragments). A fragment's columns are all it
// holds, so this is the whole cost of making fragments a site can query.
func BenchmarkCut(b *testing.B) {
	xm := xmark.Generate(4, xmark.Calibrate().SpecForBytes(125_000), 1)
	bib := bibliographyTree(1, 16, 150)
	for _, c := range []struct {
		name string
		tree *xmltree.Tree
		cuts []xmltree.NodeID
	}{
		{"xmark", xm, RandomCuts(xm, 7, 1)},
		{"bibliography", bib, bibliographyCuts(bib)},
	} {
		b.Run(fmt.Sprintf("%s/nodes=%d", c.name, c.tree.Size()), func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				if _, err := Cut(c.tree, c.cuts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
