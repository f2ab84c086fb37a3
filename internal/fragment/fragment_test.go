package fragment

import (
	"errors"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"paxq/internal/testutil"
	"paxq/internal/xmltree"
)

// figure1Cuts returns cut nodes reproducing the five-fragment decomposition
// of Fig. 1: F1 = first client's broker subtree, F2 = the NASDAQ market
// inside it, F3 = Lisa's market subtree, F4 = Kim's market subtree.
func figure1Cuts(t *testing.T, tr *xmltree.Tree) []xmltree.NodeID {
	t.Helper()
	var cuts []xmltree.NodeID
	// F1: broker of first client (E*trade).
	// F2: NASDAQ market under it.
	// F4: market under Kim's broker (Bache).
	// F3: market under Lisa's broker (CIBC).
	tr.Walk(func(n *xmltree.Node) bool {
		if !n.IsElement() {
			return true
		}
		switch {
		case n.Label == "broker" && firstChildValue(n, "name") == "E*trade":
			cuts = append(cuts, n.ID)
		case n.Label == "market" && firstChildValue(n, "name") == "NASDAQ" && firstChildValue(n.Parent, "name") == "E*trade":
			cuts = append(cuts, n.ID)
		case n.Label == "market" && firstChildValue(n.Parent, "name") == "Bache":
			cuts = append(cuts, n.ID)
		case n.Label == "market" && firstChildValue(n.Parent, "name") == "CIBC":
			cuts = append(cuts, n.ID)
		}
		return true
	})
	if len(cuts) != 4 {
		t.Fatalf("expected 4 cuts, found %d", len(cuts))
	}
	return cuts
}

func firstChildValue(n *xmltree.Node, label string) string {
	if n == nil {
		return ""
	}
	for _, c := range n.Children {
		if c.Kind == xmltree.Element && c.Label == label {
			return c.Value()
		}
	}
	return ""
}

func TestCutFigure1(t *testing.T) {
	tr := testutil.PaperTree()
	ft, err := Cut(tr, figure1Cuts(t, tr))
	if err != nil {
		t.Fatal(err)
	}
	if ft.Len() != 5 {
		t.Fatalf("fragments = %d want 5", ft.Len())
	}
	root := ft.Root()
	if root.ID != RootFrag || root.Parent != NoFrag || root.Tree.LabelOf(0) != "clientele" {
		t.Fatalf("root fragment wrong: %+v", root)
	}
	// The root fragment has three virtual nodes (F1, F3', F4' in paper
	// numbering: the broker fragment plus the two market fragments whose
	// parents remain in F0).
	if root.NumVirtuals() != 3 {
		t.Errorf("root virtuals = %d want 3", root.NumVirtuals())
	}
	// The broker fragment nests the NASDAQ market fragment.
	broker := ft.Frag(1)
	if broker.Tree.LabelOf(0) != "broker" || broker.NumVirtuals() != 1 {
		t.Errorf("broker fragment: %v virtuals=%d", broker.Tree.LabelOf(0), broker.NumVirtuals())
	}
	if got := ft.Children(1); len(got) != 1 || ft.Frag(got[0]).Tree.LabelOf(0) != "market" {
		t.Errorf("broker children = %v", got)
	}
	// Every non-root fragment's annotation ends with its own root label.
	for _, f := range ft.Frags[1:] {
		if len(f.Annotation) == 0 || f.Annotation[len(f.Annotation)-1] != f.Tree.LabelOf(0) {
			t.Errorf("fragment %d annotation %v", f.ID, f.Annotation)
		}
	}
	// Annotation of the broker fragment from the clientele root.
	if got := strings.Join(ft.Frags[1].Annotation, "/"); got != "client/broker" {
		t.Errorf("F1 annotation = %q want client/broker", got)
	}
	// Nested fragment's annotation is relative to its parent fragment.
	nested := ft.Frag(ft.Children(1)[0])
	if got := strings.Join(nested.Annotation, "/"); got != "market" {
		t.Errorf("F2 annotation = %q want market", got)
	}
	// AnnotationFromRoot concatenates along the fragment tree.
	if got := strings.Join(ft.AnnotationFromRoot(nested.ID), "/"); got != "client/broker/market" {
		t.Errorf("F2 annotation from root = %q", got)
	}
}

func TestCutValidation(t *testing.T) {
	tr := testutil.PaperTree()
	if _, err := Cut(tr, []xmltree.NodeID{tr.Root.ID}); err == nil {
		t.Error("cutting at the root must fail")
	}
	if _, err := Cut(tr, []xmltree.NodeID{9999}); err == nil {
		t.Error("out-of-range cut must fail")
	}
	if _, err := Cut(tr, []xmltree.NodeID{1, 1}); err == nil {
		t.Error("duplicate cut must fail")
	}
	// Find a text node.
	var textID xmltree.NodeID = -1
	tr.Walk(func(n *xmltree.Node) bool {
		if n.Kind == xmltree.Text && textID < 0 {
			textID = n.ID
		}
		return true
	})
	if _, err := Cut(tr, []xmltree.NodeID{textID}); err == nil {
		t.Error("cutting at a text node must fail")
	}
	// A real RefLabel element would read back from the file form as a
	// virtual node.
	ref := xmltree.NewTree(xmltree.El("a", xmltree.El("b"), xmltree.El(RefLabel).SetAttr("ref", "0")))
	if _, err := Cut(ref, nil); !errors.Is(err, ErrReservedLabel) {
		t.Errorf("document with a %s element: err = %v, want ErrReservedLabel", RefLabel, err)
	}
}

func TestWhole(t *testing.T) {
	tr := testutil.PaperTree()
	ft := Whole(tr)
	if ft.Len() != 1 || !ft.Root().IsLeaf() {
		t.Fatalf("whole fragmentation wrong: %d frags", ft.Len())
	}
	if !xmltree.DeepEqual(ft.Root().Tree.ToTree().Root, tr.Root) {
		t.Error("whole fragment differs from source")
	}
}

func TestReassembleFigure1(t *testing.T) {
	tr := testutil.PaperTree()
	ft, err := Cut(tr, figure1Cuts(t, tr))
	if err != nil {
		t.Fatal(err)
	}
	back := ft.Reassemble()
	if !xmltree.DeepEqual(tr.Root, back.Root) {
		t.Fatal("reassembled tree differs from original")
	}
	if ft.TotalNodes() != tr.Size() {
		t.Errorf("TotalNodes = %d want %d", ft.TotalNodes(), tr.Size())
	}
}

func TestOriginMapping(t *testing.T) {
	tr := testutil.PaperTree()
	ft, err := Cut(tr, figure1Cuts(t, tr))
	if err != nil {
		t.Fatal(err)
	}
	origins := ft.Origins()
	for _, f := range ft.Frags {
		if len(origins[f.ID]) != f.Size() {
			t.Fatalf("fragment %d: origin len %d size %d", f.ID, len(origins[f.ID]), f.Size())
		}
		f.Tree.ToTree().Walk(func(n *xmltree.Node) bool {
			orig := tr.Node(origins[f.ID][n.ID])
			if orig == nil {
				t.Fatalf("fragment %d node %d: bad origin", f.ID, n.ID)
			}
			if f.VirtualMask.Get(int(n.ID)) {
				// A virtual node's origin is the sub-fragment's root.
				child, _ := f.VirtualAt(n.ID)
				if ft.Frag(child).Tree.LabelOf(0) != orig.Label {
					t.Fatalf("virtual origin mismatch: %v vs %v", orig, ft.Frag(child).Tree.LabelOf(0))
				}
			} else if orig.Label != n.Label || orig.Data != n.Data {
				t.Fatalf("origin mismatch at fragment %d node %d: %v vs %v", f.ID, n.ID, n, orig)
			}
			return true
		})
	}
}

func TestTopLevelCuts(t *testing.T) {
	tr := testutil.PaperTree()
	cuts := TopLevelCuts(tr, 2)
	if len(cuts) != 2 {
		t.Fatalf("cuts = %v", cuts)
	}
	ft, err := Cut(tr, cuts)
	if err != nil {
		t.Fatal(err)
	}
	if ft.Len() != 3 {
		t.Errorf("fragments = %d", ft.Len())
	}
	for _, id := range ft.Children(RootFrag) {
		if got := ft.Frag(id).Tree.LabelOf(0); got != "client" {
			t.Errorf("top-level fragment root = %q", got)
		}
	}
}

// TestSelectCutsPrecedence: cut paths win over a size cap, which wins
// over a fragment count, and with none set there are no cuts. Paths cut
// each selected element once and never the root.
func TestSelectCutsPrecedence(t *testing.T) {
	tr := testutil.PaperTree()
	var brokers []xmltree.NodeID
	tr.Walk(func(n *xmltree.Node) bool {
		if n.Label == "broker" {
			brokers = append(brokers, n.ID)
		}
		return true
	})
	for _, tc := range []struct {
		name     string
		paths    []string
		maxNodes int
		frags    int
		want     []xmltree.NodeID
	}{
		{"paths", []string{"//broker", "/*", "//broker"}, 5, 4, brokers},
		{"size", nil, 5, 4, CutsBySize(tr, 5)},
		{"random", nil, 0, 4, RandomCuts(tr, 3, 1)},
		{"whole", nil, 0, 1, nil},
	} {
		got, err := SelectCuts(tr, tc.paths, tc.maxNodes, tc.frags, 1)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if !slices.Equal(got, tc.want) {
			t.Errorf("%s: cuts %v, want %v", tc.name, got, tc.want)
		}
	}
	if _, err := SelectCuts(tr, []string{"]["}, 0, 0, 1); err == nil || !strings.Contains(err.Error(), `cut path "]["`) {
		t.Errorf("bad cut path: err = %v, want it named", err)
	}
}

func TestCutsBySize(t *testing.T) {
	tr := testutil.RandomTree(3, 500)
	cuts := CutsBySize(tr, 100)
	if len(cuts) == 0 {
		t.Fatal("expected cuts on a 500-node tree with 100-node cap")
	}
	ft, err := Cut(tr, cuts)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range ft.Frags {
		// Fragments can slightly exceed the cap (a node plus its direct
		// children), but not wildly.
		if f.Size() > 220 {
			t.Errorf("fragment %d size %d far exceeds cap", f.ID, f.Size())
		}
	}
	if !xmltree.DeepEqual(ft.Reassemble().Root, tr.Root) {
		t.Error("reassembly mismatch")
	}
}

func TestVirtualLabelUnreachable(t *testing.T) {
	if _, err := xmltree.ParseString("<" + VirtualLabel + "/>"); err == nil {
		t.Error("virtual label must not be parseable as a real element")
	}
}

// Property: for random trees and random cut sets, Cut → Reassemble is the
// identity, fragment IDs are topologically ordered (parent < child), and
// every fragment root's annotation path is consistent with the original.
func TestQuickCutReassemble(t *testing.T) {
	f := func(treeSeed, cutSeed int64, k uint8) bool {
		tr := testutil.RandomTree(treeSeed, 120)
		cuts := RandomCuts(tr, int(k%12), cutSeed)
		ft, err := Cut(tr, cuts)
		if err != nil {
			t.Logf("cut error: %v", err)
			return false
		}
		if ft.Len() != len(cuts)+1 {
			return false
		}
		for _, fr := range ft.Frags[1:] {
			if fr.Parent >= fr.ID {
				t.Logf("fragment %d has parent %d", fr.ID, fr.Parent)
				return false
			}
		}
		if ft.TotalNodes() != tr.Size() {
			return false
		}
		return xmltree.DeepEqual(ft.Reassemble().Root, tr.Root)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// Property: walking the concatenated annotations from the root yields the
// true label path of each fragment root in the original tree.
func TestQuickAnnotationPaths(t *testing.T) {
	f := func(treeSeed, cutSeed int64) bool {
		tr := testutil.RandomTree(treeSeed, 100)
		cuts := RandomCuts(tr, 6, cutSeed)
		ft, err := Cut(tr, cuts)
		if err != nil {
			return false
		}
		origins := ft.Origins()
		for i, fr := range ft.Frags {
			if i == 0 {
				continue
			}
			ann := ft.AnnotationFromRoot(fr.ID)
			// Reconstruct the true path of the fragment root in tr.
			orig := tr.Node(origins[fr.ID][0])
			var labels []string
			for n := orig; n.Parent != nil; n = n.Parent {
				labels = append(labels, n.Label)
			}
			for l, r := 0, len(labels)-1; l < r; l, r = l+1, r-1 {
				labels[l], labels[r] = labels[r], labels[l]
			}
			if strings.Join(ann, "/") != strings.Join(labels, "/") {
				t.Logf("fragment %d: annotation %v path %v", fr.ID, ann, labels)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
