package arena

import (
	"fmt"
	"math/rand"
	"testing"

	"paxq/internal/testutil"
	"paxq/internal/xmark"
	"paxq/internal/xmltree"
)

// requireRoundTrip asserts FromTree/ToTree is the identity on t's
// structure, that FromTree of the arena equals it, and that the columnar
// indices are mutually consistent.
func requireRoundTrip(t *testing.T, tag string, tree *xmltree.Tree) {
	t.Helper()
	a := FromTree(tree)
	if a.Len() != tree.Size() {
		t.Fatalf("%s: arena has %d nodes, tree %d", tag, a.Len(), tree.Size())
	}
	back := a.ToTree()
	if !xmltree.DeepEqual(tree.Root, back.Root) {
		t.Fatalf("%s: round trip is not the identity", tag)
	}
	if !Equal(FromTree(a), a) {
		t.Fatalf("%s: FromTree of the arena differs from it", tag)
	}
	// The arena index must be the NodeID, and the index columns must agree
	// with the pointer structure.
	for _, nd := range tree.PreorderNodes() {
		i := int(nd.ID)
		if nd.Parent == nil {
			if a.Parent[i] != -1 {
				t.Fatalf("%s: node %d: Parent = %d, want -1", tag, i, a.Parent[i])
			}
		} else if a.Parent[i] != int32(nd.Parent.ID) {
			t.Fatalf("%s: node %d: Parent = %d, want %d", tag, i, a.Parent[i], nd.Parent.ID)
		}
		if nd.Kind == xmltree.Element {
			if !a.Elements().Get(i) || a.LabelOf(i) != nd.Label {
				t.Fatalf("%s: node %d: element column mismatch", tag, i)
			}
			if !a.LabelMask(nd.Label).Get(i) {
				t.Fatalf("%s: node %d: missing from label mask %q", tag, i, nd.Label)
			}
			if a.Value(i) != nd.Value() {
				t.Fatalf("%s: node %d: Value = %q, want %q", tag, i, a.Value(i), nd.Value())
			}
			nv, ok := nd.NumValue()
			if av, aok := a.NumValue(i); ok != aok || (ok && nv != av) {
				t.Fatalf("%s: node %d: numeric column mismatch", tag, i)
			}
		} else if a.Elements().Get(i) || a.Text(i) != nd.Data {
			t.Fatalf("%s: node %d: text column mismatch", tag, i)
		}
		// Subtree interval = preorder descendants.
		size := 0
		walkCount(nd, &size)
		if got := int(a.SubtreeEnd[i]) - i; got != size {
			t.Fatalf("%s: node %d: subtree size %d via SubtreeEnd, want %d", tag, i, got, size)
		}
		// First-child / next-sibling chain reproduces Children.
		var kids []int
		for c := a.FirstChild(i); c >= 0; c = a.NextSibling(c) {
			kids = append(kids, c)
		}
		if len(kids) != len(nd.Children) {
			t.Fatalf("%s: node %d: %d chain children, want %d", tag, i, len(kids), len(nd.Children))
		}
		for ci, c := range nd.Children {
			if kids[ci] != int(c.ID) {
				t.Fatalf("%s: node %d: child %d is %d, want %d", tag, i, ci, kids[ci], c.ID)
			}
		}
	}
}

func walkCount(n *xmltree.Node, c *int) {
	*c++
	for _, ch := range n.Children {
		walkCount(ch, c)
	}
}

func TestRoundTripEdgeTrees(t *testing.T) {
	// Single node.
	requireRoundTrip(t, "single", xmltree.NewTree(xmltree.NewElement("only")))

	// Deep chain.
	root := xmltree.NewElement("n0")
	cur := root
	for i := 1; i < 200; i++ {
		next := xmltree.NewElement("n")
		cur.Append(next)
		cur = next
	}
	cur.Append(xmltree.NewText("leaf"))
	requireRoundTrip(t, "chain", xmltree.NewTree(root))

	// Wide star with mixed text/element children and attributes.
	star := xmltree.NewElement("hub").SetAttr("k", "v")
	for i := 0; i < 300; i++ {
		if i%3 == 0 {
			star.Append(xmltree.NewText("t"))
		} else {
			star.Append(xmltree.ElT("spoke", "42").SetAttr("i", "x"))
		}
	}
	requireRoundTrip(t, "star", xmltree.NewTree(star))
}

func TestRoundTripXMark(t *testing.T) {
	requireRoundTrip(t, "xmark", xmark.Generate(2, xmark.DefaultSite.Scale(0.05), 11))
}

func TestRoundTripRandom(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		requireRoundTrip(t, "random", testutil.RandomTree(seed, 50+int(seed)*30))
	}
}

func TestStructuralJoins(t *testing.T) {
	// a(b(c,d),e(f(g))) with text sprinkled in.
	tree, err := xmltree.ParseString(`<a><b><c>x</c><d/></b><e><f><g/></f></e></a>`)
	if err != nil {
		t.Fatal(err)
	}
	a := FromTree(tree)
	src := NewBitset(a.Len())
	// Mark the nodes labelled c and g.
	for i := 0; i < a.Len(); i++ {
		if a.Elements().Get(i) && (a.LabelOf(i) == "c" || a.LabelOf(i) == "g") {
			src.Set(i)
		}
	}
	parents := NewBitset(a.Len())
	a.ParentScatter(src, parents)
	desc := NewBitset(a.Len())
	a.StrictDescendants(src, desc)
	for i := 0; i < a.Len(); i++ {
		if !a.Elements().Get(i) {
			continue
		}
		wantParent := false
		wantDesc := false
		switch a.LabelOf(i) {
		case "b", "f": // direct parents of c / g
			wantParent, wantDesc = true, true
		case "a", "e": // ancestors but not parents
			wantDesc = true
		}
		if parents.Get(i) != wantParent {
			t.Errorf("ParentScatter: node %d (%s) = %v, want %v", i, a.LabelOf(i), parents.Get(i), wantParent)
		}
		if desc.Get(i) != wantDesc {
			t.Errorf("StrictDescendants: node %d (%s) = %v, want %v", i, a.LabelOf(i), desc.Get(i), wantDesc)
		}
	}
}

// joinOracle computes both structural joins of src by walking the pointer
// tree: parents[i] when some child of i is in src, desc[i] when some strict
// descendant of i is.
func joinOracle(tree *xmltree.Tree, src Bitset) (parents, desc []bool) {
	parents = make([]bool, tree.Size())
	desc = make([]bool, tree.Size())
	// walk reports whether nd or any of its descendants is in src.
	var walk func(nd *xmltree.Node) bool
	walk = func(nd *xmltree.Node) bool {
		for _, ch := range nd.Children {
			if src.Get(int(ch.ID)) {
				parents[nd.ID] = true
			}
			if walk(ch) {
				desc[nd.ID] = true
			}
		}
		return desc[nd.ID] || src.Get(int(nd.ID))
	}
	walk(tree.Root)
	return parents, desc
}

// requireJoins checks ParentScatter and StrictDescendants of a against the
// pointer-walk oracle over tree, whose NodeIDs must be a's indices.
func requireJoins(t *testing.T, tag string, a *Tree, tree *xmltree.Tree, src Bitset) {
	t.Helper()
	wantParents, wantDesc := joinOracle(tree, src)
	parents, desc := NewBitset(a.Len()), NewBitset(a.Len())
	a.ParentScatter(src, parents)
	a.StrictDescendants(src, desc)
	for i := 0; i < a.Len(); i++ {
		if parents.Get(i) != wantParents[i] {
			t.Fatalf("%s: ParentScatter at %d = %v, want %v", tag, i, parents.Get(i), wantParents[i])
		}
		if desc.Get(i) != wantDesc[i] {
			t.Fatalf("%s: StrictDescendants at %d = %v, want %v", tag, i, desc.Get(i), wantDesc[i])
		}
	}
}

// joinSource is a named source mask over a tree, for the join tests.
type joinSource struct {
	name string
	tree *xmltree.Tree
	src  func(a *Tree) Bitset
}

// joinSources are the sources that stress the structural joins: an empty
// source, the root alone (no proper ancestors), the deepest leaf of a
// 2 000-deep chain (one climb across every level), every leaf of a comb
// (climbs that meet the closed set after one step), every XMark leaf,
// selective XMark label masks, and single subtrees that start and end
// mid-word, one spanning several words and one inside a single word.
func joinSources() []joinSource {
	only := func(i func(a *Tree) int) func(a *Tree) Bitset {
		return func(a *Tree) Bitset {
			m := NewBitset(a.Len())
			m.Set(i(a))
			return m
		}
	}
	leaves := func(a *Tree) Bitset {
		m := NewBitset(a.Len())
		for i := 0; i < a.Len(); i++ {
			if a.FirstChild(i) < 0 {
				m.Set(i)
			}
		}
		return m
	}
	// midWord is the first node whose subtree starts and ends mid-word and
	// either covers a whole word between its ends (wide) or lies inside
	// one word.
	midWord := func(wide bool) func(a *Tree) int {
		return func(a *Tree) int {
			for i := 0; i < a.Len(); i++ {
				end := int(a.SubtreeEnd[i])
				inWord := i>>6 == (end-1)>>6 && end-i > 2
				if i&63 != 0 && end&63 != 0 && (wide && end-i > 128 || !wide && inWord) {
					return i
				}
			}
			panic("no mid-word subtree")
		}
	}
	xm := xmark.Generate(2, xmark.DefaultSite.Scale(0.2), 5)
	cases := []joinSource{
		{"empty", xm, func(a *Tree) Bitset { return NewBitset(a.Len()) }},
		{"root only", xm, only(func(*Tree) int { return 0 })},
		{"chain deepest leaf", buildChain(2000), only(func(a *Tree) int { return a.Len() - 1 })},
		{"comb leaves", buildComb(300), leaves},
		{"xmark leaves", xm, leaves},
		{"mid-word subtree", xm, only(midWord(true))},
		{"in-word subtree", xm, only(midWord(false))},
	}
	for _, label := range []string{"listitem", "person", "bidder", "site"} {
		cases = append(cases, joinSource{"xmark " + label, xm, func(a *Tree) Bitset { return a.LabelMask(label) }})
	}
	return cases
}

// TestStrictDescendantsClosure holds the ancestor closure to its
// definition — node i is in dst iff some strict descendant of i is in src,
// read off the pointer tree — on joinSources. dst must also be closed
// under "parent of", the invariant that lets every climb stop at the first
// node already set.
func TestStrictDescendantsClosure(t *testing.T) {
	for _, tc := range joinSources() {
		a := FromTree(tc.tree)
		src := tc.src(a)
		_, want := joinOracle(tc.tree, src)
		dst := NewBitset(a.Len())
		dst.Fill(a.Len()) // stale contents must not survive
		a.StrictDescendants(src, dst)
		for i := 0; i < a.Len(); i++ {
			if dst.Get(i) != want[i] {
				t.Fatalf("%s: node %d in dst = %v, want %v", tc.name, i, dst.Get(i), want[i])
			}
			if p := a.Parent[i]; dst.Get(i) && p >= 0 && !dst.Get(int(p)) {
				t.Fatalf("%s: node %d is in dst but its parent %d is not", tc.name, i, p)
			}
		}
	}
}

// stepOracle computes the two selection-step joins of src by walking the
// pointer tree: child[i] when i is in cand and its parent is in src,
// self[i] when i or one of its ancestors is in src.
func stepOracle(tree *xmltree.Tree, cand, src Bitset) (child, self []bool) {
	child = make([]bool, tree.Size())
	self = make([]bool, tree.Size())
	var walk func(nd *xmltree.Node, below bool)
	walk = func(nd *xmltree.Node, below bool) {
		in := src.Get(int(nd.ID))
		self[nd.ID] = below || in
		for _, ch := range nd.Children {
			child[ch.ID] = in && cand.Get(int(ch.ID))
			walk(ch, self[nd.ID])
		}
	}
	walk(tree.Root, false)
	return child, self
}

// TestStepJoins holds ParentIn and DescendantsOrSelf to their pointer-walk
// definitions on joinSources, with every node and then the elements of the
// last element's label as ParentIn's candidates, and on random trees and
// masks.
func TestStepJoins(t *testing.T) {
	check := func(tag string, a *Tree, tree *xmltree.Tree, cand, src Bitset) {
		t.Helper()
		wantChild, wantSelf := stepOracle(tree, cand, src)
		child, self := NewBitset(a.Len()), NewBitset(a.Len())
		child.Fill(a.Len()) // stale contents must not survive
		self.Fill(a.Len())
		a.ParentIn(cand, src, child)
		a.DescendantsOrSelf(src, self)
		for i := 0; i < a.Len(); i++ {
			if child.Get(i) != wantChild[i] {
				t.Fatalf("%s: ParentIn at %d = %v, want %v", tag, i, child.Get(i), wantChild[i])
			}
			if self.Get(i) != wantSelf[i] {
				t.Fatalf("%s: DescendantsOrSelf at %d = %v, want %v", tag, i, self.Get(i), wantSelf[i])
			}
		}
	}
	for _, tc := range joinSources() {
		a := FromTree(tc.tree)
		all := NewBitset(a.Len())
		all.Fill(a.Len())
		check(tc.name+" all", a, tc.tree, all, tc.src(a))
		last := a.Len() - 1 // the last element's label: a leaf's in every tree here
		for a.LabelID[last] < 0 {
			last--
		}
		check(tc.name+" "+a.LabelOf(last), a, tc.tree, a.LabelMask(a.LabelOf(last)), tc.src(a))
	}
	for seed := int64(0); seed < 20; seed++ {
		r := rand.New(rand.NewSource(seed))
		tree := testutil.RandomTree(seed, 5+int(seed)*12)
		a := FromTree(tree)
		for _, d := range []float64{0, 0.02, 0.2, 0.7, 1} {
			check(fmt.Sprintf("seed %d density %.2f", seed, d), a, tree, randomMask(r, a.Len(), 0.5), randomMask(r, a.Len(), d))
		}
	}
}

// randomMask returns a mask over n nodes with each bit set with
// probability density.
func randomMask(r *rand.Rand, n int, density float64) Bitset {
	m := NewBitset(n)
	for i := 0; i < n; i++ {
		if r.Float64() < density {
			m.Set(i)
		}
	}
	return m
}

// TestStructuralJoinsRandom holds both joins to the pointer-walk oracle
// over random trees and random source masks, then over arenas produced by
// chains of Splice edits: both joins read the parent column, which an
// edit must keep consistent with the tree.
func TestStructuralJoinsRandom(t *testing.T) {
	densities := []float64{0, 0.02, 0.2, 0.7, 1}
	for seed := int64(0); seed < 40; seed++ {
		r := rand.New(rand.NewSource(seed))
		tree := testutil.RandomTree(seed, 5+int(seed)*12)
		a := FromTree(tree)
		for _, d := range densities {
			requireJoins(t, fmt.Sprintf("seed %d density %.2f", seed, d), a, tree, randomMask(r, a.Len(), d))
		}
		for step := 0; step < 6; step++ {
			op := uint8(r.Intn(3))
			target := r.Intn(a.Len())
			pos := 0
			if nd := tree.Node(xmltree.NodeID(target)); nd != nil && len(nd.Children) > 0 {
				pos = r.Intn(len(nd.Children) + 1)
			}
			const sub = `<x><y>1</y>t<z><y/></z></x>`
			next, ok := applyPointerEdit(tree, op, target, pos, sub)
			if !ok {
				continue
			}
			spliced, err := applyKernel(a, op, target, pos, sub)
			if err != nil {
				t.Fatalf("seed %d step %d: kernel rejected a valid edit: %v", seed, step, err)
			}
			tree, a = next, spliced
			for _, d := range densities {
				requireJoins(t, fmt.Sprintf("seed %d step %d op %d density %.2f", seed, step, op%3, d),
					a, tree, randomMask(r, a.Len(), d))
			}
		}
	}
}

func TestLabelMaskUnknown(t *testing.T) {
	a := FromTree(xmltree.NewTree(xmltree.NewElement("x")))
	if m := a.LabelMask("nope"); m.Any() {
		t.Fatal("unknown label produced a non-empty mask")
	}
}
