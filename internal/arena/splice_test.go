package arena

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"

	"paxq/internal/testutil"
	"paxq/internal/xmark"
	"paxq/internal/xmltree"
)

// applyPointerEdit performs the pointer-tree twin of one splice kernel on
// a clone of t, returning the re-frozen tree, or ok=false when the edit is
// invalid (the kernel must then error too).
func applyPointerEdit(t *xmltree.Tree, op uint8, target, pos int, arg string) (*xmltree.Tree, bool) {
	root := t.Root.Clone()
	t2 := xmltree.NewTree(root)
	nd := t2.Node(xmltree.NodeID(target))
	switch op % 3 {
	case 0: // delete
		if nd == nil || nd.Parent == nil {
			return nil, false
		}
		p := nd.Parent
		for i, c := range p.Children {
			if c == nd {
				p.Children = append(p.Children[:i], p.Children[i+1:]...)
				break
			}
		}
	case 1: // insert
		sub, err := xmltree.ParseString(arg)
		if err != nil || nd == nil || nd.Kind != xmltree.Element || pos > len(nd.Children) {
			return nil, false
		}
		c := sub.Root.Clone()
		c.Parent = nd
		nd.Children = append(nd.Children[:pos], append([]*xmltree.Node{c}, nd.Children[pos:]...)...)
	case 2: // rename
		if nd == nil || nd.Kind != xmltree.Element {
			return nil, false
		}
		nd.Label = arg
	}
	t2.Freeze()
	return t2, true
}

func applyKernel(a *Tree, op uint8, target, pos int, arg string) (*Tree, error) {
	switch op % 3 {
	case 0:
		return a.DeleteSubtree(target)
	case 1:
		sub, err := xmltree.ParseString(arg)
		if err != nil {
			return nil, err
		}
		return a.InsertSubtree(target, pos, sub.Root)
	default:
		return a.Relabel(target, arg)
	}
}

// requireArenasEqual compares every column, value and derived mask of two
// arenas.
func requireArenasEqual(t *testing.T, got, want *Tree) {
	t.Helper()
	if got.Len() != want.Len() {
		t.Fatalf("arena length %d, want %d", got.Len(), want.Len())
	}
	n := want.Len()
	for _, col := range []struct {
		name      string
		got, want any
	}{
		{"Parent", got.Parent, want.Parent},
		{"SubtreeEnd", got.SubtreeEnd, want.SubtreeEnd},
	} {
		if !reflect.DeepEqual(col.got, col.want) {
			t.Fatalf("column %s differs:\n got %v\nwant %v", col.name, col.got, col.want)
		}
	}
	for i := 0; i < n; i++ {
		if got.FirstChild(i) != want.FirstChild(i) || got.NextSibling(i) != want.NextSibling(i) {
			t.Fatalf("child links differ at %d", i)
		}
		if got.Elements().Get(i) != want.Elements().Get(i) {
			t.Fatalf("element mask differs at %d", i)
		}
		if got.Text(i) != want.Text(i) {
			t.Fatalf("value at %d: %q, want %q", i, got.Text(i), want.Text(i))
		}
		if want.Elements().Get(i) {
			if got.LabelOf(i) != want.LabelOf(i) {
				t.Fatalf("label at %d: %q, want %q", i, got.LabelOf(i), want.LabelOf(i))
			}
			gv, gok := got.NumValue(i)
			wv, wok := want.NumValue(i)
			if gok != wok || math.Float64bits(gv) != math.Float64bits(wv) {
				t.Fatalf("numeric value at %d: %v %v, want %v %v", i, gv, gok, wv, wok)
			}
			if !reflect.DeepEqual(got.Attrs(i), want.Attrs(i)) {
				t.Fatalf("attrs at %d differ", i)
			}
		}
	}
	// Label masks agree for the union of label vocabularies.
	for _, l := range append(append([]string(nil), got.labels...), want.labels...) {
		g, w := got.LabelMask(l), want.LabelMask(l)
		for i := 0; i < n; i++ {
			if g.Get(i) != w.Get(i) {
				t.Fatalf("label mask %q differs at %d", l, i)
			}
		}
	}
	if !Equal(got, want) {
		t.Fatal("Equal reports the arenas differ")
	}
	if !xmltree.DeepEqual(got.ToTree().Root, want.ToTree().Root) {
		t.Fatal("ToTree round trips differ")
	}
}

func checkSplice(t *testing.T, xml string, op uint8, target, pos int, arg string) {
	t.Helper()
	tree, err := xmltree.ParseString(xml)
	if err != nil {
		t.Skip()
	}
	a := FromTree(tree)
	want, ok := applyPointerEdit(tree, op, target, pos, arg)
	got, kerr := applyKernel(a, op, target, pos, arg)
	if !ok {
		if kerr == nil {
			t.Fatalf("kernel accepted invalid edit op=%d target=%d pos=%d arg=%q on %q", op%3, target, pos, arg, xml)
		}
		return
	}
	if kerr != nil {
		t.Fatalf("kernel rejected valid edit op=%d target=%d pos=%d arg=%q on %q: %v", op%3, target, pos, arg, xml, kerr)
	}
	requireArenasEqual(t, got, FromTree(want))
	// The input arena must be untouched: rebuild and compare.
	requireArenasEqual(t, a, FromTree(xmltree.NewTree(tree.Root)))
}

func TestSpliceDelete(t *testing.T) {
	const doc = `<a><b>1</b><c><d/>t<e>x</e></c><f/></a>`
	tree, _ := xmltree.ParseString(doc)
	for id := 1; id < tree.Size(); id++ {
		checkSplice(t, doc, 0, id, 0, "")
	}
	if _, err := FromTree(tree).DeleteSubtree(0); err == nil {
		t.Fatal("deleting the root must fail")
	}
	if _, err := FromTree(tree).DeleteSubtree(tree.Size()); err == nil {
		t.Fatal("deleting out of range must fail")
	}
}

func TestSpliceInsert(t *testing.T) {
	const doc = `<a><b>1</b><c><d/>t</c></a>`
	tree, _ := xmltree.ParseString(doc)
	for id := 0; id < tree.Size(); id++ {
		for pos := 0; pos <= 4; pos++ {
			checkSplice(t, doc, 1, id, pos, `<n k="v"><m>7</m>txt</n>`)
		}
	}
}

func TestSpliceRename(t *testing.T) {
	const doc = `<a><b>1</b><c><d/></c></a>`
	tree, _ := xmltree.ParseString(doc)
	for id := 0; id < tree.Size(); id++ {
		checkSplice(t, doc, 2, id, 0, "z") // fresh label
		checkSplice(t, doc, 2, id, 0, "b") // existing label
	}
}

// TestSpliceCol: a spliced column keeps the prefix and the suffix, leaves
// its source alone, and, whenever the column grows by no more than the
// prefix it can append to, takes the one allocation a column of its
// length takes, with no spare capacity from append's growth.
func TestSpliceCol(t *testing.T) {
	for _, n := range []int{1, 2, 3, 7, 64, 300, 5000} {
		src := make([]int32, n)
		for i := range src {
			src[i] = int32(i + 1)
		}
		for _, at := range []int{0, 1, 2, n / 3, n / 2, n - 1, n} {
			for _, oldLen := range []int{0, 1, 3, n / 4, n - at} {
				for _, newLen := range []int{0, 1, 3, 40, n} {
					if oldLen < 0 || at+oldLen > n || n-oldLen+newLen < 1 {
						continue
					}
					total := n - oldLen + newLen
					got := spliceCol(src, at, oldLen, newLen)
					name := fmt.Sprintf("n=%d at=%d old=%d new=%d", n, at, oldLen, newLen)
					if len(got) != total || !slices.Equal(got[:at], src[:at]) || !slices.Equal(got[at+newLen:], src[at+oldLen:]) {
						t.Fatalf("%s: got %v", name, got)
					}
					for i, v := range src {
						if v != int32(i+1) {
							t.Fatalf("%s: source changed at %d", name, i)
						}
					}
					exact := cap(append([]int32(nil), make([]int32, total)...))
					if newLen-oldLen <= min(at, (total-1)/2) && cap(got) != exact {
						t.Errorf("%s: capacity %d, want %d", name, cap(got), exact)
					}
				}
			}
		}
	}
}

func TestSpliceBits(t *testing.T) {
	for _, n := range []int{1, 5, 63, 64, 65, 130, 200} {
		src := NewBitset(n)
		for i := 0; i < n; i += 3 {
			src.Set(i)
		}
		for _, at := range []int{0, 1, n / 2, n} {
			for _, oldLen := range []int{0, 1, 7, n - at} {
				if at+oldLen > n || oldLen < 0 {
					continue
				}
				for _, newLen := range []int{0, 1, 64, 100} {
					got := SpliceBits(src, at, oldLen, newLen, n)
					n2 := n - oldLen + newLen
					for i := 0; i < n2; i++ {
						want := false
						switch {
						case i < at:
							want = src.Get(i)
						case i < at+newLen:
							want = false
						default:
							want = src.Get(i - newLen + oldLen)
						}
						if got.Get(i) != want {
							t.Fatalf("n=%d at=%d old=%d new=%d: bit %d = %v, want %v", n, at, oldLen, newLen, i, got.Get(i), want)
						}
					}
					if got.OnesCount() != countExpected(src, at, oldLen, n) {
						t.Fatalf("n=%d at=%d old=%d new=%d: tail bits leaked", n, at, oldLen, newLen)
					}
				}
			}
		}
	}
}

func countExpected(src Bitset, at, oldLen, n int) int {
	c := 0
	for i := 0; i < n; i++ {
		if (i < at || i >= at+oldLen) && src.Get(i) {
			c++
		}
	}
	return c
}

// FuzzArenaSplice drives random edits against the splice kernels and
// asserts the result is column-identical to rebuilding the arena from the
// edited pointer tree — i.e. splice/renumber round-trips losslessly
// through FromTree/ToTree.
func FuzzArenaSplice(f *testing.F) {
	f.Add("<a><b>1</b><c><d/>t</c></a>", uint8(0), uint16(2), uint8(0), "")
	f.Add("<a><b>1</b><c><d/>t</c></a>", uint8(1), uint16(0), uint8(1), "<n><m>7</m></n>")
	f.Add("<a><b>1</b><c><d/>t</c></a>", uint8(2), uint16(3), uint8(0), "zz")
	f.Add(`<r><x>9</x><y k="v">w</y></r>`, uint8(1), uint16(3), uint8(0), "<q/>")
	f.Fuzz(func(t *testing.T, xml string, op uint8, target uint16, pos uint8, arg string) {
		checkSplice(t, xml, op, int(target), int(pos%8), arg)
	})
}

// chainEdit is one random edit of a splice chain: a delete, insert or
// rename of node, with the insert's slot and subtree or the new label.
type chainEdit struct {
	op    uint8 // 0 delete, 1 insert, 2 rename
	node  int
	pos   int
	label string
	sub   *xmltree.Node
}

// apply runs the edit through the splice kernels.
func (e chainEdit) apply(a *Tree) (*Tree, error) {
	switch e.op {
	case 0:
		return a.DeleteSubtree(e.node)
	case 1:
		return a.InsertSubtree(e.node, e.pos, e.sub)
	}
	return a.Relabel(e.node, e.label)
}

// mirror applies the edit to a clone of t and returns the re-frozen clone.
func (e chainEdit) mirror(t *xmltree.Tree) *xmltree.Tree {
	t2 := xmltree.NewTree(t.Root.Clone())
	nd := t2.Node(xmltree.NodeID(e.node))
	switch e.op {
	case 0:
		p := nd.Parent
		p.Children = slices.DeleteFunc(p.Children, func(c *xmltree.Node) bool { return c == nd })
	case 1:
		c := e.sub.Clone()
		c.Parent = nd
		nd.Children = slices.Insert(nd.Children, e.pos, c)
	case 2:
		nd.Label = e.label
	}
	t2.Freeze()
	return t2
}

// randomChainEdit draws an edit of t: inserts of small subtrees with
// attributes, numeric and text values (now and then a bare text node, which
// changes its parent's string value), deletes of small subtrees (text nodes
// included), and renames to old and new labels. A delete below t's initial
// size becomes an insert and an insert above it a delete, so the chain
// keeps its size while dead pool entries pile up.
func randomChainEdit(r *rand.Rand, t *xmltree.Tree, size0 int, insertOnly bool) chainEdit {
	nodes := t.PreorderNodes()
	op := uint8(r.Intn(3))
	switch {
	case insertOnly || op == 0 && len(nodes) < size0:
		op = 1
	case op == 1 && len(nodes) > size0:
		op = 0
	}
	for {
		nd := nodes[r.Intn(len(nodes))]
		size := 0
		walkCount(nd, &size)
		switch {
		case op == 0 && nd.Parent != nil && size <= 12:
			return chainEdit{op: 0, node: int(nd.ID)}
		case op == 1 && nd.Kind == xmltree.Element:
			sub := xmltree.NewText(fmt.Sprintf(" t%d ", r.Intn(5)))
			if r.Intn(6) != 0 {
				sub = randomSubtree(r, 3)
			}
			return chainEdit{op: 1, node: int(nd.ID), pos: r.Intn(len(nd.Children) + 1), sub: sub}
		case op == 2 && nd.Kind == xmltree.Element:
			return chainEdit{op: 2, node: int(nd.ID), label: fmt.Sprintf("l%d", r.Intn(40))}
		}
	}
}

// randomSubtree builds a small random element subtree.
func randomSubtree(r *rand.Rand, depth int) *xmltree.Node {
	n := xmltree.NewElement(fmt.Sprintf("l%d", r.Intn(40)))
	if r.Intn(2) == 0 {
		n.SetAttr("k", fmt.Sprint(r.Intn(9)))
	}
	switch r.Intn(3) {
	case 0:
		n.Append(xmltree.NewText(fmt.Sprint(r.Intn(100))))
	case 1:
		n.Append(xmltree.NewText(fmt.Sprintf("w%d", r.Intn(9))))
	}
	for depth > 0 && r.Intn(3) == 0 {
		n.Append(randomSubtree(r, depth-1))
	}
	return n
}

// TestSpliceChains runs long random chains of deletes, inserts and renames
// through the splice kernels, each edit applied to the latest version, and
// forks the chain now and then: two successors of one version built
// concurrently, so the value pool's tail is claimed in place by at most
// one while the other compacts into a copy. After every step each tree
// built must equal the arena of its edited pointer tree, the forked
// version must still equal its own, and the value pool must hold at most
// two entries per live node. The chain goes on from either successor in
// its first quarter and from the one that claimed the tail after that, so
// dead entries pile up until they trigger compaction; each run must see a
// tail claimed in place, a compaction, and a fork that took both paths.
func TestSpliceChains(t *testing.T) {
	const steps = 2000
	trees := map[string]*xmltree.Tree{
		"xmark":    xmark.Generate(2, xmark.DefaultSite.Scale(0.05), 11),
		"random-1": testutil.RandomTree(1, 150),
		"random-2": testutil.RandomTree(2, 400),
	}
	for name, tree := range trees {
		t.Run(name, func(t *testing.T) {
			r := rand.New(rand.NewSource(int64(len(name)) + int64(tree.Size())))
			size0 := tree.Size()
			cur, curTree := FromTree(tree), tree
			check := func(step int, a *Tree, want *xmltree.Tree) {
				t.Helper()
				if !Equal(a, FromTree(want)) {
					requireArenasEqual(t, a, FromTree(want))
					t.Fatalf("step %d: arena differs from its pointer tree", step)
				}
				if live, l := a.Len(), a.vals.Len(); l > 2*live {
					t.Fatalf("step %d: value pool holds %d entries for %d live nodes", step, l, live)
				}
			}
			var inPlace, compactions, forks int
			for step := 0; step < steps; step++ {
				if step%25 != 24 {
					e := randomChainEdit(r, curTree, size0, false)
					next, err := e.apply(cur)
					if err != nil {
						t.Fatalf("step %d: %+v: %v", step, e, err)
					}
					if next.vals.claimed == cur.vals.claimed && next.vals.Len() > cur.vals.Len() {
						inPlace++
					}
					if next.vals.Len() < cur.vals.Len() {
						compactions++
					}
					cur, curTree = next, e.mirror(curTree)
					check(step, cur, curTree)
					continue
				}
				// A fork: two inserts into one version, concurrently.
				var es [2]chainEdit
				var succ [2]*Tree
				var errs [2]error
				var wg sync.WaitGroup
				for k := range es {
					es[k] = randomChainEdit(r, curTree, size0, true)
					wg.Add(1)
					go func() {
						defer wg.Done()
						succ[k], errs[k] = es[k].apply(cur)
					}()
				}
				wg.Wait()
				shared, k := 0, r.Intn(2)
				for j := range succ {
					if errs[j] != nil {
						t.Fatalf("step %d: fork %d: %+v: %v", step, j, es[j], errs[j])
					}
					if succ[j].vals.claimed == cur.vals.claimed {
						shared++
						if step >= steps/4 {
							k = j // dead entries pile up along the claimed tail
						}
					}
				}
				if shared > 1 {
					t.Fatalf("step %d: both successors claimed the pool's tail", step)
				}
				if shared == 1 {
					forks++
				}
				check(step, cur, curTree)
				for j := range succ {
					check(step, succ[j], es[j].mirror(curTree))
				}
				cur, curTree = succ[k], es[k].mirror(curTree)
			}
			t.Logf("%d nodes at the start, %d at the end: %d tails claimed in place, %d compactions, %d forks taking both paths",
				size0, cur.Len(), inPlace, compactions, forks)
			if inPlace == 0 || compactions == 0 || forks == 0 {
				t.Fatalf("chain saw %d in-place claims, %d compactions, %d two-path forks; want each at least once", inPlace, compactions, forks)
			}
		})
	}
}
