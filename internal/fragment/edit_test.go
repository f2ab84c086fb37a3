package fragment

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"paxq/internal/arena"
	"paxq/internal/xmltree"
)

// editDoc is deep enough for nested cuts, spine nodes and sibling runs.
const editDoc = `<site><people><person><name>alice</name><age>31</age></person>` +
	`<person><name>bob</name><age>44</age></person></people>` +
	`<items><item><price>10</price><desc>red</desc></item>` +
	`<item><price>25</price></item></items></site>`

func cutFixture(t *testing.T, k int, seed int64) (*xmltree.Tree, *Fragmentation) {
	t.Helper()
	tree, err := xmltree.ParseString(editDoc)
	if err != nil {
		t.Fatal(err)
	}
	ft, err := Cut(tree, RandomCuts(tree, k, seed))
	if err != nil {
		t.Fatal(err)
	}
	return tree, ft
}

// applyOracle mirrors one fragment edit on the reassembled original tree:
// the edited fragmentation must reassemble to exactly this.
func applyOracle(t *testing.T, ft *Fragmentation, fid FragID, e Edit) *xmltree.Tree {
	t.Helper()
	orig := ft.Reassemble()
	nd := orig.Node(ft.Origins()[fid][e.Node])
	switch e.Op {
	case EditDelete:
		p := nd.Parent
		for i, c := range p.Children {
			if c == nd {
				p.Children = append(p.Children[:i], p.Children[i+1:]...)
				break
			}
		}
	case EditRename:
		nd.Label = e.Label
	case EditInsert:
		c := e.Subtree.Clone()
		c.Parent = nd
		nd.Children = append(nd.Children[:e.Pos], append([]*xmltree.Node{c}, nd.Children[e.Pos:]...)...)
	}
	orig.Freeze()
	return orig
}

// typedEditErrors are the errors every rejected edit wraps one of.
var typedEditErrors = []error{ErrNoSuchNode, ErrNotElement, ErrEditRoot, ErrEditVirtual,
	ErrEditSpine, ErrBadSubtree, ErrBadPos, ErrBadOp}

// typedError returns the typed edit error err wraps, nil for nil, and
// fails the test on an untyped error.
func typedError(t *testing.T, err error) error {
	t.Helper()
	if err == nil {
		return nil
	}
	for _, te := range typedEditErrors {
		if errors.Is(err, te) {
			return te
		}
	}
	t.Fatalf("untyped edit error: %v", err)
	return nil
}

// numChildren returns the number of children (text children counted) of
// node i of at.
func numChildren(at *arena.Tree, i int) int {
	k := 0
	for c := at.FirstChild(i); c >= 0; c = at.NextSibling(c) {
		k++
	}
	return k
}

func TestApplyEditMatchesOracleAndSplicedArena(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		_, ft := cutFixture(t, 3, seed)
		r := rand.New(rand.NewSource(seed))
		for step := 0; step < 30; step++ {
			fid := FragID(r.Intn(ft.Len()))
			f := ft.Frag(fid)
			if step%5 == 4 {
				// An insert one slot past the last child fails alike on
				// both sides and changes nothing.
				bad := Edit{Op: EditInsert, Node: 0, Pos: numChildren(f.Tree, 0) + 1, Subtree: xmltree.El("x")}
				if err := ft.ApplyEdit(fid, bad); !errors.Is(err, ErrBadPos) {
					t.Fatalf("seed %d step %d: insert past the last slot: %v, want ErrBadPos", seed, step, err)
				}
				if ft.Frag(fid) != f {
					t.Fatalf("seed %d step %d: a rejected edit replaced the fragment", seed, step)
				}
			}
			e := randomEdit(r, f)
			want := applyOracle(t, ft, fid, e) // computed lazily only when valid
			old := f
			if err := ft.ApplyEdit(fid, e); err != nil {
				// applyOracle assumed validity; regenerate expectations by
				// skipping invalid edits — randomEdit only emits valid ones,
				// so an error here is a bug.
				t.Fatalf("seed %d step %d: valid edit rejected: %v", seed, step, err)
			}
			nf := ft.Frag(fid)
			if old.Version+1 != nf.Version {
				t.Fatalf("version %d -> %d", old.Version, nf.Version)
			}
			if old == nf {
				t.Fatal("edit did not copy-on-write")
			}
			if got := ft.Reassemble(); !xmltree.DeepEqual(got.Root, want.Root) {
				t.Fatalf("seed %d step %d (%v frag %d): reassembly diverged", seed, step, e.Op, fid)
			}
			// The spliced arena must equal a rebuild from its pointer form.
			if !arena.Equal(nf.Tree, arena.FromTree(nf.Tree.ToTree())) {
				t.Fatalf("seed %d step %d: spliced arena differs from rebuild", seed, step)
			}
			checkMasks(t, nf, nf.Tree.ToTree())
			// Origins must map into the oracle.
			checkOrigins(t, ft, want)
		}
	}
}

// checkMasks verifies f's spliced virtual/spine masks against a fresh walk
// of ref, the pointer tree f must equal.
func checkMasks(t *testing.T, f *Fragment, ref *xmltree.Tree) {
	t.Helper()
	n := f.Size()
	wantVirt := arena.NewBitset(n)
	wantSpine := arena.NewBitset(n)
	for vid := range f.Virtuals() {
		wantVirt.Set(int(vid))
		for p := ref.Node(vid).Parent; p != nil; p = p.Parent {
			wantSpine.Set(int(p.ID))
		}
	}
	for i := 0; i < n; i++ {
		if f.VirtualMask.Get(i) != wantVirt.Get(i) {
			t.Fatalf("virtual mask differs at %d", i)
		}
		if f.SpineMask.Get(i) != wantSpine.Get(i) {
			t.Fatalf("spine mask differs at %d", i)
		}
	}
}

func checkOrigins(t *testing.T, ft *Fragmentation, orig *xmltree.Tree) {
	t.Helper()
	origins := ft.Origins()
	for _, f := range ft.Frags {
		origin := origins[f.ID]
		if len(origin) != f.Size() {
			t.Fatalf("fragment %d: origin len %d, size %d", f.ID, len(origin), f.Size())
		}
		for _, nd := range f.Tree.ToTree().PreorderNodes() {
			o := orig.Node(origin[nd.ID])
			if o == nil {
				t.Fatalf("fragment %d node %d: origin %d out of range", f.ID, nd.ID, origin[nd.ID])
			}
			if _, virt := f.VirtualAt(nd.ID); virt {
				continue // maps to the sub-fragment root
			}
			if nd.Kind != o.Kind || nd.Label != o.Label || nd.Data != o.Data {
				t.Fatalf("fragment %d node %d: origin mismatch", f.ID, nd.ID)
			}
		}
	}
}

// randomEdit builds a valid edit for f, retrying until the target passes
// the same restrictions ApplyEdit enforces.
func randomEdit(r *rand.Rand, f *Fragment) Edit {
	at := f.Tree
	// editable reports whether node id may be deleted or renamed: an
	// element that is neither the root, a virtual node nor on the spine.
	editable := func(id int) bool {
		return at.LabelID[id] >= 0 && id != int(RootNode) && !f.VirtualMask.Get(id) && !f.SpineMask.Get(id)
	}
	for {
		switch r.Intn(3) {
		case 0: // insert
			id := r.Intn(f.Size())
			if at.LabelID[id] < 0 || f.VirtualMask.Get(id) {
				continue
			}
			sub := xmltree.El("patch", xmltree.ElT("v", fmt.Sprint(r.Intn(100))))
			if r.Intn(2) == 0 {
				sub = xmltree.El("extra")
			}
			return Edit{Op: EditInsert, Node: xmltree.NodeID(id), Pos: r.Intn(numChildren(at, id) + 1), Subtree: sub}
		case 1: // delete
			id := r.Intn(f.Size())
			if !editable(id) {
				continue
			}
			// Keep fragments from shrinking to nothing over long schedules.
			if f.Size()-(int(at.SubtreeEnd[id])-id) < 3 {
				continue
			}
			return Edit{Op: EditDelete, Node: xmltree.NodeID(id)}
		default: // rename
			id := r.Intn(f.Size())
			if !editable(id) {
				continue
			}
			return Edit{Op: EditRename, Node: xmltree.NodeID(id), Label: fmt.Sprintf("l%d", r.Intn(5))}
		}
	}
}

func TestEditTypedErrors(t *testing.T) {
	_, ft := cutFixture(t, 2, 7)
	f := ft.Root()
	var virtID, spineID xmltree.NodeID = -1, -1
	for vid := range f.Virtuals() {
		virtID = vid
	}
	for i := 0; i < f.Size(); i++ {
		if f.SpineMask.Get(i) {
			spineID = xmltree.NodeID(i)
		}
	}
	if virtID < 0 || spineID < 0 {
		t.Skip("fixture produced no virtual under the root fragment")
	}
	cases := []struct {
		name string
		e    Edit
		want error
	}{
		{"missing node", Edit{Op: EditDelete, Node: 9999}, ErrNoSuchNode},
		{"delete root", Edit{Op: EditDelete, Node: 0}, ErrEditRoot},
		{"rename root", Edit{Op: EditRename, Node: 0, Label: "x"}, ErrEditRoot},
		{"delete virtual", Edit{Op: EditDelete, Node: virtID}, ErrEditVirtual},
		{"rename virtual", Edit{Op: EditRename, Node: virtID, Label: "x"}, ErrEditVirtual},
		{"insert into virtual", Edit{Op: EditInsert, Node: virtID, Subtree: xmltree.El("x")}, ErrEditVirtual},
		{"delete spine", Edit{Op: EditDelete, Node: spineID}, ErrEditSpine},
		{"rename spine", Edit{Op: EditRename, Node: spineID, Label: "x"}, ErrEditSpine},
		{"rename reserved", Edit{Op: EditRename, Node: lastLeafElement(f), Label: "#x"}, ErrBadSubtree},
		{"rename to ref label", Edit{Op: EditRename, Node: lastLeafElement(f), Label: RefLabel}, ErrBadSubtree},
		{"insert bad pos", Edit{Op: EditInsert, Node: 0, Pos: 99, Subtree: xmltree.El("x")}, ErrBadPos},
		{"insert nil subtree", Edit{Op: EditInsert, Node: 0, Pos: 0}, ErrBadSubtree},
		{"insert text root", Edit{Op: EditInsert, Node: 0, Pos: 0, Subtree: xmltree.Tx("t")}, ErrBadSubtree},
		{"insert reserved label", Edit{Op: EditInsert, Node: 0, Pos: 0, Subtree: xmltree.El("a", xmltree.El("#fragment"))}, ErrBadSubtree},
		{"insert ref label", Edit{Op: EditInsert, Node: 0, Pos: 0, Subtree: xmltree.El("a", xmltree.El(RefLabel))}, ErrBadSubtree},
		{"rename to spaced label", Edit{Op: EditRename, Node: lastLeafElement(f), Label: "a b"}, ErrBadSubtree},
		{"rename to digit label", Edit{Op: EditRename, Node: lastLeafElement(f), Label: "1x"}, ErrBadSubtree},
		{"rename to markup label", Edit{Op: EditRename, Node: lastLeafElement(f), Label: "a>"}, ErrBadSubtree},
		{"rename to prefixed label", Edit{Op: EditRename, Node: lastLeafElement(f), Label: "x:y"}, ErrBadSubtree},
		{"rename to empty label", Edit{Op: EditRename, Node: lastLeafElement(f), Label: ""}, ErrBadSubtree},
		{"insert spaced label", Edit{Op: EditInsert, Node: 0, Pos: 0, Subtree: xmltree.El("a", xmltree.El("a b"))}, ErrBadSubtree},
		{"insert prefixed root", Edit{Op: EditInsert, Node: 0, Pos: 0, Subtree: xmltree.El("x:y")}, ErrBadSubtree},
		{"insert bad attribute name", Edit{Op: EditInsert, Node: 0, Pos: 0, Subtree: xmltree.El("a").SetAttr("k v", "1")}, ErrBadSubtree},
		{"insert whitespace text", Edit{Op: EditInsert, Node: 0, Pos: 0, Subtree: xmltree.El("a", xmltree.Tx(" "))}, ErrBadSubtree},
		{"insert control character", Edit{Op: EditInsert, Node: 0, Pos: 0, Subtree: xmltree.El("a", xmltree.Tx("x\x00"))}, ErrBadSubtree},
		{"bad op", Edit{Op: EditOp(9), Node: 0}, ErrBadOp},
	}
	for _, c := range cases {
		if _, err := f.ApplyEdit(c.e); !errors.Is(err, c.want) {
			t.Errorf("%s: err = %v, want %v", c.name, err, c.want)
		}
	}
	// A text node is not an element target.
	for i := 0; i < f.Size(); i++ {
		if f.Tree.LabelID[i] < 0 {
			if _, err := f.ApplyEdit(Edit{Op: EditDelete, Node: xmltree.NodeID(i)}); !errors.Is(err, ErrNotElement) {
				t.Errorf("delete text: err = %v, want ErrNotElement", err)
			}
			break
		}
	}
}

func lastLeafElement(f *Fragment) xmltree.NodeID {
	for i := f.Size() - 1; i > 0; i-- {
		if f.Tree.LabelID[i] >= 0 && !f.VirtualMask.Get(i) && !f.SpineMask.Get(i) {
			return xmltree.NodeID(i)
		}
	}
	return 0
}

func TestManifestRoundTripsVersion(t *testing.T) {
	_, ft := cutFixture(t, 2, 3)
	if err := ft.ApplyEdit(RootFrag, Edit{Op: EditInsert, Node: 0, Pos: 0, Subtree: xmltree.El("v")}); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := ft.Save(dir); err != nil {
		t.Fatal(err)
	}
	back, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got := back.Root().Version; got != 1 {
		t.Fatalf("loaded root fragment version %d, want 1", got)
	}
	m, err := LoadManifest(dir + "/" + ManifestName)
	if err != nil {
		t.Fatal(err)
	}
	sk, err := m.Skeleton()
	if err != nil {
		t.Fatal(err)
	}
	if got := sk.Root().Version; got != 1 {
		t.Fatalf("skeleton root fragment version %d, want 1", got)
	}
}

// FuzzEditOps drives arbitrary edit sequences against a fragmentation:
// whatever the inputs, ApplyEdit either applies cleanly (reassembly stays
// a well-formed tree, and the mirror's check holds: the spliced columns
// equal the pointer-tree edit's) or fails with one of the typed edit
// errors — never a panic, and never the mirror's untyped mismatch.
func FuzzEditOps(f *testing.F) {
	f.Add(int64(1), []byte{0, 3, 1, 0})
	f.Add(int64(2), []byte{1, 5, 0, 2, 2, 7, 0, 1})
	f.Add(int64(3), []byte{2, 0, 0, 0, 0, 200, 9, 9})
	f.Fuzz(func(t *testing.T, seed int64, script []byte) {
		tree, err := xmltree.ParseString(editDoc)
		if err != nil {
			t.Fatal(err)
		}
		ft, err := Cut(tree, RandomCuts(tree, 3, seed))
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i+3 < len(script); i += 4 {
			op, node, pos, aux := script[i], script[i+1], script[i+2], script[i+3]
			fid := FragID(int(aux) % ft.Len())
			e := Edit{Op: EditOp(op % 4), Node: xmltree.NodeID(node), Pos: int(pos)}
			switch e.Op {
			case EditInsert:
				e.Subtree = xmltree.El(fmt.Sprintf("n%d", aux%7), xmltree.Tx("x"))
			case EditRename:
				e.Label = fmt.Sprintf("l%d", aux%7)
			}
			typedError(t, ft.ApplyEdit(fid, e))
		}
		got := ft.Reassemble()
		if got.Size() != ft.TotalNodes() {
			t.Fatalf("reassembled %d nodes, fragmentation claims %d", got.Size(), ft.TotalNodes())
		}
		checkOrigins(t, ft, got)
	})
}
