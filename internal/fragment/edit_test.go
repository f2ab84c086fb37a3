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
	ft.RecomputeOrigins()
	f := ft.Frag(fid)
	orig := ft.Reassemble()
	nd := orig.Node(f.Origin[e.Node])
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

func TestApplyEditMatchesOracleAndSplicedArena(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		_, ft := cutFixture(t, 3, seed)
		r := rand.New(rand.NewSource(seed))
		for step := 0; step < 30; step++ {
			fid := FragID(r.Intn(ft.Len()))
			f := ft.Frag(fid)
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
			// The spliced arena must equal a rebuild from the new tree.
			fresh := arena.FromTree(nf.Tree)
			if !arena.Equal(nf.Arena().Tree, fresh) {
				t.Fatalf("seed %d step %d: spliced arena differs from rebuild", seed, step)
			}
			checkMasks(t, nf)
			// Origins must be recomputable and bijective into the oracle.
			ft.RecomputeOrigins()
			checkOrigins(t, ft, want)
		}
	}
}

// checkMasks verifies the spliced virtual/spine masks against a fresh walk.
func checkMasks(t *testing.T, f *Fragment) {
	t.Helper()
	av := f.Arena()
	n := f.Size()
	wantVirt := arena.NewBitset(n)
	wantSpine := arena.NewBitset(n)
	for vid := range f.Virtuals() {
		wantVirt.Set(int(vid))
		for p := f.Tree.Node(vid).Parent; p != nil; p = p.Parent {
			wantSpine.Set(int(p.ID))
		}
	}
	for i := 0; i < n; i++ {
		if av.VirtualMask.Get(i) != wantVirt.Get(i) {
			t.Fatalf("virtual mask differs at %d", i)
		}
		if av.SpineMask.Get(i) != wantSpine.Get(i) {
			t.Fatalf("spine mask differs at %d", i)
		}
	}
}

func checkOrigins(t *testing.T, ft *Fragmentation, orig *xmltree.Tree) {
	t.Helper()
	for _, f := range ft.Frags {
		if len(f.Origin) != f.Size() {
			t.Fatalf("fragment %d: origin len %d, size %d", f.ID, len(f.Origin), f.Size())
		}
		for _, nd := range f.Tree.PreorderNodes() {
			o := orig.Node(f.Origin[nd.ID])
			if o == nil {
				t.Fatalf("fragment %d node %d: origin %d out of range", f.ID, nd.ID, f.Origin[nd.ID])
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
	av := f.Arena()
	for {
		switch r.Intn(3) {
		case 0: // insert
			id := xmltree.NodeID(r.Intn(f.Size()))
			n := f.Tree.Node(id)
			if !n.IsElement() || f.IsVirtual(n) {
				continue
			}
			sub := xmltree.El("patch", xmltree.ElT("v", fmt.Sprint(r.Intn(100))))
			if r.Intn(2) == 0 {
				sub = xmltree.El("extra")
			}
			return Edit{Op: EditInsert, Node: id, Pos: r.Intn(len(n.Children) + 1), Subtree: sub}
		case 1: // delete
			id := xmltree.NodeID(r.Intn(f.Size()))
			n := f.Tree.Node(id)
			if !n.IsElement() || n.Parent == nil || f.IsVirtual(n) || av.SpineMask.Get(int(id)) {
				continue
			}
			// Keep fragments from shrinking to nothing over long schedules.
			if f.Size()-(int(av.Tree.SubtreeEnd[id])-int(id)) < 3 {
				continue
			}
			return Edit{Op: EditDelete, Node: id}
		default: // rename
			id := xmltree.NodeID(r.Intn(f.Size()))
			n := f.Tree.Node(id)
			if !n.IsElement() || n.Parent == nil || f.IsVirtual(n) || av.SpineMask.Get(int(id)) {
				continue
			}
			return Edit{Op: EditRename, Node: id, Label: fmt.Sprintf("l%d", r.Intn(5))}
		}
	}
}

func TestEditTypedErrors(t *testing.T) {
	_, ft := cutFixture(t, 2, 7)
	f := ft.Root()
	av := f.Arena()
	var virtID, spineID xmltree.NodeID = -1, -1
	for vid := range f.Virtuals() {
		virtID = vid
	}
	for i := 0; i < f.Size(); i++ {
		if av.SpineMask.Get(i) {
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
		{"insert bad pos", Edit{Op: EditInsert, Node: 0, Pos: 99, Subtree: xmltree.El("x")}, ErrBadPos},
		{"insert nil subtree", Edit{Op: EditInsert, Node: 0, Pos: 0}, ErrBadSubtree},
		{"insert text root", Edit{Op: EditInsert, Node: 0, Pos: 0, Subtree: xmltree.Tx("t")}, ErrBadSubtree},
		{"insert reserved label", Edit{Op: EditInsert, Node: 0, Pos: 0, Subtree: xmltree.El("a", xmltree.El("#fragment"))}, ErrBadSubtree},
		{"bad op", Edit{Op: EditOp(9), Node: 0}, ErrBadOp},
	}
	for _, c := range cases {
		if _, err := f.ApplyEdit(c.e); !errors.Is(err, c.want) {
			t.Errorf("%s: err = %v, want %v", c.name, err, c.want)
		}
	}
	// A text node is not an element target.
	for _, nd := range f.Tree.PreorderNodes() {
		if nd.Kind == xmltree.Text {
			if _, err := f.ApplyEdit(Edit{Op: EditDelete, Node: nd.ID}); !errors.Is(err, ErrNotElement) {
				t.Errorf("delete text: err = %v, want ErrNotElement", err)
			}
			break
		}
	}
}

func lastLeafElement(f *Fragment) xmltree.NodeID {
	av := f.Arena()
	for i := f.Size() - 1; i > 0; i-- {
		n := f.Tree.Node(xmltree.NodeID(i))
		if n.IsElement() && !f.IsVirtual(n) && !av.SpineMask.Get(i) {
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
// a well-formed tree, spliced arena equals a rebuild) or fails with one of
// the typed edit errors — never a panic.
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
		typed := []error{ErrNoSuchNode, ErrNotElement, ErrEditRoot, ErrEditVirtual,
			ErrEditSpine, ErrBadSubtree, ErrBadPos, ErrBadOp}
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
			if err := ft.ApplyEdit(fid, e); err != nil {
				ok := false
				for _, te := range typed {
					if errors.Is(err, te) {
						ok = true
						break
					}
				}
				if !ok {
					t.Fatalf("untyped edit error: %v", err)
				}
				continue
			}
			nf := ft.Frag(fid)
			if !arena.Equal(nf.Arena().Tree, arena.FromTree(nf.Tree)) {
				t.Fatal("spliced arena differs from rebuild")
			}
		}
		ft.RecomputeOrigins()
		if got := ft.Reassemble(); got.Size() != ft.TotalNodes() {
			t.Fatalf("reassembled %d nodes, fragmentation claims %d", got.Size(), ft.TotalNodes())
		}
	})
}
