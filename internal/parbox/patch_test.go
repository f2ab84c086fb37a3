package parbox

import (
	"fmt"
	"math/rand"
	"testing"

	"paxq/internal/fragment"
	"paxq/internal/testutil"
	"paxq/internal/xmltree"
	"paxq/internal/xpath"
)

// randomValidEdit builds an edit ApplyEdit will accept: an element target
// that is not the root, not virtual and (for delete/rename) not on the
// spine.
func randomValidEdit(r *rand.Rand, f *fragment.Fragment) (fragment.Edit, bool) {
	av := f.Arena()
	for try := 0; try < 200; try++ {
		id := xmltree.NodeID(r.Intn(f.Size()))
		n := f.Tree.Node(id)
		if !n.IsElement() || f.IsVirtual(n) {
			continue
		}
		switch r.Intn(3) {
		case 0:
			sub := xmltree.El("patch", xmltree.ElT("v", fmt.Sprint(r.Intn(50))))
			return fragment.Edit{Op: fragment.EditInsert, Node: id, Pos: r.Intn(len(n.Children) + 1), Subtree: sub}, true
		case 1:
			if n.Parent == nil || av.SpineMask.Get(int(id)) {
				continue
			}
			if f.Size()-(int(av.Tree.SubtreeEnd[id])-int(id)) < 2 {
				continue
			}
			return fragment.Edit{Op: fragment.EditDelete, Node: id}, true
		default:
			if n.Parent == nil || av.SpineMask.Get(int(id)) {
				continue
			}
			return fragment.Edit{Op: fragment.EditRename, Node: id, Label: fmt.Sprintf("r%d", r.Intn(4))}, true
		}
	}
	return fragment.Edit{}, false
}

// TestPatchMatchesFresh chains random edits on every fragment of random
// fragmentations and demands that the patched vector state reproduces both
// the fresh vector pass and the scalar pass byte-for-byte after each step.
func TestPatchMatchesFresh(t *testing.T) {
	seeds := int64(12)
	if testing.Short() {
		seeds = 4
	}
	for seed := int64(0); seed < seeds; seed++ {
		tree := testutil.RandomTree(seed, 60+int(seed%4)*40)
		ft, err := fragment.Cut(tree, fragment.RandomCuts(tree, int(seed%6), seed+1))
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		r := rand.New(rand.NewSource(seed * 31))
		for q := int64(0); q < 3; q++ {
			query := testutil.RandomQuery(seed*100 + q)
			c, err := xpath.Compile(query)
			if err != nil {
				t.Fatalf("compile %q: %v", query, err)
			}
			vs := NewVarScheme(c, ft.Len())
			for _, f := range ft.Frags {
				st := NewVectorState(f, c, vs)
				cur := f
				for step := 0; step < 4; step++ {
					e, ok := randomValidEdit(r, cur)
					if !ok {
						break
					}
					nf, delta, err := cur.ApplyEdit(e)
					if err != nil {
						t.Fatalf("seed %d %q: valid edit rejected: %v", seed, query, err)
					}
					st.Patch(nf, delta)
					tag := fmt.Sprintf("seed %d frag %d step %d (%v) %q", seed, f.ID, step, e.Op, query)
					requireIdentical(t, tag, EvalQualFragment(nf, c, vs), st.FragQual())
					cur = nf
				}
			}
		}
	}
}
