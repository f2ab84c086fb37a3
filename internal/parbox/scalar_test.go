package parbox

import (
	"testing"

	"paxq/internal/boolexpr"
	"paxq/internal/fragment"
	"paxq/internal/testutil"
	"paxq/internal/xmltree"
	"paxq/internal/xpath"
)

// EvalQualFragment runs the bottom-up qualifier pass (extended ParBoX) over
// one fragment, node by node: the paper's recurrence, literally. It is the
// oracle of the identity tests in vector_test.go, which hold the bit-packed
// pass (NewVectorState + FragQual) byte-identical to it. It keeps a formula
// row at every real element, read through the same QualAt, and builds its
// formulas with b.
func EvalQualFragment(f *fragment.Fragment, c *xpath.Compiled, vs VarScheme, b *boolexpr.Builder) *FragQual {
	nP := len(c.Preds)
	out := &FragQual{}
	needSel := c.HasQualifiers()
	if needSel {
		out.rows = make(map[xmltree.NodeID][]*boolexpr.Formula, f.Size())
	}

	// walk returns the QV and QDV rows of n.
	var walk func(n *xmltree.Node) (qv, qdv []*boolexpr.Formula)
	walk = func(n *xmltree.Node) ([]*boolexpr.Formula, []*boolexpr.Formula) {
		if k, ok := f.VirtualAt(n.ID); ok {
			qv := make([]*boolexpr.Formula, nP)
			qdv := make([]*boolexpr.Formula, nP)
			for p := 0; p < nP; p++ {
				qv[p] = b.V(vs.QV(k, p))
				qdv[p] = b.V(vs.QDV(k, p))
			}
			out.Work += int64(nP)
			return qv, qdv
		}
		qcvRow := make([]*boolexpr.Formula, nP)
		sdvRow := make([]*boolexpr.Formula, nP)
		for p := 0; p < nP; p++ {
			qcvRow[p] = boolexpr.False()
			sdvRow[p] = boolexpr.False()
		}
		for _, ch := range n.Children {
			if ch.Kind != xmltree.Element {
				continue
			}
			cqv, cqdv := walk(ch)
			for p := 0; p < nP; p++ {
				qcvRow[p] = b.Or(qcvRow[p], cqv[p])
				sdvRow[p] = b.Or(sdvRow[p], cqdv[p])
			}
		}
		qcvAt := func(p int) *boolexpr.Formula { return qcvRow[p] }
		sdvAt := func(p int) *boolexpr.Formula { return sdvRow[p] }
		row := xpath.NodePredRow[*boolexpr.Formula](b, c, n, qcvAt, sdvAt, nil)
		if needSel {
			sq := make([]*boolexpr.Formula, len(c.Sel))
			for i := range c.Sel {
				e := &c.Sel[i]
				if e.Kind == xpath.SelStep && e.Qual != nil {
					sq[i] = xpath.EvalQExpr[*boolexpr.Formula](b, e.Qual, n, qcvAt, sdvAt)
				}
			}
			out.rows[n.ID] = sq
		}
		qdvRow := make([]*boolexpr.Formula, nP)
		for p := 0; p < nP; p++ {
			qdvRow[p] = b.Or(row[p], sdvRow[p])
		}
		out.Work += int64(nP + len(c.Sel))
		return row, qdvRow
	}
	qv, qdv := walk(f.Tree.Root)
	out.Root = RootVecs{QV: qv, QDV: qdv}
	return out
}

func TestEvalQualFragmentLeafIsGround(t *testing.T) {
	// Leaf fragments have no virtual nodes, so their root vectors must
	// contain no variables (paper: "vectors of leaf fragments ... contain
	// no variables").
	ft := fig1Fragmentation(t, 4, 3)
	c := xpath.MustCompile(`[//stock/code = "GOOG" and //market/name = "NYSE"]`)
	vs := NewVarScheme(c, ft.Len())
	for _, f := range ft.Frags {
		q := EvalQualFragment(f, c, vs, &boolexpr.Builder{})
		if !f.IsLeaf() {
			continue
		}
		for p := range q.Root.QV {
			if q.Root.QV[p].HasVars() || q.Root.QDV[p].HasVars() {
				t.Errorf("leaf fragment %d has variables in root vectors", f.ID)
			}
		}
	}
}

func TestEvalQualFragmentVirtualVars(t *testing.T) {
	// A fragment's root vectors may only mention variables of its direct
	// sub-fragments.
	ft := fig1Fragmentation(t, 5, 11)
	c := xpath.MustCompile(`[//a[b]/c = "x"]`)
	vs := NewVarScheme(c, ft.Len())
	for _, f := range ft.Frags {
		q := EvalQualFragment(f, c, vs, &boolexpr.Builder{})
		allowed := map[boolexpr.Var]bool{}
		for _, child := range f.Virtuals() {
			for p := 0; p < vs.NumPreds; p++ {
				allowed[vs.QV(child, p)] = true
				allowed[vs.QDV(child, p)] = true
			}
		}
		var vars []boolexpr.Var
		for p := range q.Root.QV {
			vars = q.Root.QV[p].Vars(vars)
			vars = q.Root.QDV[p].Vars(vars)
		}
		for _, v := range vars {
			if !allowed[v] {
				t.Errorf("fragment %d mentions foreign variable %d", f.ID, v)
			}
		}
	}
}

func BenchmarkEvalQualFragment(b *testing.B) {
	tr := testutil.RandomTree(5, 10000)
	ft := fragment.Whole(tr)
	c := xpath.MustCompile(`[//a[b = "x"]/c]`)
	vs := NewVarScheme(c, 1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = EvalQualFragment(ft.Root(), c, vs, &boolexpr.Builder{})
	}
}
