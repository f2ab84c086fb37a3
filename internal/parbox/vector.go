// Vectorized Stage-1 qualifier pass over the columnar arena layout.
//
// The scalar pass (EvalQualFragment) walks *xmltree.Node pointers bottom-up
// and builds residual formulas at every node. But boolexpr's smart
// constructors constant-fold totally: wherever no virtual node lies below,
// every intermediate formula collapses to the shared True/False singleton —
// the formulas are booleans in disguise. The vectorized pass exploits this:
// it computes the QV/QCV/QDV bits of every predicate as bit-packed masks
// with word-at-a-time sweeps and interval-scan structural joins, and falls
// back to the literal scalar recurrence only on the spine (the proper
// ancestors of virtual nodes), substituting Const singletons for ground
// sub-results. Because the spine recomputation performs exactly the same
// constructor calls on an isomorphic pointer graph, the resulting FragQual
// — root vectors, SelQual rows, Work ledger — is byte-identical on the wire
// to the scalar pass, which the differential harness and the identity tests
// in vector_test.go enforce.
//
// Mask entries at spine and virtual positions are garbage (the masks cannot
// represent "unknown"), but they are never read: a non-spine node has no
// spine or virtual node in its subtree — if it had one it would be spine
// itself — so every mask read that feeds a ground output pulls only from
// non-spine positions, and spine outputs come from the symbolic
// recomputation alone.

package parbox

import (
	"paxq/internal/arena"
	"paxq/internal/boolexpr"
	"paxq/internal/fragment"
	"paxq/internal/xmltree"
	"paxq/internal/xpath"
)

// VectorState is the retained bit-packed state of one vectorized qualifier
// pass over a fragment: the per-predicate QV/QCV/SDV masks plus the
// real-element base mask, pinned to the fragment they were computed
// against. A fresh pass builds it with NewVectorState; a site that keeps
// the state alongside its cached Stage-1 result can Patch it through a
// fragment edit (see patch.go) instead of re-sweeping the fragment.
type VectorState struct {
	f  *fragment.Fragment
	c  *xpath.Compiled
	vs VarScheme

	at       *arena.Tree
	av       *fragment.ArenaView
	n        int
	realElem arena.Bitset // element nodes that are not virtual
	qvM      []arena.Bitset
	qcvM     []arena.Bitset
	sdvM     []arena.Bitset
}

// Fragment returns the fragment version the state currently describes.
func (st *VectorState) Fragment() *fragment.Fragment { return st.f }

// NewVectorState runs the mask-building half of the vectorized qualifier
// pass and retains the result for later FragQual builds and Patch calls.
func NewVectorState(f *fragment.Fragment, c *xpath.Compiled, vs VarScheme) *VectorState {
	av := f.Arena()
	st := &VectorState{f: f, c: c, vs: vs, at: av.Tree, av: av, n: av.Tree.Len()}
	st.sweep()
	return st
}

// termHolds evaluates a text()/val() comparison at arena node i from the
// precomputed value columns — xpath.EvalTermAt over the columnar layout.
func termHolds(at *arena.Tree, i int, term xpath.TermKind, op xpath.CmpOp, str string, num float64) bool {
	switch term {
	case xpath.TermText:
		return op.CompareStr(at.Value[i], str)
	case xpath.TermVal:
		return at.NumOK.Get(i) && op.CompareNum(at.NumVal[i], num)
	}
	return false
}

// mask computes the node mask of a compiled qualifier — EvalQExpr with
// bit-parallel AND/OR/NOT in place of formula constructors. Entries outside
// realElem may be garbage; callers read ground positions only.
func (e *VectorState) mask(q xpath.QExpr) arena.Bitset {
	m := arena.NewBitset(e.n)
	switch q := q.(type) {
	case xpath.QTrue:
		m.Fill(e.n)
	case *xpath.QTerm:
		e.realElem.ForEachSet(func(i int) {
			if termHolds(e.at, i, q.Term, q.Op, q.Str, q.Num) {
				m.Set(i)
			}
		})
	case *xpath.QAnchor:
		if q.Axis == xpath.AxisChild {
			m.CopyFrom(e.qcvM[q.Pred])
		} else {
			m.CopyFrom(e.sdvM[q.Pred])
		}
	case *xpath.QNot:
		m.SetNot(e.mask(q.X), e.n)
	case *xpath.QAnd:
		m.Fill(e.n)
		for _, x := range q.Xs {
			m.SetAnd(m, e.mask(x))
		}
	case *xpath.QOr:
		for _, x := range q.Xs {
			m.SetOr(m, e.mask(x))
		}
	default:
		//paxlint:allow nopanic(unreachable: the compiler produces only the QExpr kinds handled above)
		panic("parbox: unknown QExpr")
	}
	return m
}

// sweep computes every predicate mask from scratch — the mask-building
// half of the vectorized pass.
func (e *VectorState) sweep() {
	at, n := e.at, e.n
	nP := len(e.c.Preds)
	e.realElem = arena.NewBitset(n)
	e.qvM = make([]arena.Bitset, nP)
	e.qcvM = make([]arena.Bitset, nP)
	e.sdvM = make([]arena.Bitset, nP)
	// Virtual nodes carry the reserved "#fragment" label, which no query
	// label can collide with, but a wildcard test would match them — the
	// base mask therefore starts from real elements only.
	e.realElem.SetAndNot(at.Elements(), e.av.VirtualMask)

	// Predicate masks in ascending order: the compiler appends a
	// continuation (and any anchored predicate) before the predicate that
	// references it, so every Pred mentions only smaller indices.
	rank := make([]int32, at.RankLen())
	for p := 0; p < nP; p++ {
		pr := &e.c.Preds[p]
		m := arena.NewBitset(n)
		if pr.Test.Wild {
			m.CopyFrom(e.realElem)
		} else {
			m.SetAnd(at.LabelMask(pr.Test.Label), e.realElem)
		}
		if pr.Term != xpath.TermNone {
			m.ForEachSet(func(i int) {
				if !termHolds(at, i, pr.Term, pr.Op, pr.Str, pr.Num) {
					m.Clear(i)
				}
			})
		}
		if pr.Qual != nil {
			m.SetAnd(m, e.mask(pr.Qual))
		}
		if pr.HasNext() {
			if pr.NextAxis == xpath.AxisChild {
				m.SetAnd(m, e.qcvM[pr.Next])
			} else {
				m.SetAnd(m, e.sdvM[pr.Next])
			}
		}
		e.qvM[p] = m
		// The structural joins: QCV by scattering to parents, strict QDV by
		// an interval scan over the subtree ranges.
		e.qcvM[p] = arena.NewBitset(n)
		at.ParentScatter(m, e.qcvM[p])
		e.sdvM[p] = arena.NewBitset(n)
		at.StrictDescendants(m, rank, e.sdvM[p])
	}
}

// FragQual materializes the Stage-1 result from the state's masks: ground
// SelQual rows straight from the masks, spine rows and root vectors from
// the literal scalar recurrence.
func (e *VectorState) FragQual() *FragQual {
	f, c, vs := e.f, e.c, e.vs
	av, n := e.av, e.n
	nP := len(c.Preds)
	nSel := len(c.Sel)
	qvM := e.qvM

	out := &FragQual{}
	needSel := c.HasQualifiers()
	if needSel {
		out.SelQual = make(map[xmltree.NodeID][]*boolexpr.Formula, f.Size())
	}
	// The Work ledger is value-independent: the scalar pass charges nP per
	// virtual node and nP+len(Sel) per real element, whatever the data.
	nVirt := f.NumVirtuals()
	out.Work = int64(nVirt)*int64(nP) + int64(e.realElem.OnesCount())*int64(nP+nSel)

	// Ground SelQual rows for every non-spine real element, straight from
	// the selection-entry qualifier masks. The scalar pass produces exactly
	// Const singletons at these nodes (total constant folding), so the rows
	// are pointer-identical to its output.
	if needSel {
		selMasks := make([]arena.Bitset, nSel)
		for i := range c.Sel {
			se := &c.Sel[i]
			if se.Kind == xpath.SelStep && se.Qual != nil {
				selMasks[i] = e.mask(se.Qual)
			}
		}
		ground := arena.NewBitset(n)
		ground.SetAndNot(e.realElem, av.SpineMask)
		ground.ForEachSet(func(i int) {
			sq := make([]*boolexpr.Formula, nSel)
			for s, sm := range selMasks {
				if sm != nil {
					sq[s] = boolexpr.Const(sm.Get(i))
				}
			}
			out.SelQual[xmltree.NodeID(i)] = sq
		})
	}

	// Spine recomputation: the literal scalar recurrence, with Const
	// singletons substituted for ground children and fresh variable rows
	// for virtual children — the same constructor calls the scalar pass
	// makes, hence structurally identical formulas.
	alg := FormulaAlg{}
	groundRow := func(id xmltree.NodeID) (qv, qdv []*boolexpr.Formula) {
		qv = make([]*boolexpr.Formula, nP)
		qdv = make([]*boolexpr.Formula, nP)
		for p := 0; p < nP; p++ {
			qb := qvM[p].Get(int(id))
			qv[p] = boolexpr.Const(qb)
			qdv[p] = boolexpr.Const(qb || e.sdvM[p].Get(int(id)))
		}
		return qv, qdv
	}
	var spineWalk func(nd *xmltree.Node) (qv, qdv []*boolexpr.Formula)
	spineWalk = func(nd *xmltree.Node) ([]*boolexpr.Formula, []*boolexpr.Formula) {
		qcvRow := make([]*boolexpr.Formula, nP)
		sdvRow := make([]*boolexpr.Formula, nP)
		for p := 0; p < nP; p++ {
			qcvRow[p] = boolexpr.False()
			sdvRow[p] = boolexpr.False()
		}
		for _, ch := range nd.Children {
			if ch.Kind != xmltree.Element {
				continue
			}
			var cqv, cqdv []*boolexpr.Formula
			if k, ok := f.VirtualAt(ch.ID); ok {
				cqv = make([]*boolexpr.Formula, nP)
				cqdv = make([]*boolexpr.Formula, nP)
				for p := 0; p < nP; p++ {
					cqv[p] = boolexpr.V(vs.QV(k, p))
					cqdv[p] = boolexpr.V(vs.QDV(k, p))
				}
			} else if av.SpineMask.Get(int(ch.ID)) {
				cqv, cqdv = spineWalk(ch)
			} else {
				cqv, cqdv = groundRow(ch.ID)
			}
			for p := 0; p < nP; p++ {
				qcvRow[p] = boolexpr.Or(qcvRow[p], cqv[p])
				sdvRow[p] = boolexpr.Or(sdvRow[p], cqdv[p])
			}
		}
		qcvAt := func(p int) *boolexpr.Formula { return qcvRow[p] }
		sdvAt := func(p int) *boolexpr.Formula { return sdvRow[p] }
		row := xpath.NodePredRow[*boolexpr.Formula](alg, c, nd, qcvAt, sdvAt, nil)
		if needSel {
			sq := make([]*boolexpr.Formula, nSel)
			for i := range c.Sel {
				se := &c.Sel[i]
				if se.Kind == xpath.SelStep && se.Qual != nil {
					sq[i] = xpath.EvalQExpr[*boolexpr.Formula](alg, se.Qual, nd, qcvAt, sdvAt)
				}
			}
			out.SelQual[nd.ID] = sq
		}
		qdvRow := make([]*boolexpr.Formula, nP)
		for p := 0; p < nP; p++ {
			qdvRow[p] = boolexpr.Or(row[p], sdvRow[p])
		}
		return row, qdvRow
	}

	root := f.Tree.Root
	if av.SpineMask.Get(int(root.ID)) {
		qv, qdv := spineWalk(root)
		out.Root = RootVecs{QV: qv, QDV: qdv}
	} else {
		// No virtual below the root (the root cannot itself be virtual:
		// virtuals only stand in for sub-fragments inside a parent
		// fragment's tree) — the whole fragment is ground.
		qv, qdv := groundRow(root.ID)
		out.Root = RootVecs{QV: qv, QDV: qdv}
	}
	return out
}
