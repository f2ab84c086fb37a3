// Vectorized Stage-1 qualifier pass over the columnar arena layout.
//
// The scalar recurrence (EvalQualFragment, kept in scalar_test.go as the
// oracle of the identity tests) walks *xmltree.Node pointers bottom-up and
// builds residual formulas at every node. But boolexpr's smart
// constructors constant-fold totally: wherever no virtual node lies below,
// every intermediate formula collapses to the shared True/False singleton —
// the formulas are booleans in disguise. The vectorized pass exploits this:
// it computes the QV/QCV/QDV bits of every predicate as bit-packed masks
// with word-at-a-time sweeps and two structural joins (a parent scatter and
// a reverse-preorder fold), and falls back to the literal scalar
// recurrence only on the spine (the proper ancestors of virtual nodes),
// folding Const singletons read from the masks for ground children.
// The spine recomputation walks the arena's child links and reads each
// element through xpath.Elem, so it makes exactly the Builder calls the
// scalar pass makes over the pointer tree, in the same order; the
// resulting FragQual — root vectors, QualAt at every real element, Work
// ledger — is byte-identical on the wire to the scalar pass, which the
// differential harness and the identity tests in vector_test.go enforce.
// The Builder hash-conses as it builds, so the spine formulas are
// canonical by construction and ship as built.
//
// The result is the masks plus spine rows. Off the spine every
// selection-entry qualifier is a constant, so FragQual keeps the entries'
// qualifier masks instead of a formula row per element, and builds rows
// only for spine nodes: the pass allocates per predicate, per spine node
// and per virtual node, never per node.
//
// Mask entries at spine and virtual positions are garbage (the masks cannot
// represent "unknown"), but they are never read: a non-spine node has no
// spine or virtual node in its subtree — if it had one it would be spine
// itself — so every mask read that feeds a ground output pulls only from
// non-spine positions, spine outputs come from the symbolic recomputation
// alone, and QualAt consults the spine rows before the masks.

package parbox

import (
	"paxq/internal/arena"
	"paxq/internal/boolexpr"
	"paxq/internal/fragment"
	"paxq/internal/xmltree"
	"paxq/internal/xpath"
)

// VectorState is the bit-packed state of one vectorized qualifier pass
// over a fragment: the per-predicate QV/QCV/SDV masks plus the
// real-element base mask, pinned to the fragment they were computed
// against. NewVectorState builds it and FragQual materializes the Stage-1
// result from it; nothing keeps the state after that.
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

// NewVectorState runs the mask-building half of the vectorized qualifier
// pass; call FragQual for the Stage-1 result.
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
// bit-parallel AND/OR/NOT in place of formula constructors — into a fresh
// bitset. Entries outside realElem may be garbage; callers read ground
// positions only.
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
		m.CopyFrom(e.anchor(q))
	case *xpath.QNot:
		m.SetNot(e.operand(q.X), e.n)
	case *xpath.QAnd:
		m.Fill(e.n)
		for _, x := range q.Xs {
			m.SetAnd(m, e.operand(x))
		}
	case *xpath.QOr:
		for _, x := range q.Xs {
			m.SetOr(m, e.operand(x))
		}
	default:
		//paxlint:allow nopanic(unreachable: the compiler produces only the QExpr kinds handled above)
		panic("parbox: unknown QExpr")
	}
	return m
}

// anchor returns the mask an anchored qualifier reads: the QCV or strict
// QDV mask of its predicate, which the caller must not modify.
func (e *VectorState) anchor(q *xpath.QAnchor) arena.Bitset {
	if q.Axis == xpath.AxisChild {
		return e.qcvM[q.Pred]
	}
	return e.sdvM[q.Pred]
}

// operand is q's mask as a read-only operand: an anchor's mask itself, so
// combining it costs no copy, or a fresh mask for any other qualifier.
func (e *VectorState) operand(q xpath.QExpr) arena.Bitset {
	if a, ok := q.(*xpath.QAnchor); ok {
		return e.anchor(a)
	}
	return e.mask(q)
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

	w := len(e.realElem) // words per mask
	// Predicate masks in ascending order: the compiler appends a
	// continuation (and any anchored predicate) before the predicate that
	// references it, so every Pred mentions only smaller indices.
	for p := 0; p < nP; p++ {
		pr := &e.c.Preds[p]
		// One allocation per predicate, carved into its QV, QCV and
		// strict-QDV masks.
		buf := make(arena.Bitset, 3*w)
		m := buf[:w:w]
		e.qcvM[p] = buf[w : 2*w : 2*w]
		e.sdvM[p] = buf[2*w:]
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
			m.SetAnd(m, e.operand(pr.Qual))
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
		// a reverse-preorder fold up the parent column.
		at.ParentScatter(m, e.qcvM[p])
		at.StrictDescendants(m, e.sdvM[p])
	}
}

// FragQual materializes the Stage-1 result from the state's masks: the
// selection-entry qualifier masks are kept as they are, and only the spine
// gets formula rows and root vectors, from the literal scalar recurrence
// built with b. The result does not keep b.
func (e *VectorState) FragQual(b *boolexpr.Builder) *FragQual {
	f, c, vs := e.f, e.c, e.vs
	av := e.av
	nP := len(c.Preds)
	nSel := len(c.Sel)
	qvM, sdvM := e.qvM, e.sdvM

	out := &FragQual{}
	needSel := c.HasQualifiers()
	// The Work ledger is value-independent: the scalar pass charges nP per
	// virtual node and nP+len(Sel) per real element, whatever the data.
	nVirt := f.NumVirtuals()
	out.Work = int64(nVirt)*int64(nP) + int64(e.realElem.OnesCount())*int64(nP+nSel)

	// Off the spine the scalar pass produces exactly Const singletons for
	// every selection-entry qualifier (total constant folding), so the
	// entry's mask is its whole answer there; QualAt returns the same
	// singletons the scalar rows held.
	if needSel {
		out.selMasks = make([]arena.Bitset, nSel)
		for i := range c.Sel {
			se := &c.Sel[i]
			if se.Kind == xpath.SelStep && se.Qual != nil {
				out.selMasks[i] = e.mask(se.Qual)
			}
		}
		out.rows = make(map[xmltree.NodeID][]*boolexpr.Formula, av.SpineMask.OnesCount())
	}

	// Spine recomputation: the literal scalar recurrence, folding Const
	// singletons from the masks for ground children and the variables of
	// virtual children — the same Builder calls the scalar pass makes,
	// hence identical formulas, canonical as they are built.
	// ground returns predicate p's QV and QDV at non-spine node i: the
	// Const singletons of its mask bits.
	ground := func(p, i int) (qv, qdv *boolexpr.Formula) {
		qb := qvM[p].Get(i)
		return boolexpr.Const(qb), boolexpr.Const(qb || sdvM[p].Get(i))
	}
	at := e.at
	var spineWalk func(nd int) (qv, qdv []*boolexpr.Formula)
	spineWalk = func(nd int) ([]*boolexpr.Formula, []*boolexpr.Formula) {
		qcvRow := make([]*boolexpr.Formula, nP)
		sdvRow := make([]*boolexpr.Formula, nP)
		for p := 0; p < nP; p++ {
			qcvRow[p] = boolexpr.False()
			sdvRow[p] = boolexpr.False()
		}
		for ch := at.FirstChild[nd]; ch >= 0; ch = at.NextSibling[ch] {
			i := int(ch)
			if at.LabelID[i] < 0 {
				continue
			}
			if k, ok := f.VirtualAt(xmltree.NodeID(i)); ok {
				for p := 0; p < nP; p++ {
					qcvRow[p] = b.Or(qcvRow[p], b.V(vs.QV(k, p)))
					sdvRow[p] = b.Or(sdvRow[p], b.V(vs.QDV(k, p)))
				}
			} else if av.SpineMask.Get(i) {
				cqv, cqdv := spineWalk(i)
				for p := 0; p < nP; p++ {
					qcvRow[p] = b.Or(qcvRow[p], cqv[p])
					sdvRow[p] = b.Or(sdvRow[p], cqdv[p])
				}
			} else {
				for p := 0; p < nP; p++ {
					gqv, gqdv := ground(p, i)
					qcvRow[p] = b.Or(qcvRow[p], gqv)
					sdvRow[p] = b.Or(sdvRow[p], gqdv)
				}
			}
		}
		qcvAt := func(p int) *boolexpr.Formula { return qcvRow[p] }
		sdvAt := func(p int) *boolexpr.Formula { return sdvRow[p] }
		el := arena.Elem{T: at, I: nd}
		row := xpath.NodePredRow[*boolexpr.Formula](b, c, el, qcvAt, sdvAt, nil)
		if needSel {
			sq := make([]*boolexpr.Formula, nSel)
			for i := range c.Sel {
				se := &c.Sel[i]
				if se.Kind == xpath.SelStep && se.Qual != nil {
					sq[i] = xpath.EvalQExpr[*boolexpr.Formula](b, se.Qual, el, qcvAt, sdvAt)
				}
			}
			out.rows[xmltree.NodeID(nd)] = sq
		}
		qdvRow := make([]*boolexpr.Formula, nP)
		for p := 0; p < nP; p++ {
			qdvRow[p] = b.Or(row[p], sdvRow[p])
		}
		return row, qdvRow
	}

	// The root cannot itself be virtual: virtuals only stand in for
	// sub-fragments inside a parent fragment's tree.
	const root = int(fragment.RootNode)
	if av.SpineMask.Get(root) {
		qv, qdv := spineWalk(root)
		out.Root = RootVecs{QV: qv, QDV: qdv}
		return out
	}
	// No virtual below the root: the whole fragment is ground, and its
	// root rows come straight from the masks.
	qv := make([]*boolexpr.Formula, nP)
	qdv := make([]*boolexpr.Formula, nP)
	for p := 0; p < nP; p++ {
		qv[p], qdv[p] = ground(p, root)
	}
	out.Root = RootVecs{QV: qv, QDV: qdv}
	return out
}
