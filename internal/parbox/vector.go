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
// an ancestor closure, each costing the bits it reads and sets), and falls
// back to the literal scalar recurrence only on the spine (the proper
// ancestors of virtual nodes),
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
// only for spine nodes. Every other mask — the base mask, each predicate's
// QV/QCV/QDV triple and every operand temporary — is carved from one slab
// sized up front from the query, taken from a pool for the visit and
// returned when Qualify ends: the pass allocates per qualified selection
// entry, per spine node and per virtual node, never per node.
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

// vectorState is the bit-packed state of one vectorized qualifier pass
// over a fragment: the per-predicate QV/QCV/SDV masks plus the
// real-element base mask, pinned to the fragment they were computed
// against. All of them live in the visit's pooled slab, so nothing may
// keep the state once Qualify returns.
type vectorState struct {
	f  *fragment.Fragment
	c  *xpath.Compiled
	vs VarScheme

	at       *arena.Tree
	av       *fragment.ArenaView
	n        int
	slab     []uint64     // the slab's words not yet carved into masks
	realElem arena.Bitset // element nodes that are not virtual
	qvM      []arena.Bitset
	qcvM     []arena.Bitset
	sdvM     []arena.Bitset
}

// Qualify runs the vectorized Stage-1 qualifier pass of c over fragment f:
// the masks are swept into a pooled slab, and the result keeps only the
// selection-entry qualifier masks, allocated on their own, plus the spine's
// formula rows and root vectors built with b. The result does not keep b,
// and the slab goes back to the pool before Qualify returns.
func Qualify(f *fragment.Fragment, c *xpath.Compiled, vs VarScheme, b *boolexpr.Builder) *FragQual {
	av := f.Arena()
	e := &vectorState{f: f, c: c, vs: vs, at: av.Tree, av: av, n: av.Tree.Len()}
	bp := arena.TakeSlab(slabMasks(c) * len(av.VirtualMask))
	e.slab = (*bp)[:cap(*bp)]
	e.sweep()
	fq := e.fragQual(b)
	arena.PutSlab(bp)
	return fq
}

// slabMasks counts the masks a pass of c carves from its slab: the base
// mask, each predicate's QV/QCV/QDV triple and the operand temporaries of
// every compound qualifier. A selection entry's own qualifier mask is kept
// by the result and is not carved; its operands are.
func slabMasks(c *xpath.Compiled) int {
	masks := 1 + 3*len(c.Preds)
	for p := range c.Preds {
		if q := c.Preds[p].Qual; q != nil {
			masks += operandMasks(q)
		}
	}
	for i := range c.Sel {
		if se := &c.Sel[i]; se.Kind == xpath.SelStep && se.Qual != nil {
			masks += max(operandMasks(se.Qual)-1, 0)
		}
	}
	return masks
}

// operandMasks counts the masks operand(q) carves: none for an anchor,
// which is read in place, else q's own mask and its operands'.
func operandMasks(q xpath.QExpr) int {
	n := 1
	switch q := q.(type) {
	case *xpath.QAnchor:
		return 0
	case *xpath.QNot:
		n += operandMasks(q.X)
	case *xpath.QAnd:
		for _, x := range q.Xs {
			n += operandMasks(x)
		}
	case *xpath.QOr:
		for _, x := range q.Xs {
			n += operandMasks(x)
		}
	}
	return n
}

// take carves the next mask from the visit's slab. Its contents are
// whatever an earlier visit left there.
func (e *vectorState) take() arena.Bitset {
	w := len(e.av.VirtualMask)
	m := e.slab[:w:w]
	e.slab = e.slab[w:]
	return m
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

// maskInto computes the node mask of a compiled qualifier — EvalQExpr
// with bit-parallel AND/OR/NOT in place of formula constructors — into m,
// overwriting whatever m held, and returns m. Entries outside realElem may
// be garbage; callers read ground positions only.
func (e *vectorState) maskInto(q xpath.QExpr, m arena.Bitset) arena.Bitset {
	switch q := q.(type) {
	case xpath.QTrue:
		m.Fill(e.n)
	case *xpath.QTerm:
		m.Zero()
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
		m.Zero()
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
func (e *vectorState) anchor(q *xpath.QAnchor) arena.Bitset {
	if q.Axis == xpath.AxisChild {
		return e.qcvM[q.Pred]
	}
	return e.sdvM[q.Pred]
}

// operand is q's mask as a read-only operand: an anchor's mask itself, so
// combining it costs no copy, or a mask carved from the slab for any other
// qualifier.
func (e *vectorState) operand(q xpath.QExpr) arena.Bitset {
	if a, ok := q.(*xpath.QAnchor); ok {
		return e.anchor(a)
	}
	return e.maskInto(q, e.take())
}

// sweep computes every predicate mask from scratch — the mask-building
// half of the vectorized pass.
func (e *vectorState) sweep() {
	at := e.at
	nP := len(e.c.Preds)
	e.realElem = e.take()
	tables := make([]arena.Bitset, 3*nP)
	e.qvM, e.qcvM, e.sdvM = tables[:nP:nP], tables[nP:2*nP:2*nP], tables[2*nP:]
	// Virtual nodes carry the reserved "#fragment" label, which no query
	// label can collide with, but a wildcard test would match them — the
	// base mask therefore starts from real elements only.
	e.realElem.SetAndNot(at.Elements(), e.av.VirtualMask)

	// Predicate masks in ascending order: the compiler appends a
	// continuation (and any anchored predicate) before the predicate that
	// references it, so every Pred mentions only smaller indices.
	for p := 0; p < nP; p++ {
		pr := &e.c.Preds[p]
		m, qcv, sdv := e.take(), e.take(), e.take()
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
		e.qvM[p], e.qcvM[p], e.sdvM[p] = m, qcv, sdv
		// The structural joins: QCV by scattering to parents, strict QDV by
		// the ancestor closure of the set bits; both cost |m| + their output,
		// not the node count.
		at.ParentScatter(m, qcv)
		at.StrictDescendants(m, sdv)
	}
}

// fragQual materializes the Stage-1 result from the state's masks: the
// selection-entry qualifier masks are computed into masks of their own,
// which the result keeps, and only the spine gets formula rows and root
// vectors, from the literal scalar recurrence built with b. The result
// reads no slab mask.
func (e *vectorState) fragQual(b *boolexpr.Builder) *FragQual {
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
				out.selMasks[i] = e.maskInto(se.Qual, arena.NewBitset(e.n))
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
	// The walk's temporaries come from one buffer per visit, a level per
	// depth: a node's QCV/SDV accumulators and its QV/QDV rows, which its
	// parent folds in right after the node returns, before a sibling
	// reuses the level. Only the root uses level 0, so the root vectors
	// the result keeps are that level's rows. The row readers are created
	// once and read the accumulators of the node being finished.
	type spineLevel struct{ qcv, sdv, qv, qdv []*boolexpr.Formula }
	var levels []spineLevel
	var qcvCur, sdvCur []*boolexpr.Formula
	qcvAt := func(p int) *boolexpr.Formula { return qcvCur[p] }
	sdvAt := func(p int) *boolexpr.Formula { return sdvCur[p] }
	var spineWalk func(nd, depth int) (qv, qdv []*boolexpr.Formula)
	spineWalk = func(nd, depth int) ([]*boolexpr.Formula, []*boolexpr.Formula) {
		if depth == len(levels) {
			buf := make([]*boolexpr.Formula, 4*nP)
			levels = append(levels, spineLevel{buf[:nP:nP], buf[nP : 2*nP : 2*nP], buf[2*nP : 3*nP : 3*nP], buf[3*nP:]})
		}
		lv := levels[depth]
		qcvRow, sdvRow := lv.qcv, lv.sdv
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
				cqv, cqdv := spineWalk(i, depth+1)
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
		qcvCur, sdvCur = qcvRow, sdvRow
		el := arena.Elem{T: at, I: nd}
		row := xpath.NodePredRow[*boolexpr.Formula](b, c, el, qcvAt, sdvAt, lv.qv)
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
		qdvRow := lv.qdv
		for p := 0; p < nP; p++ {
			qdvRow[p] = b.Or(row[p], sdvRow[p])
		}
		return row, qdvRow
	}

	// The root cannot itself be virtual: virtuals only stand in for
	// sub-fragments inside a parent fragment's tree.
	const root = int(fragment.RootNode)
	if av.SpineMask.Get(root) {
		qv, qdv := spineWalk(root, 0)
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
