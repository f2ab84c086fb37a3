// Incremental maintenance of the vectorized Stage-1 state under fragment
// edits.
//
// An edit replaces the preorder interval [At, At+OldLen) with
// [At, At+NewLen) and leaves every other subtree untouched. The retained
// masks of a VectorState are therefore almost entirely reusable: a
// surviving node's QV bit depends only on its own label/values and its
// descendants, so it can change only for nodes whose subtree gained or
// lost edited nodes — the ancestors of the splice point — while everything
// else merely renumbers. Patch splices every mask through the edit's
// renumbering (arena.SpliceBits, the same kernel the arena columns use)
// and recomputes just the dirty rows: the inserted interval plus a small
// superset of the splice point's ancestor chain, per predicate in
// ascending order (a predicate reads only smaller-indexed predicates, so
// one pass suffices). The patched masks agree with a fresh sweep at every
// ground position — spine positions carry garbage in both, and are never
// read (see vector.go) — so the FragQual rebuilt from them is
// byte-identical to a fresh evaluation, which patch_test.go enforces row
// by row against both the fresh vector pass and the scalar pass.
package parbox

import (
	"paxq/internal/arena"
	"paxq/internal/fragment"
	"paxq/internal/xpath"
)

// Patch advances the state from the fragment it was computed against to
// nf, which must be the result of applying exactly one edit (described by
// delta) to that fragment. Masks are spliced through the renumbering and
// only the dirty rows are recomputed; call FragQual afterwards for the
// updated Stage-1 result.
func (e *VectorState) Patch(nf *fragment.Fragment, delta fragment.EditDelta) {
	oldN := e.n
	av := nf.Arena()
	e.f, e.at, e.av = nf, av.Tree, av
	e.n = e.at.Len()
	at, oldLen, newLen := int(delta.At), delta.OldLen, delta.NewLen
	if delta.Shift() != 0 || oldLen > 0 {
		e.realElem = arena.SpliceBits(e.realElem, at, oldLen, newLen, oldN)
		for p := range e.qvM {
			e.qvM[p] = arena.SpliceBits(e.qvM[p], at, oldLen, newLen, oldN)
			e.qcvM[p] = arena.SpliceBits(e.qcvM[p], at, oldLen, newLen, oldN)
			e.sdvM[p] = arena.SpliceBits(e.sdvM[p], at, oldLen, newLen, oldN)
		}
	}
	rows := e.dirtyRows(at, newLen)
	for _, i := range rows {
		if e.at.Elements().Get(i) && !e.av.VirtualMask.Get(i) {
			e.realElem.Set(i)
		} else {
			e.realElem.Clear(i)
		}
	}
	e.recomputeRows(rows)
}

// dirtyRows returns (a small superset of) the rows whose mask entries an
// edit at [at, at+newLen) can change, ascending: every node of the
// inserted interval, plus every surviving predecessor whose subtree
// reaches the splice point — the ancestor chain, over-approximated by the
// interval test SubtreeEnd >= at, which may add a few right-edge nodes
// ending exactly at the splice point. Over-approximation is harmless:
// recomputing a clean row reproduces its value.
func (e *VectorState) dirtyRows(at, newLen int) []int {
	rows := make([]int, 0, newLen+8)
	for j := 0; j < at && j < e.n; j++ {
		if int(e.at.SubtreeEnd[j]) >= at {
			rows = append(rows, j)
		}
	}
	for j := at; j < at+newLen; j++ {
		rows = append(rows, j)
	}
	return rows
}

// recomputeRows re-derives the QV/QCV/SDV entries of the given rows from
// the arena and the surrounding (already correct) mask entries. One
// ascending predicate pass suffices: a predicate's qualifier and
// continuation reference only smaller-indexed predicates, and within one
// predicate QCV/SDV at a row read QV at other rows, which the first
// sub-pass has already fixed.
func (e *VectorState) recomputeRows(rows []int) {
	for p := range e.c.Preds {
		pr := &e.c.Preds[p]
		for _, i := range rows {
			if e.qvAt(pr, i) {
				e.qvM[p].Set(i)
			} else {
				e.qvM[p].Clear(i)
			}
		}
		for _, i := range rows {
			if e.childAny(e.qvM[p], i) {
				e.qcvM[p].Set(i)
			} else {
				e.qcvM[p].Clear(i)
			}
		}
		for _, i := range rows {
			if e.qvM[p].AnyInRange(i+1, int(e.at.SubtreeEnd[i])) {
				e.sdvM[p].Set(i)
			} else {
				e.sdvM[p].Clear(i)
			}
		}
	}
}

// qvAt is the scalar (single-row) form of the sweep's per-predicate mask
// construction.
func (e *VectorState) qvAt(pr *xpath.Pred, i int) bool {
	if !e.realElem.Get(i) {
		return false
	}
	if !pr.Test.Wild && e.at.LabelOf(i) != pr.Test.Label {
		return false
	}
	if pr.Term != xpath.TermNone && !termHolds(e.at, i, pr.Term, pr.Op, pr.Str, pr.Num) {
		return false
	}
	if pr.Qual != nil && !e.maskAt(pr.Qual, i) {
		return false
	}
	if pr.HasNext() {
		if pr.NextAxis == xpath.AxisChild {
			return e.qcvM[pr.Next].Get(i)
		}
		return e.sdvM[pr.Next].Get(i)
	}
	return true
}

// childAny reports whether m holds any child of node i. Non-element
// children never appear in a QV mask, so no kind filter is needed.
func (e *VectorState) childAny(m arena.Bitset, i int) bool {
	for c := e.at.FirstChild[i]; c >= 0; c = e.at.NextSibling[c] {
		if m.Get(int(c)) {
			return true
		}
	}
	return false
}

// maskAt is the scalar (single-row) form of mask: every QExpr node reads
// only row i, so the pointwise evaluation agrees with the bit-parallel one
// at every real element row.
func (e *VectorState) maskAt(q xpath.QExpr, i int) bool {
	switch q := q.(type) {
	case xpath.QTrue:
		return true
	case *xpath.QTerm:
		return termHolds(e.at, i, q.Term, q.Op, q.Str, q.Num)
	case *xpath.QAnchor:
		if q.Axis == xpath.AxisChild {
			return e.qcvM[q.Pred].Get(i)
		}
		return e.sdvM[q.Pred].Get(i)
	case *xpath.QNot:
		return !e.maskAt(q.X, i)
	case *xpath.QAnd:
		for _, x := range q.Xs {
			if !e.maskAt(x, i) {
				return false
			}
		}
		return true
	case *xpath.QOr:
		for _, x := range q.Xs {
			if e.maskAt(x, i) {
				return true
			}
		}
		return false
	default:
		//paxlint:allow nopanic(unreachable: the compiler produces only the QExpr kinds handled above)
		panic("parbox: unknown QExpr")
	}
}
