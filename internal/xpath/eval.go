package xpath

// Algebra abstracts the value domain of vector evaluation. Centralized
// evaluation instantiates it with plain booleans; the distributed
// algorithms instantiate it with residual Boolean formulas (boolexpr), so
// the very same recurrences implement both full and partial evaluation —
// the essence of the partial-evaluation technique. The connectives are
// binary: every recurrence combines exactly two values, and a variadic
// signature would heap-allocate its operand slice on every call through
// the interface.
type Algebra[V any] interface {
	True() V
	False() V
	FromBool(bool) V
	Not(V) V
	And(a, b V) V
	Or(a, b V) V
}

// BoolAlg is the concrete Boolean algebra used by centralized evaluation.
type BoolAlg struct{}

// True returns true.
func (BoolAlg) True() bool { return true }

// False returns false.
func (BoolAlg) False() bool { return false }

// FromBool is the identity.
func (BoolAlg) FromBool(b bool) bool { return b }

// Not negates.
func (BoolAlg) Not(v bool) bool { return !v }

// And conjoins.
func (BoolAlg) And(a, b bool) bool { return a && b }

// Or disjoins.
func (BoolAlg) Or(a, b bool) bool { return a || b }

// DocSelVector returns the SVect vector of the virtual document node: the
// vector pushed at the bottom of the traversal stack when the traversal
// starts at the true root of the whole tree (root fragment). The ε entry is
// true; descendant carries immediately after true prefixes are true.
func DocSelVector[V any](alg Algebra[V], c *Compiled) []V {
	sv := make([]V, len(c.Sel))
	for i, e := range c.Sel {
		switch e.Kind {
		case SelRoot:
			sv[i] = alg.True()
		case SelDesc:
			sv[i] = sv[i-1]
		case SelStep:
			sv[i] = alg.False()
		}
	}
	return sv
}

// NodeSelVector computes the SVect vector of an element node labelled
// label, given the vector of its parent (the summarizing top of the
// traversal stack) and a function yielding the qualifier value of selection
// entry i at this node. This is the recurrence of Procedure topDown
// (Fig. 4(b)): a child step holds iff the previous prefix held at the
// parent and the node passes the test and qualifier; a descendant carry
// holds iff it held at the parent or the previous prefix holds here.
//
// It has three callers: the site's selection sweep (pax's selVisit.sweep),
// the centralized vector evaluator (centeval), which the distributed
// answers are checked against, and the §5 relevance analysis (pax's
// prune.go).
//
// The vector is written into dst, which is grown when shorter than c.Sel
// and returned. The caller owns dst: traversals pass the row of the
// current depth from a stack they reuse for every node at that depth, so
// a row that must outlive its level (a context recorded for a
// sub-fragment, say) has to be copied. Passing nil allocates a fresh row.
// dst must not alias parent.
func NodeSelVector[V any](alg Algebra[V], c *Compiled, label string, parent []V, qualAt func(entry int) V, dst []V) []V {
	sv := growRow(dst, len(c.Sel))
	for i := range c.Sel {
		e := &c.Sel[i]
		switch e.Kind {
		case SelRoot:
			sv[i] = alg.False()
		case SelDesc:
			sv[i] = alg.Or(parent[i], sv[i-1])
		case SelStep:
			if !e.Test.Matches(label) {
				sv[i] = alg.False()
				continue
			}
			v := parent[i-1]
			if e.Qual != nil {
				v = alg.And(v, qualAt(i))
			}
			sv[i] = v
		}
	}
	return sv
}

// NodePredRow computes the QVect row of element node n: for every
// predicate p, whether a match of the suffix p starts at n. qcv(p) must
// yield "some child of n starts a match of p" and sdv(p) "some strict
// descendant of n starts a match of p" — the QCV and (strict) QDV values
// the caller accumulates bottom-up from the children's rows.
//
// As with NodeSelVector, the row is written into the caller-owned dst
// (grown when short, nil allocates) and returned; a row that outlives the
// caller's reuse of dst must be copied.
func NodePredRow[V any, E Elem](alg Algebra[V], c *Compiled, n E, qcv, sdv func(pred int) V, dst []V) []V {
	row := growRow(dst, len(c.Preds))
	for i := range c.Preds {
		p := &c.Preds[i]
		if !matchesElem(p, n) {
			row[i] = alg.False()
			continue
		}
		v := alg.True()
		if p.Qual != nil {
			v = alg.And(v, EvalQExpr(alg, p.Qual, n, qcv, sdv))
		}
		if p.HasNext() {
			if p.NextAxis == AxisChild {
				v = alg.And(v, qcv(p.Next))
			} else {
				v = alg.And(v, sdv(p.Next))
			}
		}
		row[i] = v
	}
	return row
}

// growRow returns dst resliced to n entries, allocating only when dst is
// too short.
func growRow[V any](dst []V, n int) []V {
	if cap(dst) < n {
		return make([]V, n)
	}
	return dst[:n]
}

// EvalQExpr evaluates a compiled qualifier at element node n in the given
// algebra, with qcv/sdv supplying the child/strict-descendant existence
// values for anchor predicates.
func EvalQExpr[V any, E Elem](alg Algebra[V], q QExpr, n E, qcv, sdv func(pred int) V) V {
	switch q := q.(type) {
	case QTrue:
		return alg.True()
	case *QTerm:
		return alg.FromBool(EvalTermAt(n, q.Term, q.Op, q.Str, q.Num))
	case *QAnchor:
		if q.Axis == AxisChild {
			return qcv(q.Pred)
		}
		return sdv(q.Pred)
	case *QNot:
		return alg.Not(EvalQExpr(alg, q.X, n, qcv, sdv))
	case *QAnd:
		out := alg.True()
		for _, x := range q.Xs {
			out = alg.And(out, EvalQExpr(alg, x, n, qcv, sdv))
		}
		return out
	case *QOr:
		out := alg.False()
		for _, x := range q.Xs {
			out = alg.Or(out, EvalQExpr(alg, x, n, qcv, sdv))
		}
		return out
	}
	//paxlint:allow nopanic(unreachable: the compiler produces only the QExpr kinds handled above)
	panic("xpath: unknown QExpr")
}
