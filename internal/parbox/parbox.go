// Package parbox implements the qualifier-evaluation machinery of the
// paper: the extended ParBoX algorithm of §3.1. Each fragment is traversed
// once, bottom-up, computing for every node and every qualifier sub-query
// (predicate) the vectors the paper calls QV, QCV and QDV — as residual
// Boolean formulas over variables standing for the unknown vectors of
// virtual nodes. The coordinator unifies those variables bottom-up over the
// fragment tree (Procedure evalFT), grounding every formula.
//
// The package also exposes ParBoX itself — evaluation of Boolean XPath
// queries over a fragmented tree — which the paper's Stage 1 generalizes.
// Extensions over the VLDB'06 original, as described in §3.1: arithmetic
// comparisons (val()) and multiple top-level qualifiers.
//
// One representational economy relative to the paper: the triplet shipped
// per fragment root is (QV, QDV) only. QCV is derivable locally (a parent
// aggregates its children's QV directly) and never needs to cross a
// fragment boundary, so shipping it would only inflate the O(|Q|·|FT|)
// communication term by a constant factor.
package parbox

import (
	"fmt"
	"sync"

	"paxq/internal/boolexpr"
	"paxq/internal/fragment"
	"paxq/internal/xmltree"
	"paxq/internal/xpath"
)

// FormulaAlg instantiates the evaluation recurrences over residual Boolean
// formulas: partial evaluation, where unknown inputs are variables.
type FormulaAlg struct{}

// True returns the true formula.
func (FormulaAlg) True() *boolexpr.Formula { return boolexpr.True() }

// False returns the false formula.
func (FormulaAlg) False() *boolexpr.Formula { return boolexpr.False() }

// FromBool lifts a constant.
func (FormulaAlg) FromBool(b bool) *boolexpr.Formula { return boolexpr.Const(b) }

// Not negates.
func (FormulaAlg) Not(f *boolexpr.Formula) *boolexpr.Formula { return boolexpr.Not(f) }

// And conjoins.
func (FormulaAlg) And(a, b *boolexpr.Formula) *boolexpr.Formula { return boolexpr.And(a, b) }

// Or disjoins.
func (FormulaAlg) Or(a, b *boolexpr.Formula) *boolexpr.Formula { return boolexpr.Or(a, b) }

// VarScheme deterministically names the Boolean variables a fragment
// introduces for its virtual nodes, so that sites allocate variables
// independently without coordination and the coordinator can decode them.
// Fragment k owns a contiguous block: one QV and one QDV variable per
// qualifier predicate (the unknown vector entries of the virtual node
// standing for k) and one SV variable per selection entry (the unknown
// ancestor summary seeding k's traversal stack).
type VarScheme struct {
	NumPreds int
	NumSel   int
	NumFrags int
}

// NewVarScheme derives the scheme for a compiled query over a
// fragmentation with numFrags fragments.
func NewVarScheme(c *xpath.Compiled, numFrags int) VarScheme {
	return VarScheme{NumPreds: len(c.Preds), NumSel: len(c.Sel), NumFrags: numFrags}
}

func (s VarScheme) stride() int { return 2*s.NumPreds + s.NumSel }

// QV returns the variable for entry pred of the QV vector of fragment k's
// root.
func (s VarScheme) QV(k fragment.FragID, pred int) boolexpr.Var {
	return boolexpr.Var(1 + int(k)*s.stride() + pred)
}

// QDV returns the variable for entry pred of the QDV vector of fragment
// k's root.
func (s VarScheme) QDV(k fragment.FragID, pred int) boolexpr.Var {
	return boolexpr.Var(1 + int(k)*s.stride() + s.NumPreds + pred)
}

// SV returns the variable for entry i of the stack-initialization vector of
// fragment k (the z variables of Example 3.4).
func (s VarScheme) SV(k fragment.FragID, entry int) boolexpr.Var {
	return boolexpr.Var(1 + int(k)*s.stride() + 2*s.NumPreds + entry)
}

// LocalBase returns the first variable beyond every fragment block; local
// (never shipped) variables, such as PaX2's lazily-bound qualifier
// placeholders, are allocated from here up.
func (s VarScheme) LocalBase() boolexpr.Var {
	return boolexpr.Var(1 + s.NumFrags*s.stride())
}

// RootVecs is the partial answer a fragment reports after its bottom-up
// qualifier pass: the QV and QDV rows of its root, as residual formulas
// over the variables of its own virtual nodes.
type RootVecs struct {
	QV  []*boolexpr.Formula
	QDV []*boolexpr.Formula
}

// FragQual is the in-memory state a site keeps for one fragment between
// the qualifier pass and the later stages.
type FragQual struct {
	Root RootVecs
	// SelQual maps each real element node to the value of the qualifier of
	// every selection entry at that node (nil formula for entries without a
	// qualifier). Nil map when the query has no qualifiers.
	SelQual map[xmltree.NodeID][]*boolexpr.Formula
	// Work counts node×entry operations, the unit of the paper's
	// computation-cost analysis.
	Work int64
}

// EvalQualFragment runs the bottom-up qualifier pass (extended ParBoX) over
// one fragment, node by node. It is the reference recurrence: sites run the
// bit-packed pass (NewVectorState + FragQual), which vector_test.go holds
// byte-identical to this one.
func EvalQualFragment(f *fragment.Fragment, c *xpath.Compiled, vs VarScheme) *FragQual {
	alg := FormulaAlg{}
	nP := len(c.Preds)
	out := &FragQual{}
	needSel := c.HasQualifiers()
	if needSel {
		out.SelQual = make(map[xmltree.NodeID][]*boolexpr.Formula, f.Size())
	}

	// walk returns the QV and QDV rows of n.
	var walk func(n *xmltree.Node) (qv, qdv []*boolexpr.Formula)
	walk = func(n *xmltree.Node) ([]*boolexpr.Formula, []*boolexpr.Formula) {
		if k, ok := f.VirtualAt(n.ID); ok {
			qv := make([]*boolexpr.Formula, nP)
			qdv := make([]*boolexpr.Formula, nP)
			for p := 0; p < nP; p++ {
				qv[p] = boolexpr.V(vs.QV(k, p))
				qdv[p] = boolexpr.V(vs.QDV(k, p))
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
				qcvRow[p] = boolexpr.Or(qcvRow[p], cqv[p])
				sdvRow[p] = boolexpr.Or(sdvRow[p], cqdv[p])
			}
		}
		qcvAt := func(p int) *boolexpr.Formula { return qcvRow[p] }
		sdvAt := func(p int) *boolexpr.Formula { return sdvRow[p] }
		row := xpath.NodePredRow[*boolexpr.Formula](alg, c, n, qcvAt, sdvAt, nil)
		if needSel {
			sq := make([]*boolexpr.Formula, len(c.Sel))
			for i := range c.Sel {
				e := &c.Sel[i]
				if e.Kind == xpath.SelStep && e.Qual != nil {
					sq[i] = xpath.EvalQExpr[*boolexpr.Formula](alg, e.Qual, n, qcvAt, sdvAt)
				}
			}
			out.SelQual[n.ID] = sq
		}
		qdvRow := make([]*boolexpr.Formula, nP)
		for p := 0; p < nP; p++ {
			qdvRow[p] = boolexpr.Or(row[p], sdvRow[p])
		}
		out.Work += int64(nP + len(c.Sel))
		return row, qdvRow
	}
	qv, qdv := walk(f.Tree.Root)
	out.Root = RootVecs{QV: qv, QDV: qdv}
	return out
}

// ResolveQualVars performs the bottom-up half of Procedure evalFT: given
// the root vectors reported by every fragment, it binds each fragment's QV
// and QDV variables to ground truth values. Fragments are processed in
// decreasing ID order; since a parent fragment always has a smaller ID than
// its sub-fragments, a fragment's formulas are ground by the time it is
// processed. The returned environment grounds every QV/QDV variable.
func ResolveQualVars(roots map[fragment.FragID]RootVecs, vs VarScheme) (*boolexpr.Env, error) {
	env := boolexpr.NewEnv()
	for id := fragment.FragID(vs.NumFrags - 1); id >= 0; id-- {
		rv, ok := roots[id]
		if !ok {
			return nil, fmt.Errorf("parbox: missing root vectors for fragment %d", id)
		}
		if len(rv.QV) != vs.NumPreds || len(rv.QDV) != vs.NumPreds {
			return nil, fmt.Errorf("parbox: fragment %d reported %d/%d entries, want %d",
				id, len(rv.QV), len(rv.QDV), vs.NumPreds)
		}
		for p := 0; p < vs.NumPreds; p++ {
			qv := env.Resolve(rv.QV[p])
			qdv := env.Resolve(rv.QDV[p])
			if qv.HasVars() || qdv.HasVars() {
				return nil, fmt.Errorf("parbox: fragment %d entry %d not ground after unification", id, p)
			}
			if err := env.Bind(vs.QV(id, p), qv); err != nil {
				return nil, fmt.Errorf("parbox: unifying fragment %d entry %d: %w", id, p, err)
			}
			if err := env.Bind(vs.QDV(id, p), qdv); err != nil {
				return nil, fmt.Errorf("parbox: unifying fragment %d entry %d: %w", id, p, err)
			}
		}
	}
	return env, nil
}

// EvalBoolean is ParBoX proper: it evaluates a Boolean query (typically a
// bare "[q]") over a fragmented tree, traversing every fragment once, in
// parallel, and unifying the partial answers. The result is the truth of
// the query at the root of the original tree.
func EvalBoolean(ft *fragment.Fragmentation, c *xpath.Compiled) (bool, error) {
	if len(c.Sel) != 2 || c.Sel[1].Kind != xpath.SelStep || !c.Sel[1].Test.Wild {
		return false, fmt.Errorf("parbox: %q is not a Boolean query; use a bare qualifier like %q", c.Source, "[//a/b = 'x']")
	}
	vs := NewVarScheme(c, ft.Len())
	quals := make([]*FragQual, ft.Len())
	var wg sync.WaitGroup
	for i, f := range ft.Frags {
		wg.Add(1)
		go func(i int, f *fragment.Fragment) {
			defer wg.Done()
			quals[i] = EvalQualFragment(f, c, vs)
		}(i, f)
	}
	wg.Wait()
	roots := make(map[fragment.FragID]RootVecs, ft.Len())
	for i, q := range quals {
		roots[fragment.FragID(i)] = q.Root
	}
	env, err := ResolveQualVars(roots, vs)
	if err != nil {
		return false, err
	}
	// The Boolean answer is the qualifier of the synthesized root step
	// (selection entry 1) at the root of the root fragment.
	rootFrag := ft.Root()
	if !c.HasQualifiers() {
		// A qualifier-free Boolean query (e.g. "[.]") is vacuously true at
		// the root.
		return true, nil
	}
	sq := quals[0].SelQual[rootFrag.Tree.Root.ID]
	f := sq[1]
	if f == nil {
		return true, nil
	}
	return env.MustResolveConst(f), nil
}
