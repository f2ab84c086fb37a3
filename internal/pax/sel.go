package pax

import (
	"paxq/internal/boolexpr"
	"paxq/internal/fragment"
	"paxq/internal/parbox"
	"paxq/internal/xmltree"
	"paxq/internal/xpath"
)

// candidate is a node whose membership in the answer is still a residual
// formula over cross-fragment variables.
type candidate struct {
	node xmltree.NodeID
	f    *boolexpr.Formula
}

// selOutcome is the result of one fragment's top-down selection traversal.
type selOutcome struct {
	contexts   []fragContext
	answers    []AnswerNode
	candidates []candidate
}

type fragContext struct {
	frag fragment.FragID
	sv   []*boolexpr.Formula
}

// zInit builds the symbolic stack-initialization vector of fragment id: one
// fresh z variable per selection entry (Example 3.4).
func zInit(vs parbox.VarScheme, id fragment.FragID, c *xpath.Compiled) []*boolexpr.Formula {
	out := make([]*boolexpr.Formula, len(c.Sel))
	for i := range out {
		out[i] = boolexpr.V(vs.SV(id, i))
	}
	return out
}

// constInit lifts a ground vector into formulas.
func constInit(vals []bool) []*boolexpr.Formula {
	out := make([]*boolexpr.Formula, len(vals))
	for i, b := range vals {
		out[i] = boolexpr.Const(b)
	}
	return out
}

// answerOf materializes an answer node for shipping.
func answerOf(f *fragment.Fragment, n *xmltree.Node, shipXML bool) AnswerNode {
	a := AnswerNode{Frag: f.ID, Node: n.ID, Label: n.Label, Value: n.Value()}
	if shipXML {
		a.XML = xmltree.SerializeString(n)
	}
	return a
}

// evalSelection runs Procedure topDown (Fig. 4(b)) over one fragment:
// a top-down traversal computing the SVect vector of every node from its
// parent's vector (the summarizing stack top). qualAt yields the qualifier
// value of selection entry e at node n — ground formulas in PaX3's Stage 2,
// placeholders in PaX2. Virtual nodes contribute their parent's vector as
// the context of the corresponding sub-fragment and are not descended into.
func evalSelection(
	f *fragment.Fragment,
	c *xpath.Compiled,
	init []*boolexpr.Formula,
	shipXML bool,
	qualAt func(n *xmltree.Node, entry int) *boolexpr.Formula,
) *selOutcome {
	alg := parbox.FormulaAlg{}
	out := &selOutcome{}
	last := c.AnswerEntry()
	var walk func(n *xmltree.Node, parent []*boolexpr.Formula)
	walk = func(n *xmltree.Node, parent []*boolexpr.Formula) {
		sv := xpath.NodeSelVector[*boolexpr.Formula](alg, c, n.Label, parent,
			func(e int) *boolexpr.Formula { return qualAt(n, e) })
		switch {
		case sv[last].IsTrue():
			out.answers = append(out.answers, answerOf(f, n, shipXML))
		case !sv[last].IsFalse():
			out.candidates = append(out.candidates, candidate{node: n.ID, f: sv[last]})
		}
		for _, ch := range n.Children {
			if ch.Kind != xmltree.Element {
				continue
			}
			if k, ok := f.VirtualAt(ch.ID); ok {
				// The sub-fragment's stack must summarize the ancestors of
				// its root, i.e. this node's vector.
				out.contexts = append(out.contexts, fragContext{frag: k, sv: sv})
				continue
			}
			walk(ch, sv)
		}
	}
	walk(f.Tree.Root, init)
	return out
}

// combinedOutcome extends selOutcome with the qualifier root vectors that
// PaX2's single traversal also produces.
type combinedOutcome struct {
	selOutcome
	roots parbox.RootVecs
}

// evalCombined runs PaX2's single traversal (Procedure evalXPath, §4) over
// one fragment. The pre-order half computes selection vectors, introducing
// one fresh local variable per (node, qualified entry) whose value is not
// yet known; the post-order half computes the qualifier rows bottom-up and
// binds each placeholder (Example 4.2). After the traversal every local
// placeholder is eliminated by resolution, so shipped vectors mention only
// cross-fragment variables, preserving the O(|Q|·|FT|) communication bound.
func evalCombined(
	f *fragment.Fragment,
	c *xpath.Compiled,
	vs parbox.VarScheme,
	init []*boolexpr.Formula,
	shipXML bool,
) *combinedOutcome {
	alg := parbox.FormulaAlg{}
	nP := len(c.Preds)
	last := c.AnswerEntry()
	alloc := boolexpr.NewAllocatorFrom(vs.LocalBase())
	localEnv := boolexpr.NewEnv()
	out := &combinedOutcome{}

	type pending struct {
		n  *xmltree.Node
		sv *boolexpr.Formula
	}
	var pendings []pending
	var rawContexts []fragContext

	var walk func(n *xmltree.Node, parent []*boolexpr.Formula) (qv, qdv []*boolexpr.Formula)
	walk = func(n *xmltree.Node, parent []*boolexpr.Formula) ([]*boolexpr.Formula, []*boolexpr.Formula) {
		// Pre-order: selection vector with qualifier placeholders.
		var qzVars map[int]boolexpr.Var
		sv := xpath.NodeSelVector[*boolexpr.Formula](alg, c, n.Label, parent,
			func(e int) *boolexpr.Formula {
				if qzVars == nil {
					qzVars = make(map[int]boolexpr.Var, 2)
				}
				v := alloc.Fresh()
				qzVars[e] = v
				return boolexpr.V(v)
			})
		if !sv[last].IsFalse() {
			pendings = append(pendings, pending{n: n, sv: sv[last]})
		}

		// Children: recurse, aggregating qualifier rows; virtual children
		// contribute their variables and record contexts.
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
			if k, ok := f.VirtualAt(ch.ID); ok {
				rawContexts = append(rawContexts, fragContext{frag: k, sv: sv})
				for p := 0; p < nP; p++ {
					qcvRow[p] = boolexpr.Or(qcvRow[p], boolexpr.V(vs.QV(k, p)))
					sdvRow[p] = boolexpr.Or(sdvRow[p], boolexpr.V(vs.QDV(k, p)))
				}
				continue
			}
			cqv, cqdv := walk(ch, sv)
			for p := 0; p < nP; p++ {
				qcvRow[p] = boolexpr.Or(qcvRow[p], cqv[p])
				sdvRow[p] = boolexpr.Or(sdvRow[p], cqdv[p])
			}
		}

		// Post-order: qualifier row, then bind this node's placeholders.
		qcvAt := func(p int) *boolexpr.Formula { return qcvRow[p] }
		sdvAt := func(p int) *boolexpr.Formula { return sdvRow[p] }
		row := xpath.NodePredRow[*boolexpr.Formula](alg, c, n, qcvAt, sdvAt)
		for e, v := range qzVars {
			// Placeholders are allocator-fresh per node: a conflict here is
			// impossible by construction, not a data condition.
			localEnv.MustBind(v, xpath.EvalQExpr[*boolexpr.Formula](alg, c.Sel[e].Qual, n, qcvAt, sdvAt))
		}
		qdvRow := make([]*boolexpr.Formula, nP)
		for p := 0; p < nP; p++ {
			qdvRow[p] = boolexpr.Or(row[p], sdvRow[p])
		}
		return row, qdvRow
	}
	qv, qdv := walk(f.Tree.Root, init)
	out.roots = parbox.RootVecs{QV: qv, QDV: qdv}

	// Eliminate local placeholders: after the full traversal every
	// placeholder is bound, so resolution leaves only cross-fragment
	// variables (z's and sub-fragment QV/QDV's).
	for _, p := range pendings {
		r := localEnv.Resolve(p.sv)
		switch {
		case r.IsTrue():
			out.answers = append(out.answers, answerOf(f, p.n, shipXML))
		case !r.IsFalse():
			out.candidates = append(out.candidates, candidate{node: p.n.ID, f: r})
		}
	}
	for _, ctx := range rawContexts {
		resolved := make([]*boolexpr.Formula, len(ctx.sv))
		for i, fm := range ctx.sv {
			resolved[i] = localEnv.Resolve(fm)
		}
		out.contexts = append(out.contexts, fragContext{frag: ctx.frag, sv: resolved})
	}
	return out
}
