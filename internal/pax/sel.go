package pax

import (
	"slices"

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
//
// Vectors live in a depth-indexed row stack grown once per fragment visit:
// every node at depth d writes its vector into rows[d], which its children
// read as their parent vector before the next node at depth d overwrites
// it. A context recorded at a virtual child outlives the row, so it is the
// one vector that is copied.
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
	var rows [][]*boolexpr.Formula
	var walk func(n *xmltree.Node, depth int, parent []*boolexpr.Formula)
	walk = func(n *xmltree.Node, depth int, parent []*boolexpr.Formula) {
		if depth == len(rows) {
			rows = append(rows, make([]*boolexpr.Formula, len(c.Sel)))
		}
		sv := xpath.NodeSelVector[*boolexpr.Formula](alg, c, n.Label, parent,
			func(e int) *boolexpr.Formula { return qualAt(n, e) }, rows[depth])
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
				out.contexts = append(out.contexts, fragContext{frag: k, sv: slices.Clone(sv)})
				continue
			}
			walk(ch, depth+1, sv)
		}
	}
	walk(f.Tree.Root, 0, init)
	return out
}

// combinedOutcome extends selOutcome with the qualifier root vectors that
// PaX2's single traversal also produces.
type combinedOutcome struct {
	selOutcome
	roots parbox.RootVecs
}

// combinedLevel holds the rows of one depth of evalCombined's traversal,
// reused by every node at that depth: the selection vector, the QCV and
// strict-QDV aggregates of the node's children, its QV row and QDV row,
// and the qualifier placeholder of each selection entry (NoVar when none).
type combinedLevel struct {
	sv, qcv, sdv, row, qdv []*boolexpr.Formula
	qz                     []boolexpr.Var
}

// evalCombined runs PaX2's single traversal (Procedure evalXPath, §4) over
// one fragment. The pre-order half computes selection vectors, introducing
// one fresh local variable per (node, qualified entry) whose value is not
// yet known; the post-order half computes the qualifier rows bottom-up and
// binds each placeholder (Example 4.2). After the traversal every local
// placeholder is eliminated by resolution, so shipped vectors mention only
// cross-fragment variables, preserving the O(|Q|·|FT|) communication bound.
//
// Rows come from a depth-indexed stack of combinedLevels grown once per
// fragment visit. A node's QV and QDV rows are folded into its parent's
// aggregates before the next sibling overwrites them; the rows that outlive
// their level — contexts recorded at virtual children and the root
// vectors — are copied.
func evalCombined(
	f *fragment.Fragment,
	c *xpath.Compiled,
	vs parbox.VarScheme,
	init []*boolexpr.Formula,
	shipXML bool,
) *combinedOutcome {
	alg := parbox.FormulaAlg{}
	nP := len(c.Preds)
	nSel := len(c.Sel)
	last := c.AnswerEntry()
	alloc := boolexpr.NewAllocatorFrom(vs.LocalBase())
	localEnv := boolexpr.NewEnv()
	out := &combinedOutcome{}

	type pending struct {
		n  *xmltree.Node
		sv *boolexpr.Formula
	}
	var pendings []pending
	var levels []*combinedLevel

	var walk func(n *xmltree.Node, depth int, parent []*boolexpr.Formula) *combinedLevel
	walk = func(n *xmltree.Node, depth int, parent []*boolexpr.Formula) *combinedLevel {
		if depth == len(levels) {
			levels = append(levels, &combinedLevel{
				sv:  make([]*boolexpr.Formula, nSel),
				qcv: make([]*boolexpr.Formula, nP),
				sdv: make([]*boolexpr.Formula, nP),
				row: make([]*boolexpr.Formula, nP),
				qdv: make([]*boolexpr.Formula, nP),
				qz:  make([]boolexpr.Var, nSel),
			})
		}
		lv := levels[depth]
		// Pre-order: selection vector with qualifier placeholders.
		clear(lv.qz)
		sv := xpath.NodeSelVector[*boolexpr.Formula](alg, c, n.Label, parent,
			func(e int) *boolexpr.Formula {
				z := alloc.FreshV()
				lv.qz[e] = z.Variable()
				return z
			}, lv.sv)
		if !sv[last].IsFalse() {
			pendings = append(pendings, pending{n: n, sv: sv[last]})
		}

		// Children: recurse, aggregating qualifier rows; virtual children
		// contribute their variables and record contexts.
		for p := 0; p < nP; p++ {
			lv.qcv[p] = boolexpr.False()
			lv.sdv[p] = boolexpr.False()
		}
		for _, ch := range n.Children {
			if ch.Kind != xmltree.Element {
				continue
			}
			if k, ok := f.VirtualAt(ch.ID); ok {
				out.contexts = append(out.contexts, fragContext{frag: k, sv: slices.Clone(sv)})
				for p := 0; p < nP; p++ {
					lv.qcv[p] = boolexpr.Or(lv.qcv[p], boolexpr.V(vs.QV(k, p)))
					lv.sdv[p] = boolexpr.Or(lv.sdv[p], boolexpr.V(vs.QDV(k, p)))
				}
				continue
			}
			cl := walk(ch, depth+1, sv)
			for p := 0; p < nP; p++ {
				lv.qcv[p] = boolexpr.Or(lv.qcv[p], cl.row[p])
				lv.sdv[p] = boolexpr.Or(lv.sdv[p], cl.qdv[p])
			}
		}

		// Post-order: qualifier row, then bind this node's placeholders.
		qcvAt := func(p int) *boolexpr.Formula { return lv.qcv[p] }
		sdvAt := func(p int) *boolexpr.Formula { return lv.sdv[p] }
		row := xpath.NodePredRow[*boolexpr.Formula](alg, c, n, qcvAt, sdvAt, lv.row)
		for e, v := range lv.qz {
			if v != boolexpr.NoVar {
				// Placeholders are allocator-fresh per node: a conflict here
				// is impossible by construction, not a data condition.
				localEnv.MustBind(v, xpath.EvalQExpr[*boolexpr.Formula](alg, c.Sel[e].Qual, n, qcvAt, sdvAt))
			}
		}
		for p := 0; p < nP; p++ {
			lv.qdv[p] = boolexpr.Or(row[p], lv.sdv[p])
		}
		return lv
	}
	root := walk(f.Tree.Root, 0, init)
	out.roots = parbox.RootVecs{QV: slices.Clone(root.row), QDV: slices.Clone(root.qdv)}

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
	for _, ctx := range out.contexts {
		for i, fm := range ctx.sv {
			ctx.sv[i] = localEnv.Resolve(fm)
		}
	}
	return out
}
