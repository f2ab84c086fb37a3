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

// zInit builds the symbolic stack-initialization vector of fragment id
// with b: one z variable per selection entry (Example 3.4).
func zInit(b *boolexpr.Builder, vs parbox.VarScheme, id fragment.FragID, c *xpath.Compiled) []*boolexpr.Formula {
	out := make([]*boolexpr.Formula, len(c.Sel))
	for i := range out {
		out[i] = b.V(vs.SV(id, i))
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
// parent's vector (the summarizing stack top), built with b. qualAt yields
// the qualifier value of selection entry e at node n — ground formulas in
// PaX3's Stage 2, formulas over sub-fragment variables in PaX2. Virtual
// nodes contribute their parent's vector as the context of the
// corresponding sub-fragment and are not descended into.
//
// Vectors live in a depth-indexed row stack grown once per fragment visit:
// every node at depth d writes its vector into rows[d], which its children
// read as their parent vector before the next node at depth d overwrites
// it. A context recorded at a virtual child outlives the row, so it is the
// one vector that is copied.
func evalSelection(
	b *boolexpr.Builder,
	f *fragment.Fragment,
	c *xpath.Compiled,
	init []*boolexpr.Formula,
	shipXML bool,
	qualAt func(n *xmltree.Node, entry int) *boolexpr.Formula,
) *selOutcome {
	out := &selOutcome{}
	last := c.AnswerEntry()
	var rows [][]*boolexpr.Formula
	var walk func(n *xmltree.Node, depth int, parent []*boolexpr.Formula)
	walk = func(n *xmltree.Node, depth int, parent []*boolexpr.Formula) {
		if depth == len(rows) {
			rows = append(rows, make([]*boolexpr.Formula, len(c.Sel)))
		}
		sv := xpath.NodeSelVector[*boolexpr.Formula](b, c, n.Label, parent,
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
// PaX2's single visit also produces.
type combinedOutcome struct {
	*selOutcome
	roots parbox.RootVecs
}

// evalCombined runs PaX2's single visit (Procedure evalXPath, §4) over one
// fragment: the Stage-1 mask pass, then the selection traversal reading
// each qualifier value from it, both built with b, which init must share.
// A qualifier value that depends on a sub-fragment stays symbolic in that
// sub-fragment's QV/QDV variables, so every shipped vector mentions only
// cross-fragment variables, preserving the O(|Q|·|FT|) communication
// bound.
func evalCombined(
	b *boolexpr.Builder,
	f *fragment.Fragment,
	c *xpath.Compiled,
	vs parbox.VarScheme,
	init []*boolexpr.Formula,
	shipXML bool,
) *combinedOutcome {
	fq := parbox.NewVectorState(f, c, vs).FragQual(b)
	qualAt := func(n *xmltree.Node, entry int) *boolexpr.Formula { return fq.QualAt(n.ID, entry) }
	return &combinedOutcome{selOutcome: evalSelection(b, f, c, init, shipXML, qualAt), roots: fq.Root}
}
