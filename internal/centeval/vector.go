package centeval

import (
	"paxq/internal/xmltree"
	"paxq/internal/xpath"
)

// EvalVector evaluates the compiled query c over t with the two-pass vector
// algorithm in O(|T|·|Q|) and returns the IDs of answer nodes in document
// order. Pass 1 walks the tree bottom-up computing, for every element node,
// the qualifier predicate row (QV) together with the child (QCV) and strict
// descendant (SDV) existence aggregates, from which the qualifier value of
// each selection step at that node is derived. Pass 2 walks top-down
// computing the selection vector (SV) from the parent's vector; a node is
// an answer iff the last entry holds.
func EvalVector(t *xmltree.Tree, c *xpath.Compiled) []xmltree.NodeID {
	var alg xpath.BoolAlg
	nPred := len(c.Preds)

	// qualVals[nodeID] holds the per-selection-entry qualifier values for
	// entries that carry a qualifier; nil when the query has none.
	var qualVals map[xmltree.NodeID][]bool
	if c.HasQualifiers() || nPred > 0 {
		qualVals = make(map[xmltree.NodeID][]bool, t.Size())
		// Bottom-up pass: compute rows; retain only what pass 2 needs.
		var walk func(n *xmltree.Node) (qv, sdv []bool)
		walk = func(n *xmltree.Node) (qv, sdv []bool) {
			qcvRow := make([]bool, nPred)
			sdvRow := make([]bool, nPred)
			for _, ch := range n.Children {
				if ch.Kind != xmltree.Element {
					continue
				}
				cqv, csdv := walk(ch)
				for p := 0; p < nPred; p++ {
					qcvRow[p] = qcvRow[p] || cqv[p]
					sdvRow[p] = sdvRow[p] || cqv[p] || csdv[p]
				}
			}
			qcvAt := func(p int) bool { return qcvRow[p] }
			sdvAt := func(p int) bool { return sdvRow[p] }
			row := xpath.NodePredRow[bool](alg, c, n, qcvAt, sdvAt, nil)
			// Qualifier values for selection entries at this node.
			qvals := make([]bool, len(c.Sel))
			for i := range c.Sel {
				e := &c.Sel[i]
				if e.Kind == xpath.SelStep && e.Qual != nil {
					qvals[i] = xpath.EvalQExpr[bool](alg, e.Qual, n, qcvAt, sdvAt)
				}
			}
			qualVals[n.ID] = qvals
			return row, sdvRow
		}
		walk(t.Root)
	}

	// Top-down pass.
	var ans []xmltree.NodeID
	last := c.AnswerEntry()
	var down func(n *xmltree.Node, parent []bool)
	down = func(n *xmltree.Node, parent []bool) {
		qualAt := func(entry int) bool {
			if qualVals == nil {
				return true
			}
			return qualVals[n.ID][entry]
		}
		sv := xpath.NodeSelVector[bool](alg, c, n.Label, parent, qualAt, nil)
		if sv[last] {
			ans = append(ans, n.ID)
		}
		for _, ch := range n.Children {
			if ch.Kind == xmltree.Element {
				down(ch, sv)
			}
		}
	}
	down(t.Root, xpath.DocSelVector[bool](alg, c))
	return ans // preorder recursion yields document order already
}

// EvalVectorNodes is EvalVector returning the nodes themselves.
func EvalVectorNodes(t *xmltree.Tree, c *xpath.Compiled) []*xmltree.Node {
	ids := EvalVector(t, c)
	out := make([]*xmltree.Node, len(ids))
	for i, id := range ids {
		out[i] = t.Node(id)
	}
	return out
}

// EvalBool evaluates a Boolean query (typically a bare "[q]") over t:
// true iff the answer set is non-empty.
func EvalBool(t *xmltree.Tree, c *xpath.Compiled) bool {
	return len(EvalVector(t, c)) > 0
}
