package centeval

import (
	"paxq/internal/xmltree"
	"paxq/internal/xpath"
)

// EvalVectorNoSummary is the ablation of the paper's stack-summarization
// trick (§3.2): instead of keeping the invariant that the vector at the
// top of the traversal stack summarizes all ancestors ("each time the
// vector at the top of the stack summarizes the information for all
// vectors in the stack"), descendant-carry entries are recomputed at every
// node by scanning the entire ancestor stack. Results are identical;
// per-node work grows from O(|Q|) to O(depth·|Q|). BenchmarkAblation* in
// the package benchmarks quantifies the difference the paper's design
// choice makes.
func EvalVectorNoSummary(t *xmltree.Tree, c *xpath.Compiled) []xmltree.NodeID {
	var alg xpath.BoolAlg
	nPred := len(c.Preds)

	var qualVals map[xmltree.NodeID][]bool
	if c.HasQualifiers() || nPred > 0 {
		qualVals = make(map[xmltree.NodeID][]bool, t.Size())
		var walk func(n *xmltree.Node) (qv, sdv []bool)
		walk = func(n *xmltree.Node) ([]bool, []bool) {
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

	var ans []xmltree.NodeID
	last := c.AnswerEntry()
	// stack holds the *raw* per-node vectors of every ancestor, without
	// the summarization invariant: a raw vector's carry entry reflects
	// only that node, so the carry must be re-derived by scanning.
	var stack [][]bool
	var down func(n *xmltree.Node)
	down = func(n *xmltree.Node) {
		sv := make([]bool, len(c.Sel))
		for i := range c.Sel {
			e := &c.Sel[i]
			switch e.Kind {
			case xpath.SelRoot:
				sv[i] = false
			case xpath.SelDesc:
				// Ablated: scan the entire ancestor stack for any raw
				// prefix hit, instead of consulting the summarized parent.
				carry := sv[i-1]
				for _, anc := range stack {
					if anc[i-1] || anc[i] {
						carry = true
					}
				}
				sv[i] = carry
			case xpath.SelStep:
				if !e.Test.Matches(n.Label) {
					sv[i] = false
					continue
				}
				v := stack[len(stack)-1][i-1]
				if e.Qual != nil {
					v = v && qualVals[n.ID][i]
				}
				sv[i] = v
			}
		}
		if sv[last] {
			ans = append(ans, n.ID)
		}
		stack = append(stack, sv)
		for _, ch := range n.Children {
			if ch.Kind == xmltree.Element {
				down(ch)
			}
		}
		stack = stack[:len(stack)-1]
	}
	// Document vector at the bottom of the stack.
	stack = append(stack, xpath.DocSelVector[bool](alg, c))
	down(t.Root)
	return ans
}
