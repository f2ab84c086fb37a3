package pax

import (
	"slices"

	"paxq/internal/arena"
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
// Under ShipXML, below lists the sub-fragments whose virtual nodes lie in
// the subtree of an answer or a candidate, in pre-order: the stubs in the
// answers' XML that the coordinator fills with the sub-fragments' bodies.
// visited counts the vectors the traversal computed; only tests read it.
type selOutcome struct {
	contexts   []fragContext
	answers    []AnswerNode
	candidates []candidate
	below      []fragment.FragID
	visited    int
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

// answerOf materializes answer node id of f for shipping, reading its
// label and value from the arena columns and (with shipXML) its subtree's
// XML as a slice of the fragment's cached file form, virtual nodes as
// stubs.
func answerOf(f *fragment.Fragment, id xmltree.NodeID, shipXML bool) AnswerNode {
	at := f.Arena().Tree
	a := AnswerNode{Frag: f.ID, Node: id, Label: at.LabelOf(int(id)), Value: at.Value[id]}
	if shipXML {
		a.XML = f.SubtreeXML(id)
	}
	return a
}

// evalSelection runs Procedure topDown (Fig. 4(b)) over one fragment: it
// computes the SVect vector of every node from its parent's vector (the
// summarizing stack top), built with b. qualAt yields the qualifier value
// of selection entry e at node id — ground formulas in PaX3's Stage 2,
// formulas over sub-fragment variables in PaX2. A virtual node contributes
// its parent's vector as the context of the sub-fragment it stands for.
//
// The traversal is a pre-order sweep over the fragment's arena columns. It
// keeps a depth-indexed row stack and the stack of the open ancestors'
// SubtreeEnds: a node at depth d writes its vector into row d, which its
// descendants read until the sweep passes the node's SubtreeEnd. A context
// outlives its row, so it is the one vector that is copied.
//
// Two rules jump over the subtree of node i to SubtreeEnd[i], because no
// descendant can select anything there:
//   - (a) i's vector is all False: then so is every descendant's;
//   - (b) no step label of the query occurs in i's subtree, no step is a
//     wildcard and the answer entry is a step: then every descendant's
//     vector is i's "//" carry entries with every other entry False.
//
// The virtual nodes in a skipped range still report their contexts, in
// pre-order: i's vector for a child of i, and its projection onto the
// carry entries for a deeper one, which under (a) is all False too. Both
// reuse formulas i's vector holds and the False singleton, which the
// recurrence would have rebuilt from them by folding Or(x, False) to x and
// And(False, x) to False, so the outcome equals a full walk's.
func evalSelection(
	b *boolexpr.Builder,
	f *fragment.Fragment,
	c *xpath.Compiled,
	init []*boolexpr.Formula,
	shipXML bool,
	qualAt func(id xmltree.NodeID, entry int) *boolexpr.Formula,
) *selOutcome {
	av := f.Arena()
	at := av.Tree
	w := len(c.Sel)
	last := c.AnswerEntry()

	// Rule (b) reads the label mask of every step.
	var stepBuf [8]stepCursor
	steps := stepBuf[:0]
	narrow := c.Sel[last].Kind == xpath.SelStep
	for _, e := range c.Sel {
		if e.Kind != xpath.SelStep {
			continue
		}
		if e.Test.Wild {
			narrow = false
			break
		}
		steps = append(steps, stepCursor{mask: at.LabelMask(e.Test.Label), next: -1})
	}

	out := &selOutcome{}
	// The vector at depth d is rows[d*w : (d+1)*w]. Both stacks start in
	// arrays on the goroutine's stack, which hold a 16-entry query 6 levels
	// deep; a deeper sweep grows them onto the heap.
	var rowBuf [96]*boolexpr.Formula
	rows := rowBuf[:]
	var endBuf [16]int32
	ends := endBuf[:0]
	var node xmltree.NodeID
	qual := func(e int) *boolexpr.Formula { return qualAt(node, e) }
	stubbed := 0 // below covers the virtual nodes before this index
	for i, n := 0, at.Len(); i < n; {
		for len(ends) > 0 && int32(i) >= ends[len(ends)-1] {
			ends = ends[:len(ends)-1]
		}
		if at.LabelID[i] < 0 {
			i++ // text
			continue
		}
		d := len(ends)
		if (d+1)*w > len(rows) {
			rows = append(rows, make([]*boolexpr.Formula, len(rows))...)
		}
		parent := init
		if d > 0 {
			parent = rows[(d-1)*w : d*w]
		}
		if av.VirtualMask.Get(i) {
			out.addContext(f, i, parent)
			i++
			continue
		}
		node = xmltree.NodeID(i)
		sv := xpath.NodeSelVector[*boolexpr.Formula](b, c, at.LabelOf(i), parent, qual, rows[d*w:(d+1)*w])
		out.visited++
		end := int(at.SubtreeEnd[i])
		switch {
		case sv[last].IsTrue():
			out.answers = append(out.answers, answerOf(f, node, shipXML))
			stubbed = out.addBelow(f, shipXML, max(i+1, stubbed), end)
		case !sv[last].IsFalse():
			out.candidates = append(out.candidates, candidate{node: node, f: sv[last]})
			stubbed = out.addBelow(f, shipXML, max(i+1, stubbed), end)
		}
		if allFalse(sv) || narrow && !anyStepIn(steps, i+1, end) {
			out.skip(f, c, i, end, sv)
			i = end
			continue
		}
		ends = append(ends, int32(end))
		i++
	}
	return out
}

// addContext records vector sv as the context of the sub-fragment that
// virtual node v of f stands for: its stack must summarize the ancestors
// of its root. It returns the recorded copy.
func (o *selOutcome) addContext(f *fragment.Fragment, v int, sv []*boolexpr.Formula) []*boolexpr.Formula {
	k, _ := f.VirtualAt(xmltree.NodeID(v))
	ctx := slices.Clone(sv)
	o.contexts = append(o.contexts, fragContext{frag: k, sv: ctx})
	return ctx
}

// addBelow records, under shipXML, the sub-fragments of the virtual nodes
// in [lo, end), the part of an answer's or candidate's subtree that no
// earlier one covered: answers and candidates arrive in pre-order, so a
// nested one records nothing twice. It returns how far below now covers.
func (o *selOutcome) addBelow(f *fragment.Fragment, shipXML bool, lo, end int) int {
	if !shipXML {
		return 0
	}
	vm := f.Arena().VirtualMask
	for v := vm.NextSet(lo, end); v < end; v = vm.NextSet(v+1, end) {
		k, _ := f.VirtualAt(xmltree.NodeID(v))
		o.below = append(o.below, k)
	}
	return max(lo, end)
}

// skip records the contexts of the virtual nodes in (i, end), the subtree
// of node i that a skip rule jumps over: sv, i's vector, for a child of i,
// and for a deeper one sv's "//" carry entries with every other entry
// False.
func (o *selOutcome) skip(f *fragment.Fragment, c *xpath.Compiled, i, end int, sv []*boolexpr.Formula) {
	av := f.Arena()
	for v := av.VirtualMask.NextSet(i+1, end); v < end; v = av.VirtualMask.NextSet(v+1, end) {
		ctx := o.addContext(f, v, sv)
		if int(av.Tree.Parent[v]) == i {
			continue
		}
		for k := range ctx {
			if c.Sel[k].Kind != xpath.SelDesc {
				ctx[k] = boolexpr.False()
			}
		}
	}
}

// allFalse reports whether every entry of sv is False.
func allFalse(sv []*boolexpr.Formula) bool {
	for _, x := range sv {
		if !x.IsFalse() {
			return false
		}
	}
	return true
}

// stepCursor is one step's label mask with the least member at or after
// a position the sweep has passed, -1 before the first look.
type stepCursor struct {
	mask arena.Bitset
	next int
}

// anyStepIn reports whether some step's label occurs in [lo, hi). The
// sweep's lo never decreases, so each cursor only moves forward and one
// visit reads every mask word about once, however many nodes ask.
func anyStepIn(steps []stepCursor, lo, hi int) bool {
	for k := range steps {
		s := &steps[k]
		if s.next < lo {
			s.next = s.mask.NextSet(lo, len(s.mask)<<6)
		}
		if s.next < hi {
			return true
		}
	}
	return false
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
	fq := parbox.Qualify(f, c, vs, b)
	return &combinedOutcome{selOutcome: evalSelection(b, f, c, init, shipXML, fq.QualAt), roots: fq.Root}
}
