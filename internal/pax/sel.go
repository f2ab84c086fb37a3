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

// selOutcome is the result of one fragment's top-down selection traversal.
// answers is the slice the sweep appended the fragment's answers to, after
// the ones already there. Under ShipXML, below lists the sub-fragments
// whose virtual nodes lie in the subtree of an answer or a candidate, in
// pre-order: the stubs in the answers' XML that the coordinator fills with
// the sub-fragments' bodies. met counts the candidates the sweep met — the
// nodes whose membership in the answer is still a residual formula over
// cross-fragment variables — of which it keeps none. visited counts the
// vectors the traversal computed; only tests read it.
type selOutcome struct {
	contexts []fragContext
	answers  []AnswerNode
	met      int
	below    []fragment.FragID
	visited  int
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
	at := f.Tree
	a := AnswerNode{Frag: f.ID, Node: id, Label: at.LabelOf(int(id)), Value: at.Value(int(id))}
	if shipXML {
		a.XML = f.SubtreeXML(id)
	}
	return a
}

// selVisit is one fragment's run of Procedure topDown (Fig. 4(b)) between
// its walk set and its sweep: the sweep computes a node's SVect vector from
// its parent's (the summarizing stack top), built with b. Entry e's
// qualifier at node id is fq.QualAt(id, e), resolved under the sweep's env
// when it has one and left symbolic otherwise; fq may be nil for a query
// without qualifiers. A virtual node contributes its parent's vector as
// its sub-fragment's context. A site computes the walk sets of all the
// fragments of a request first, so it can size the response's answers
// from their reach before any sweep writes one.
//
// A visit ships whether the fragment holds a candidate but no candidate
// formula: the final stage walks the fragment again under ground values
// instead. Its sweep counts the candidates it meets and keeps none.
type selVisit struct {
	out   selOutcome // what the sweep found
	b     *boolexpr.Builder
	f     *fragment.Fragment
	init  []*boolexpr.Formula
	fq    *parbox.FragQual
	slab  *[]uint64 // selWalk's masks, taken from the pool until the sweep
	walk  arena.Bitset
	reach int
	// skipReach marks a visit from a symbolic init without qualifiers,
	// where every reach node is a candidate: its walk set leaves out the
	// reach nodes that are not ancestors of a virtual node.
	skipReach bool
}

// startSelection computes f's walk set (selWalk) for the traversal with
// init, fq and b.
func startSelection(b *boolexpr.Builder, f *fragment.Fragment, c *xpath.Compiled, init []*boolexpr.Formula, fq *parbox.FragQual) selVisit {
	v := selVisit{b: b, f: f, init: init, fq: fq, slab: arena.TakeSlab(4 * len(f.VirtualMask))}
	v.skipReach = !c.HasQualifiers() && v.symbolic()
	v.walk, v.reach = selWalk(&f.ArenaView, c, init, fq, *v.slab, !v.skipReach)
	return v
}

// hasCandidates reports whether the fragment holds a candidate answer.
// Without qualifiers reach counts exactly the nodes whose answer entry is
// not False, so a visit that skipped them has one exactly when reach > 0.
func (v *selVisit) hasCandidates() bool {
	return v.out.met > 0 || v.skipReach && v.reach > 0
}

// symbolic reports whether init holds a z variable. initFor's vectors are
// ground throughout or symbolic throughout.
func (v *selVisit) symbolic() bool {
	return slices.ContainsFunc(v.init, func(e *boolexpr.Formula) bool {
		_, ok := e.IsConst()
		return !ok
	})
}

// maxAnswers bounds how many answers the sweep writes, with or without
// qualifiers. Every answer and candidate is a reach node, so from a
// ground init there are at most reach answers. From a symbolic init there
// are none: every vector entry is False when every z variable is —
// entries start as z variables or False, a step conjoins its parent's
// entry and a "//" entry disjoins two such entries — whatever the
// qualifiers, so no entry is the constant True.
func (v *selVisit) maxAnswers() int {
	if v.symbolic() {
		return 0
	}
	return v.reach
}

// release returns the walk set's masks to the pool, once.
func (v *selVisit) release() {
	if v.slab != nil {
		arena.PutSlab(v.slab)
		v.slab = nil
	}
}

// sweep runs the traversal over the walk set into v.out, which it
// returns, and appends the fragment's answers to answers, which the
// outcome's answers then hold, the earlier ones first: a site passes
// every fragment of a request the one response slice, so each answer is
// written once, into it.
//
// Vectors are computed only on the paths to what ships: the sweep visits,
// in pre-order, the walk set selWalk picked. It keeps a depth-indexed row
// stack and the stack of the open ancestors' SubtreeEnds: a node at depth
// d writes its vector into row d, which its descendants read until the
// sweep passes the node's SubtreeEnd. The walk set holds every ancestor of
// its members, so each vector is the one a full walk builds, by the same
// Builder calls, and it holds every node a full walk would ship. A context
// outlives its row, so it is the one vector that is copied.
func (v *selVisit) sweep(c *xpath.Compiled, shipXML bool, env *boolexpr.Env, answers []AnswerNode) *selOutcome {
	defer v.release()
	b, f, fq, init, walk, reach := v.b, v.f, v.fq, v.init, v.walk, v.reach
	av := &f.ArenaView
	at := av.Tree
	w := len(c.Sel)
	last := c.AnswerEntry()
	// Every answer is among the reach nodes (maxAnswers). From a ground
	// init the first answer sizes the answers at reach, which allocates
	// nothing when the caller sized them already.
	start := len(answers)

	out := &v.out
	out.answers = answers
	// The vector at depth d is rows[d*w : (d+1)*w]. Both stacks start in
	// arrays on the goroutine's stack, which hold a 16-entry query 6 levels
	// deep; a deeper sweep grows them onto the heap.
	var rowBuf [96]*boolexpr.Formula
	rows := rowBuf[:]
	var endBuf [16]int32
	ends := endBuf[:0]
	var node xmltree.NodeID
	qual := func(e int) *boolexpr.Formula {
		if env == nil {
			return fq.QualAt(node, e)
		}
		return env.Resolve(fq.QualAt(node, e))
	}
	stubbed := 0 // below covers the virtual nodes before this index
	n := at.Len()
	for i := walk.NextSet(0, n); i < n; i = walk.NextSet(i+1, n) {
		for len(ends) > 0 && int32(i) >= ends[len(ends)-1] {
			ends = ends[:len(ends)-1]
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
			continue
		}
		node = xmltree.NodeID(i)
		sv := xpath.NodeSelVector[*boolexpr.Formula](b, c, at.LabelOf(i), parent, qual, rows[d*w:(d+1)*w])
		out.visited++
		end := int(at.SubtreeEnd[i])
		switch {
		case sv[last].IsTrue():
			if len(out.answers) == start {
				out.answers = slices.Grow(out.answers, reach)
			}
			out.answers = append(out.answers, answerOf(f, node, shipXML))
			stubbed = out.addBelow(f, shipXML, max(i+1, stubbed), end)
		case !sv[last].IsFalse():
			out.met++
			stubbed = out.addBelow(f, shipXML, max(i+1, stubbed), end)
		}
		ends = append(ends, int32(end))
	}
	return out
}

// selWalk computes, in four masks carved from slab, the walk set: the
// answer entry's mask (unless withReach is false) and the virtual nodes,
// with all their ancestors — elements only, as the answer entry is a
// step — and the number of nodes in the answer entry's mask, which holds
// every answer and candidate. An
// entry's mask holds the nodes where the entry may not be False, by the
// recurrence over masks:
//   - a root entry: empty;
//   - a step: the candidates — real elements passing the test whose
//     qualifier mask bit is set or which lie on the spine, where the
//     qualifier is a formula — whose parent is in the previous mask, and
//     the fragment root if it is a candidate and init's previous entry is
//     not False;
//   - a "//" entry: every node if init's entry is not False, else the
//     descendants-or-self of the previous mask.
func selWalk(av *fragment.ArenaView, c *xpath.Compiled, init []*boolexpr.Formula, fq *parbox.FragQual, slab []uint64, withReach bool) (walk arena.Bitset, reach int) {
	at := av.Tree
	nw := len(av.VirtualMask)
	take := func() arena.Bitset {
		m := slab[:nw:nw]
		slab = slab[nw:]
		return m
	}
	prev, cur, cand := take(), take(), take()
	walk = take()
	const root = int(fragment.RootNode)
	for k := range c.Sel {
		switch e := &c.Sel[k]; e.Kind {
		case xpath.SelRoot:
			cur.Zero()
		case xpath.SelDesc:
			if init[k].IsFalse() {
				at.DescendantsOrSelf(prev, cur)
			} else {
				cur.Fill(at.Len())
			}
		case xpath.SelStep:
			test := at.Elements()
			if !e.Test.Wild {
				test = at.LabelMask(e.Test.Label)
			}
			cand.SetAndNot(test, av.VirtualMask)
			if e.Qual != nil {
				walk.SetOr(fq.SelMask(k), av.SpineMask) // walk is scratch until the end
				cand.SetAnd(cand, walk)
			}
			at.ParentIn(cand, prev, cur)
			if cand.Get(root) && !init[k-1].IsFalse() {
				cur.Set(root)
			}
		}
		prev, cur = cur, prev
	}
	reach = prev.OnesCount()
	if !withReach {
		prev.Zero()
	}
	prev.SetOr(prev, av.VirtualMask)
	at.StrictDescendants(prev, walk)
	walk.SetOr(walk, prev)
	return walk, reach
}

// addContext records vector sv as the context of the sub-fragment that
// virtual node v of f stands for: its stack must summarize the ancestors
// of its root.
func (o *selOutcome) addContext(f *fragment.Fragment, v int, sv []*boolexpr.Formula) {
	k, _ := f.VirtualAt(xmltree.NodeID(v))
	o.contexts = append(o.contexts, fragContext{frag: k, sv: slices.Clone(sv)})
}

// addBelow records, under shipXML, the sub-fragments of the virtual nodes
// in [lo, end), the part of an answer's or candidate's subtree that no
// earlier one covered: answers and candidates arrive in pre-order, so a
// nested one records nothing twice. It returns how far below now covers.
func (o *selOutcome) addBelow(f *fragment.Fragment, shipXML bool, lo, end int) int {
	if !shipXML {
		return 0
	}
	vm := f.VirtualMask
	for v := vm.NextSet(lo, end); v < end; v = vm.NextSet(v+1, end) {
		k, _ := f.VirtualAt(xmltree.NodeID(v))
		o.below = append(o.below, k)
	}
	return max(lo, end)
}
