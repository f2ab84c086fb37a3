package pax

import (
	"paxq/internal/fragment"
	"paxq/internal/xpath"
)

// Relevance is the result of the §5 analysis over the XPath-annotated
// fragment tree: which fragments can possibly contribute to the query
// answer, and — for qualifier-free queries — the exact concrete
// stack-initialization vector of every fragment.
//
// The analysis evaluates the selection path over the annotation label
// chains with every qualifier treated as unknown-true (a may-analysis), so
// a fragment is pruned only when no node inside it can lie on a selection
// prefix AND no ancestor of its root that might need qualifier data below
// it is alive. Relevance is upward-closed along the fragment tree: a
// relevant fragment's parent is always relevant.
type Relevance struct {
	Relevant []bool   // indexed by FragID
	Inits    [][]bool // exact init vectors; valid only when Exact
	Exact    bool     // true when the query has no qualifiers
	// Crossing reports whether an answer may hold a virtual node: some
	// strict ancestor of a sub-fragment's root may be an answer. Only
	// then can a ShipXML answer carry stubs to stitch.
	Crossing bool
}

// NumRelevant counts relevant fragments.
func (r *Relevance) NumRelevant() int {
	n := 0
	for _, ok := range r.Relevant {
		if ok {
			n++
		}
	}
	return n
}

// AnalyzeRelevance runs the §5 analysis for query c over the annotated
// fragment tree of ft.
func AnalyzeRelevance(ft *fragment.Fragmentation, c *xpath.Compiled) *Relevance {
	alg := xpath.BoolAlg{}
	hasQual := c.HasQualifiers()
	r := &Relevance{
		Relevant: make([]bool, ft.Len()),
		Inits:    make([][]bool, ft.Len()),
		Exact:    !hasQual,
	}
	qualTrue := func(int) bool { return true }

	// rootVec[k] is the may-vector at fragment k's root; anc[k] reports
	// whether any strict ancestor of k's root carries a live qualified
	// step entry, and ans[k] whether one may be an answer.
	rootVec := make([][]bool, ft.Len())
	anc := make([]bool, ft.Len())
	ans := make([]bool, ft.Len())
	last := c.AnswerEntry()

	liveQualAt := func(vec []bool) bool {
		for i := range c.Sel {
			if c.Sel[i].Kind == xpath.SelStep && c.Sel[i].Qual != nil && vec[i] {
				return true
			}
		}
		return false
	}
	anyLive := func(vec []bool) bool {
		for _, b := range vec {
			if b {
				return true
			}
		}
		return false
	}

	// Root fragment: its root element's vector from the document vector.
	doc := xpath.DocSelVector[bool](alg, c)
	r.Inits[fragment.RootFrag] = doc
	rootVec[fragment.RootFrag] = xpath.NodeSelVector[bool](alg, c, ft.Root().Tree.LabelOf(int(fragment.RootNode)), doc, qualTrue, nil)
	r.Relevant[fragment.RootFrag] = anyLive(rootVec[fragment.RootFrag])

	// Fragments in ascending ID order: parents precede children.
	for id := fragment.FragID(1); int(id) < ft.Len(); id++ {
		f := ft.Frag(id)
		parent := f.Parent
		vec := rootVec[parent]
		ancestorQual := anc[parent] || liveQualAt(vec)
		ancestorAns := ans[parent] || vec[last]
		// Apply the annotation labels; all but the last node are strict
		// ancestors of this fragment's root.
		for i, label := range f.Annotation {
			if i == len(f.Annotation)-1 {
				r.Inits[id] = vec // the parent vector of the fragment root
			}
			vec = xpath.NodeSelVector[bool](alg, c, label, vec, qualTrue, nil)
			if i < len(f.Annotation)-1 {
				ancestorQual = ancestorQual || liveQualAt(vec)
				ancestorAns = ancestorAns || vec[last]
			}
		}
		rootVec[id] = vec
		anc[id] = ancestorQual
		ans[id] = ancestorAns
		r.Crossing = r.Crossing || ancestorAns
		r.Relevant[id] = anyLive(vec) || ancestorQual
	}
	return r
}

// allRelevant returns a Relevance marking every fragment relevant with no
// exact vectors — the behaviour when annotations are disabled.
func allRelevant(ft *fragment.Fragmentation) *Relevance {
	r := &Relevance{Relevant: make([]bool, ft.Len())}
	for i := range r.Relevant {
		r.Relevant[i] = true
	}
	return r
}
