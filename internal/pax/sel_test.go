package pax

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"paxq/internal/boolexpr"
	"paxq/internal/fragment"
	"paxq/internal/parbox"
	"paxq/internal/testutil"
	"paxq/internal/testutil/fragtest"
	"paxq/internal/xmark"
	"paxq/internal/xmltree"
	"paxq/internal/xpath"
)

// fragDepth is the number of element levels of f's tree, virtual nodes
// excluded: the height of the traversals' row stacks.
func fragDepth(f *fragment.Fragment) int {
	var walk func(n *xmltree.Node) int
	walk = func(n *xmltree.Node) int {
		d := 0
		for _, ch := range n.Children {
			if ch.Kind != xmltree.Element {
				continue
			}
			if _, ok := f.VirtualAt(ch.ID); ok {
				continue
			}
			d = max(d, walk(ch))
		}
		return d + 1
	}
	return walk(f.Tree.Root)
}

// TestTraversalAllocsPerFragment is the counted property of the site
// traversals: one fragment visit of evalSelection or evalCombined
// allocates in proportion to the fragment's depth plus what the visit
// returns, never to its node count. Two XMark documents an order of
// magnitude apart, cut into the same nine fragments, must both stay under
// allocs ≤ c·(depth + answers + candidates + contexts) + c₀, where c is
// linear in |Q| (a row or a shipped context holds one value per query
// entry); a traversal that allocates per node breaks the bound on the
// larger document by an order of magnitude.
func TestTraversalAllocsPerFragment(t *testing.T) {
	const (
		perEntry = 2  // c per query entry
		fixed    = 32 // c₀
	)
	queries := []string{
		`/sites/site/people/person[profile/age > 20 and address/country = "US"]/creditcard`,
		`/sites//people/person[profile/age > 20 and address/country = "US"]/creditcard`,
		`//open_auction[bidder]//date`,
		`//item/name`,
	}
	cal := xmark.Calibrate()
	for _, mb := range []float64{0.05, 0.5} {
		tr := xmark.Generate(4, cal.SpecForBytes(int(mb*1e6/4)), 1)
		// Every site's people and open_auctions become fragments: nine in
		// all, whatever the document size.
		var cuts []xmltree.NodeID
		tr.Walk(func(n *xmltree.Node) bool {
			if n.Label == "people" || n.Label == "open_auctions" {
				cuts = append(cuts, n.ID)
			}
			return true
		})
		ft, err := fragment.Cut(tr, cuts)
		if err != nil {
			t.Fatal(err)
		}
		if ft.Len() != 9 {
			t.Fatalf("%.2f MB: %d fragments, want 9", mb, ft.Len())
		}
		for _, query := range queries {
			c := xpath.MustCompile(query)
			q := len(c.Sel) + len(c.Preds)
			vs := parbox.NewVarScheme(c, ft.Len())
			for _, f := range ft.Frags {
				var init []*boolexpr.Formula
				if f.ID == fragment.RootFrag {
					init = xpath.DocSelVector[*boolexpr.Formula](&boolexpr.Builder{}, c)
				} else {
					init = zInit(&boolexpr.Builder{}, vs, f.ID, c)
				}
				bound := func(returned int) float64 {
					return float64(perEntry*q*(fragDepth(f)+returned) + fixed)
				}
				name := fmt.Sprintf("%.2fMB frag %d (%d nodes) %s", mb, f.ID, f.Size(), query)

				fq := parbox.Qualify(f, c, vs, &boolexpr.Builder{})
				env := boolexpr.NewEnv()
				qualAt := func(id xmltree.NodeID, entry int) *boolexpr.Formula {
					return env.Resolve(fq.QualAt(id, entry))
				}
				var sel *selOutcome
				allocs := testing.AllocsPerRun(3, func() {
					sel = evalSelection(&boolexpr.Builder{}, f, c, init, false, qualAt)
				})
				if got := len(sel.answers) + len(sel.candidates) + len(sel.contexts); allocs > bound(got) {
					t.Errorf("%s: evalSelection %.0f allocs, bound %.0f (returned %d)", name, allocs, bound(got), got)
				}

				var comb *combinedOutcome
				allocs = testing.AllocsPerRun(3, func() {
					comb = evalCombined(&boolexpr.Builder{}, f, c, vs, init, false)
				})
				if got := len(comb.answers) + len(comb.candidates) + len(comb.contexts); allocs > bound(got) {
					t.Errorf("%s: evalCombined %.0f allocs, bound %.0f (returned %d)", name, allocs, bound(got), got)
				}
			}
		}
	}
}

// selFunc is the signature evalSelection and its oracle share.
type selFunc func(*boolexpr.Builder, *fragment.Fragment, *xpath.Compiled, []*boolexpr.Formula, bool, func(xmltree.NodeID, int) *boolexpr.Formula) *selOutcome

// evalSelectionWalk is the recursive pointer walk evalSelection replaced,
// kept as its oracle: it computes the vector of every element of f, reads
// answers from the pointer tree and skips nothing.
func evalSelectionWalk(
	b *boolexpr.Builder,
	f *fragment.Fragment,
	c *xpath.Compiled,
	init []*boolexpr.Formula,
	shipXML bool,
	qualAt func(id xmltree.NodeID, entry int) *boolexpr.Formula,
) *selOutcome {
	out := &selOutcome{}
	last := c.AnswerEntry()
	stubbed := make(map[fragment.FragID]bool)
	var below func(n *xmltree.Node)
	below = func(n *xmltree.Node) {
		if k, ok := f.VirtualAt(n.ID); ok && !stubbed[k] {
			stubbed[k] = true
			out.below = append(out.below, k)
		}
		for _, ch := range n.Children {
			below(ch)
		}
	}
	var walk func(n *xmltree.Node, parent []*boolexpr.Formula)
	walk = func(n *xmltree.Node, parent []*boolexpr.Formula) {
		sv := xpath.NodeSelVector[*boolexpr.Formula](b, c, n.Label, parent,
			func(e int) *boolexpr.Formula { return qualAt(n.ID, e) }, nil)
		out.visited++
		switch {
		case sv[last].IsTrue():
			a := AnswerNode{Frag: f.ID, Node: n.ID, Label: n.Label, Value: n.Value()}
			if shipXML {
				a.XML = xmltree.SerializeString(fragtest.StubbedCopy(f, n))
				below(n)
			}
			out.answers = append(out.answers, a)
		case !sv[last].IsFalse():
			out.candidates = append(out.candidates, candidate{node: n.ID, f: sv[last]})
			if shipXML {
				below(n)
			}
		}
		for _, ch := range n.Children {
			if ch.Kind != xmltree.Element {
				continue
			}
			if k, ok := f.VirtualAt(ch.ID); ok {
				out.contexts = append(out.contexts, fragContext{frag: k, sv: slices.Clone(sv)})
				continue
			}
			walk(ch, sv)
		}
	}
	walk(f.Tree.Root, init)
	return out
}

// pax3Inputs is what PaX3's Stage 2 hands the selection traversal of every
// fragment of ft: qualifier values grounded under the environment Stage
// 1's root vectors resolve to, and the ground context the parent fragment
// reported as the initial vector.
type pax3Inputs struct {
	qualAt []func(xmltree.NodeID, int) *boolexpr.Formula
	inits  [][]*boolexpr.Formula
}

func newPAX3Inputs(t testing.TB, ft *fragment.Fragmentation, c *xpath.Compiled) *pax3Inputs {
	t.Helper()
	vs := parbox.NewVarScheme(c, ft.Len())
	roots := make(map[fragment.FragID]parbox.RootVecs, ft.Len())
	fqs := make([]*parbox.FragQual, ft.Len())
	for _, f := range ft.Frags {
		fqs[f.ID] = parbox.Qualify(f, c, vs, &boolexpr.Builder{})
		roots[f.ID] = fqs[f.ID].Root
	}
	env, err := parbox.ResolveQualVars(roots, vs)
	if err != nil {
		t.Fatal(err)
	}
	in := &pax3Inputs{
		qualAt: make([]func(xmltree.NodeID, int) *boolexpr.Formula, ft.Len()),
		inits:  make([][]*boolexpr.Formula, ft.Len()),
	}
	in.inits[fragment.RootFrag] = xpath.DocSelVector[*boolexpr.Formula](&boolexpr.Builder{}, c)
	// A parent fragment's ID is below its sub-fragments', so ID order
	// grounds every init before its fragment runs.
	for _, f := range ft.Frags {
		fq := fqs[f.ID]
		in.qualAt[f.ID] = func(id xmltree.NodeID, e int) *boolexpr.Formula { return env.Resolve(fq.QualAt(id, e)) }
		for _, ctx := range evalSelectionWalk(&boolexpr.Builder{}, f, c, in.inits[f.ID], false, in.qualAt[f.ID]).contexts {
			in.inits[ctx.frag] = ctx.sv
		}
	}
	return in
}

// run is PaX3's Stage 2 over every fragment with sel, one Builder per
// fragment visit.
func (in *pax3Inputs) run(ft *fragment.Fragmentation, c *xpath.Compiled, shipXML bool, sel selFunc) []*selOutcome {
	outs := make([]*selOutcome, ft.Len())
	for _, f := range ft.Frags {
		outs[f.ID] = sel(&boolexpr.Builder{}, f, c, in.inits[f.ID], shipXML, in.qualAt[f.ID])
	}
	return outs
}

// runPAX2 is PaX2's combined visit over every fragment with sel: each
// fragment's Stage-1 mask pass, then the selection traversal from its
// symbolic initial vector with qualifier values left symbolic, all built
// with one Builder per fragment visit, as evalCombined does.
func runPAX2(ft *fragment.Fragmentation, c *xpath.Compiled, shipXML bool, sel selFunc) []*selOutcome {
	vs := parbox.NewVarScheme(c, ft.Len())
	outs := make([]*selOutcome, ft.Len())
	for _, f := range ft.Frags {
		b := &boolexpr.Builder{}
		fq := parbox.Qualify(f, c, vs, b)
		init := zInit(b, vs, f.ID, c)
		if f.ID == fragment.RootFrag {
			init = xpath.DocSelVector[*boolexpr.Formula](b, c)
		}
		outs[f.ID] = sel(b, f, c, init, shipXML, fq.QualAt)
	}
	return outs
}

// sameOutcome reports the first difference between the sweep's outcome
// and the walk's: answers, then candidates by node and encoded formula,
// then contexts by fragment and encoded vector, each in order.
func sameOutcome(got, want *selOutcome) error {
	if !slices.Equal(got.answers, want.answers) {
		return fmt.Errorf("answers %v, walk %v", got.answers, want.answers)
	}
	if len(got.candidates) != len(want.candidates) {
		return fmt.Errorf("%d candidates, walk %d", len(got.candidates), len(want.candidates))
	}
	for i, g := range got.candidates {
		w := want.candidates[i]
		if g.node != w.node || !bytes.Equal(boolexpr.Encode(g.f), boolexpr.Encode(w.f)) {
			return fmt.Errorf("candidate %d: node %d %v, walk node %d %v", i, g.node, g.f, w.node, w.f)
		}
	}
	if len(got.contexts) != len(want.contexts) {
		return fmt.Errorf("%d contexts, walk %d", len(got.contexts), len(want.contexts))
	}
	for i, g := range got.contexts {
		w := want.contexts[i]
		if g.frag != w.frag || !slices.EqualFunc(boolexpr.EncodeVec(g.sv), boolexpr.EncodeVec(w.sv), bytes.Equal) {
			return fmt.Errorf("context %d: fragment %d %v, walk fragment %d %v", i, g.frag, g.sv, w.frag, w.sv)
		}
	}
	if !slices.Equal(got.below, want.below) {
		return fmt.Errorf("below %v, walk %v", got.below, want.below)
	}
	if got.visited > want.visited {
		return fmt.Errorf("computed %d vectors, walk %d", got.visited, want.visited)
	}
	return nil
}

// checkSweepMatchesWalk runs query over every fragment of ft with the
// sweep and with the walk, in both qualAt modes — PaX3 resolved under an
// env, PaX2 symbolic — with ShipXML on, and fails on the first difference.
// It returns the vectors each computed, summed over both modes.
func checkSweepMatchesWalk(t *testing.T, name string, ft *fragment.Fragmentation, query string) (swept, walked int) {
	t.Helper()
	c := xpath.MustCompile(query)
	in := newPAX3Inputs(t, ft, c)
	for _, mode := range []struct {
		name string
		run  func(selFunc) []*selOutcome
	}{
		{"pax3", func(sel selFunc) []*selOutcome { return in.run(ft, c, true, sel) }},
		{"pax2", func(sel selFunc) []*selOutcome { return runPAX2(ft, c, true, sel) }},
	} {
		got, want := mode.run(evalSelection), mode.run(evalSelectionWalk)
		for i := range got {
			if err := sameOutcome(got[i], want[i]); err != nil {
				t.Fatalf("%s %s %q fragment %d: %v", name, mode.name, query, i, err)
			}
			swept, walked = swept+got[i].visited, walked+want[i].visited
		}
	}
	return swept, walked
}

// TestSelectionSweepMatchesWalk holds the arena sweep to the pointer walk
// it replaced: on a fixture built to reach both skip rules with virtual
// nodes in the skipped ranges, and on the differential harness's random
// trees, XMark documents, cuts and queries, the two return the same
// answers, candidates and contexts in the same order.
func TestSelectionSweepMatchesWalk(t *testing.T) {
	// The cut nodes x, y and z become virtual nodes of the root fragment:
	// x is a child of a, y is below a's child b and z below e's child f.
	// For /r/a, rule (b) skips a's subtree (no r or a below it) and rule
	// (a) skips e's (its vector is all False); for //a, rule (b) skips
	// both, and y and z take the projection of a's and e's vectors.
	el := xmltree.El
	sub := func(label string) *xmltree.Node { return el(label, el("a", el("c")), el("b")) }
	fixture := xmltree.NewTree(el("r",
		el("a", el("b", el("c"), sub("y")), sub("x")),
		el("e", el("f", sub("z"))),
		el("a", el("c")),
	))
	var cuts []xmltree.NodeID
	fixture.Walk(func(n *xmltree.Node) bool {
		if n.Label == "x" || n.Label == "y" || n.Label == "z" {
			cuts = append(cuts, n.ID)
		}
		return true
	})
	ft, err := fragment.Cut(fixture, cuts)
	if err != nil {
		t.Fatal(err)
	}
	for _, query := range []string{`/r/a`, `//a`, `/r//c`, `//a/zzz`, `/r/a[b]/c`, `//*`, `/r//*[c]`} {
		swept, walked := checkSweepMatchesWalk(t, "fixture", ft, query)
		if query == `/r/a` || query == `//a` {
			if swept >= walked {
				t.Errorf("fixture %q: the sweep computed %d vectors, the walk %d; a skip rule did not fire", query, swept, walked)
			}
		}
	}

	fixed := []string{`//*`, `//a//*[b]`, `//zzz`, `/*/a/zzz`, `//a[c]//zzz`, `//b[d]`, `/*//a/b`}
	xmarkFixed := []string{
		`//*`, `/sites//*[name]`, `//zzz`, `/sites/site/people/zzz`,
		`/sites/site/people/person[profile/age > 20 and address/country = "US"]/creditcard`,
		`/sites//people/person[profile/age > 20 and address/country = "US"]/creditcard`,
		`/sites/site/open_auctions//annotation`,
	}
	for seed := int64(0); seed < 24; seed++ {
		r := rand.New(rand.NewSource(seed))
		tree, queries := testutil.RandomTree(seed, 60+r.Intn(300)), fixed
		if seed%2 == 1 {
			tree, queries = xmark.Generate(1+r.Intn(2), xmark.DefaultSite.Scale(0.05+r.Float64()*0.2), seed), xmarkFixed
		}
		ft, err := fragment.Cut(tree, fragment.RandomCuts(tree, r.Intn(9), seed+1))
		if err != nil {
			t.Fatal(err)
		}
		for q := int64(0); q < 6; q++ {
			queries = append(queries, testutil.RandomQuery(seed*1000+q))
		}
		for _, query := range queries {
			checkSweepMatchesWalk(t, fmt.Sprintf("seed %d", seed), ft, query)
		}
	}
}

// visitCut is the pinned XMark cut of the counted property and the ruler:
// a 0.5 MB document in four sites, 18 078 elements cut into 8 fragments.
func visitCut(tb testing.TB) *fragment.Fragmentation {
	tb.Helper()
	tr := xmark.Generate(4, xmark.Calibrate().SpecForBytes(125_000), 1)
	ft, err := fragment.Cut(tr, fragment.RandomCuts(tr, 7, 1))
	if err != nil {
		tb.Fatal(err)
	}
	return ft
}

const (
	visitQ3 = `/sites/site/people/person[profile/age > 20 and address/country = "US"]/creditcard`
	visitQ4 = `/sites//people/person[profile/age > 20 and address/country = "US"]/creditcard`
)

// TestSelectionVisitsLiveNodes is the counted property of the sweep's skip
// rules: on the pinned XMark cut, Q3 and Q4 compute a vector at a few
// percent of the elements, in both algorithms, while //*, which can select
// everywhere, still computes every element's vector.
func TestSelectionVisitsLiveNodes(t *testing.T) {
	ft := visitCut(t)
	elements := 0
	for _, f := range ft.Frags {
		elements += f.Arena().Tree.Elements().OnesCount()
	}
	if elements != 18_078 {
		t.Fatalf("the pinned cut has %d elements, want 18 078", elements)
	}
	for _, tc := range []struct {
		query string
		most  int
	}{
		{visitQ3, 1_100},
		{visitQ4, 2_300},
		{`//*`, 18_071},
	} {
		c := xpath.MustCompile(tc.query)
		in := newPAX3Inputs(t, ft, c)
		for _, mode := range []struct {
			name string
			outs []*selOutcome
		}{
			{"pax3", in.run(ft, c, false, evalSelection)},
			{"pax2", runPAX2(ft, c, false, evalSelection)},
		} {
			visited := 0
			for _, o := range mode.outs {
				visited += o.visited
			}
			t.Logf("%s %q: %d vectors of %d elements", mode.name, tc.query, visited, elements)
			if visited > tc.most {
				t.Errorf("%s %q computed %d vectors, want at most %d", mode.name, tc.query, visited, tc.most)
			}
			if tc.query == `//*` && visited != tc.most {
				t.Errorf("%s %q computed %d vectors, want every element's, %d", mode.name, tc.query, visited, tc.most)
			}
		}
	}
}

// BenchmarkSelectionVisit is the in-package ruler of the selection
// traversal: one op is one pass over the 8 fragments of the pinned XMark
// cut, as PaX3's Stage 2 (evalSelection under an env) or as PaX2's
// combined visit (evalCombined, the Stage-1 mask pass included).
func BenchmarkSelectionVisit(b *testing.B) {
	ft := visitCut(b)
	for _, q := range []struct{ name, query string }{{"Q3", visitQ3}, {"Q4", visitQ4}} {
		c := xpath.MustCompile(q.query)
		in := newPAX3Inputs(b, ft, c)
		b.Run(q.name+"/pax3-selection", func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				in.run(ft, c, false, evalSelection)
			}
		})
		vs := parbox.NewVarScheme(c, ft.Len())
		b.Run(q.name+"/pax2-combined", func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				for _, f := range ft.Frags {
					bd := &boolexpr.Builder{}
					init := zInit(bd, vs, f.ID, c)
					if f.ID == fragment.RootFrag {
						init = xpath.DocSelVector[*boolexpr.Formula](bd, c)
					}
					evalCombined(bd, f, c, vs, init, false)
				}
			}
		})
	}
}

// TestAnswerXMLAllocs pins a ShipXML answer's XML to a slice of its
// fragment's cached file form: once the fragment's first answer has built
// the file form, a second answer from it allocates nothing for its XML.
func TestAnswerXMLAllocs(t *testing.T) {
	tree := xmark.Generate(2, xmark.Calibrate().SpecForBytes(20_000), 1)
	ft, err := fragment.Cut(tree, fragment.RandomCuts(tree, 3, 1))
	if err != nil {
		t.Fatal(err)
	}
	f := ft.Root()
	first, second := xmltree.NodeID(1), xmltree.NodeID(2)
	if a := answerOf(f, first, true); a.XML != f.SubtreeXML(first) || a.XML == "" {
		t.Fatalf("answer %d ships %q", first, a.XML)
	}
	var a AnswerNode
	if allocs := testing.AllocsPerRun(20, func() { a = answerOf(f, second, true) }); allocs != 0 {
		t.Errorf("a second answer from the fragment allocates %.1f times, want 0", allocs)
	}
	if a.XML != f.SubtreeXML(second) {
		t.Errorf("answer %d ships %q, want its slice of the file form", second, a.XML)
	}
}
