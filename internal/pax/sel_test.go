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
	return walk(f.Tree.ToTree().Root)
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
				var sel *selOutcome
				allocs := testing.AllocsPerRun(3, func() {
					sel = evalSelection(&boolexpr.Builder{}, f, c, init, false, fq, env)
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
type selFunc func(*boolexpr.Builder, *fragment.Fragment, *xpath.Compiled, []*boolexpr.Formula, bool, *parbox.FragQual, *boolexpr.Env) *selOutcome

// evalSelectionWalk is the recursive pointer walk evalSelection replaced,
// kept as its oracle: it computes the vector of every element of f, reads
// answers from the pointer tree and skips nothing.
func evalSelectionWalk(
	b *boolexpr.Builder,
	f *fragment.Fragment,
	c *xpath.Compiled,
	init []*boolexpr.Formula,
	shipXML bool,
	fq *parbox.FragQual,
	env *boolexpr.Env,
) *selOutcome {
	qualAt := func(id xmltree.NodeID, e int) *boolexpr.Formula {
		if env == nil {
			return fq.QualAt(id, e)
		}
		return env.Resolve(fq.QualAt(id, e))
	}
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
	walk(f.Tree.ToTree().Root, init)
	return out
}

// pax3Inputs is what PaX3's Stage 2 hands the selection traversal of every
// fragment of ft: each fragment's Stage-1 state, the environment Stage 1's
// root vectors resolve to, which grounds its qualifier values, and the
// ground context the parent fragment reported as the initial vector.
type pax3Inputs struct {
	fqs   []*parbox.FragQual
	env   *boolexpr.Env
	inits [][]*boolexpr.Formula
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
	in := &pax3Inputs{fqs: fqs, env: env, inits: make([][]*boolexpr.Formula, ft.Len())}
	in.inits[fragment.RootFrag] = xpath.DocSelVector[*boolexpr.Formula](&boolexpr.Builder{}, c)
	// A parent fragment's ID is below its sub-fragments', so ID order
	// grounds every init before its fragment runs.
	for _, f := range ft.Frags {
		for _, ctx := range evalSelectionWalk(&boolexpr.Builder{}, f, c, in.inits[f.ID], false, fqs[f.ID], env).contexts {
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
		outs[f.ID] = sel(&boolexpr.Builder{}, f, c, in.inits[f.ID], shipXML, in.fqs[f.ID], in.env)
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
		outs[f.ID] = sel(b, f, c, init, shipXML, fq, nil)
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
// it replaced: on a fixture built to reach each case where a mask bit must
// mean "may", with virtual nodes below and beside the pruned nodes, and on
// the differential harness's random trees, XMark documents, cuts and
// queries, the two return the same answers, candidates and contexts in the
// same order.
func TestSelectionSweepMatchesWalk(t *testing.T) {
	// The cut nodes x, y and z become virtual nodes of the root fragment:
	// x is a child of a, y is below a's child b and z below e's child f, so
	// r, the first a, b, e and f form the spine. For /r/a the masks pick
	// out r and its a children, and for //a every a, so the sweep computes
	// no vector at the c leaves the walk visits. The other queries reach
	// the "may" cases:
	//   - /r/a[.//zzz]/b: the first a is a spine node whose qualifier is a
	//     formula over x's and y's variables; PaX3 resolves it to False,
	//     while PaX2 ships b as a candidate with a non-ground formula;
	//   - /r/e//b and //a//b: a "//" entry of the sub-fragments x, y and z,
	//     whose init is symbolic in PaX2 and ground in PaX3;
	//   - /r/*[.//c]/b and //*[b]/c: wildcard steps with a qualifier.
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
	for _, query := range []string{
		`/r/a`, `//a`, `/r//c`, `//a/zzz`, `/r/a[b]/c`, `//*`, `/r//*[c]`,
		`/r/a[.//zzz]/b`, `/r/e//b`, `//a//b`, `/r/*[.//c]/b`, `//*[b]/c`,
	} {
		swept, walked := checkSweepMatchesWalk(t, "fixture", ft, query)
		if query == `/r/a` || query == `//a` {
			if swept >= walked {
				t.Errorf("fixture %q: the sweep computed %d vectors, the walk %d; the masks pruned nothing", query, swept, walked)
			}
		}
	}
	// The spine case holds only if the first a's qualifier really is a
	// formula: PaX2 must ship b as a non-ground candidate, PaX3 nothing.
	c := xpath.MustCompile(`/r/a[.//zzz]/b`)
	root := runPAX2(ft, c, false, evalSelection)[fragment.RootFrag]
	if len(root.candidates) != 1 || !root.candidates[0].f.HasVars() {
		t.Errorf("PaX2 /r/a[.//zzz]/b: root fragment candidates %v, want b with a non-ground formula", root.candidates)
	}
	root = newPAX3Inputs(t, ft, c).run(ft, c, false, evalSelection)[fragment.RootFrag]
	if len(root.answers)+len(root.candidates) != 0 {
		t.Errorf("PaX3 /r/a[.//zzz]/b: root fragment answers %v candidates %v, want none", root.answers, root.candidates)
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
	visitQ3       = `/sites/site/people/person[profile/age > 20 and address/country = "US"]/creditcard`
	visitQ4       = `/sites//people/person[profile/age > 20 and address/country = "US"]/creditcard`
	visitWildName = `/sites//*[name]`
)

// TestSelectionVisitsLiveNodes is the counted property of the sweep's
// masks: on the pinned XMark cut, Q3, Q4 and /sites//*[name] compute a
// vector only on the paths to their answers and to the virtual nodes, a
// few hundred of the 18 078 elements, in both algorithms, while //*, which
// can select everywhere, still computes every element's vector.
func TestSelectionVisitsLiveNodes(t *testing.T) {
	ft := visitCut(t)
	elements := 0
	for _, f := range ft.Frags {
		elements += f.Tree.Elements().OnesCount()
	}
	if elements != 18_078 {
		t.Fatalf("the pinned cut has %d elements, want 18 078", elements)
	}
	for _, tc := range []struct {
		query string
		most  int
	}{
		{visitQ3, 261},
		{visitQ4, 261},
		{visitWildName, 910},
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
// combined visit (evalCombined, the Stage-1 mask pass included). Beside
// Q3 and Q4 it times //* ("all"), which computes every element's vector,
// and /sites//*[name] ("wild-name"), a wildcard step with a qualifier.
func BenchmarkSelectionVisit(b *testing.B) {
	ft := visitCut(b)
	for _, q := range []struct{ name, query string }{
		{"Q3", visitQ3}, {"Q4", visitQ4}, {"all", `//*`}, {"wild-name", visitWildName},
	} {
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

// TestPooledSelectionMasksDoNotLeak holds the selection slab's lifetime to
// the visit: a PaX2 visit of fragment A keeps its outcome, then visits of
// a different query over fragment B, no smaller than A, reuse A's pooled
// slab and overwrite every word A's visit carved from it. A's answers,
// candidates and contexts must encode exactly as before — an outcome that
// kept a mask carved from the slab would have changed with B's masks.
func TestPooledSelectionMasksDoNotLeak(t *testing.T) {
	ft := visitCut(t)
	fA := ft.Root() // its virtual nodes report contexts
	fB := fA
	for _, f := range ft.Frags {
		if len(f.VirtualMask) > len(fB.VirtualMask) {
			fB = f
		}
	}
	// A's query answers the elements with a name child and, through .//zzz,
	// leaves a formula over sub-fragment variables at the spine: candidates.
	cA, cB := xpath.MustCompile(`//*[name or .//zzz]`), xpath.MustCompile(`//*`)
	visit := func(f *fragment.Fragment, c *xpath.Compiled) *selOutcome {
		b := &boolexpr.Builder{}
		vs := parbox.NewVarScheme(c, ft.Len())
		init := zInit(b, vs, f.ID, c)
		if f.ID == fragment.RootFrag {
			init = xpath.DocSelVector[*boolexpr.Formula](b, c)
		}
		return evalCombined(b, f, c, vs, init, true).selOutcome
	}
	// encode records an outcome: its answers, then every candidate's node
	// and formula, then every context's fragment and vector.
	encode := func(o *selOutcome) []string {
		var out []string
		for _, a := range o.answers {
			out = append(out, fmt.Sprint(a))
		}
		for _, c := range o.candidates {
			out = append(out, fmt.Sprint(c.node, boolexpr.Encode(c.f)))
		}
		for _, ctx := range o.contexts {
			out = append(out, fmt.Sprint(ctx.frag, boolexpr.EncodeVec(ctx.sv)))
		}
		return out
	}
	visit(fB, cB) // leaves a slab large enough for both visits in the pool
	kept := visit(fA, cA)
	if len(kept.answers) == 0 || len(kept.candidates) == 0 || len(kept.contexts) == 0 {
		t.Fatalf("A's visit returned %d answers, %d candidates, %d contexts; want some of each",
			len(kept.answers), len(kept.candidates), len(kept.contexts))
	}
	want := encode(kept)
	for i := 0; i < 4; i++ {
		visit(fB, cB)
	}
	if got := encode(kept); !slices.Equal(got, want) {
		t.Fatalf("A's outcome changed with B's visits:\n got %v\nwant %v", got, want)
	}
}
