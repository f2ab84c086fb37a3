package pax

import (
	"testing"
	"testing/quick"

	"paxq/internal/fragment"
	"paxq/internal/testutil"
	"paxq/internal/xmltree"
	"paxq/internal/xpath"
)

// example51Fragmentation builds a fragmentation matching the annotated
// fragment tree of Fig. 6: edges annotated client/broker (F0→F1), market
// (F1→F2), client/broker/market (F0→F3), and client (F0→F4).
func example51Fragmentation(t *testing.T) (*fragment.Fragmentation, map[string]fragment.FragID) {
	t.Helper()
	tr := testutil.PaperTree()
	var brokerAnna, marketUnderAnna, marketKim, clientLisa xmltree.NodeID
	tr.Walk(func(n *xmltree.Node) bool {
		if !n.IsElement() {
			return true
		}
		switch {
		case n.Label == "broker" && childVal(n, "name") == "E*trade":
			brokerAnna = n.ID
		case n.Label == "market" && childVal(n, "name") == "NASDAQ" && childVal(n.Parent, "name") == "E*trade":
			marketUnderAnna = n.ID
		case n.Label == "market" && childVal(n.Parent, "name") == "Bache":
			marketKim = n.ID
		case n.Label == "client" && childVal(n, "name") == "Lisa":
			clientLisa = n.ID
		}
		return true
	})
	ft, err := fragment.Cut(tr, []xmltree.NodeID{brokerAnna, marketUnderAnna, marketKim, clientLisa})
	if err != nil {
		t.Fatal(err)
	}
	names := map[string]fragment.FragID{}
	for _, f := range ft.Frags[1:] {
		switch f.Tree.LabelOf(int(fragment.RootNode)) {
		case "broker":
			names["F1"] = f.ID
		case "client":
			names["F4"] = f.ID
		case "market":
			if f.Parent == fragment.RootFrag {
				names["F3"] = f.ID // client/broker/market from the root
			} else {
				names["F2"] = f.ID // nested under the broker fragment
			}
		}
	}
	if len(names) != 4 {
		t.Fatalf("fragment identification failed: %v", names)
	}
	return ft, names
}

func childVal(n *xmltree.Node, label string) string {
	if n == nil {
		return ""
	}
	for _, c := range n.Children {
		if c.Kind == xmltree.Element && c.Label == label {
			return c.Value()
		}
	}
	return ""
}

// TestExample51 replays Example 5.1: for the query client/name, fragments
// F0 and F4 are relevant while F1, F2 and F3 are ruled out by their
// annotations.
func TestExample51(t *testing.T) {
	ft, names := example51Fragmentation(t)
	rel := AnalyzeRelevance(ft, xpath.MustCompile("client/name"))
	if !rel.Relevant[fragment.RootFrag] {
		t.Error("F0 must be relevant")
	}
	if !rel.Relevant[names["F4"]] {
		t.Error("F4 (rooted at a client) must be relevant")
	}
	for _, f := range []string{"F1", "F2", "F3"} {
		if rel.Relevant[names[f]] {
			t.Errorf("%s must be ruled out", f)
		}
	}
	if !rel.Exact {
		t.Error("qualifier-free analysis must be exact")
	}
	if rel.NumRelevant() != 2 {
		t.Errorf("NumRelevant = %d", rel.NumRelevant())
	}
}

// TestRelevanceQualifierKeepsDescendantFragments: a qualifier on a live
// ancestor forces descendants' fragments to stay relevant even when the
// selection path cannot enter them.
func TestRelevanceQualifierKeepsDescendantFragments(t *testing.T) {
	ft, names := example51Fragmentation(t)
	// Selection path client/name never enters broker fragments, but the
	// qualifier on client needs broker/market data below.
	rel := AnalyzeRelevance(ft, xpath.MustCompile(`client[broker/market/name = "NASDAQ"]/name`))
	for _, f := range []string{"F1", "F2"} {
		if !rel.Relevant[names[f]] {
			t.Errorf("%s must stay relevant for the client qualifier", f)
		}
	}
	if rel.Exact {
		t.Error("analysis with qualifiers must not claim exact inits")
	}
}

// TestRelevanceDescendantQueryKeepsAll mirrors the paper's Q4 observation:
// a leading // keeps every fragment relevant under FT1-style layouts.
func TestRelevanceDescendantQueryKeepsAll(t *testing.T) {
	tr := testutil.PaperTree()
	ft, err := fragment.Cut(tr, fragment.RandomCuts(tr, 5, 3))
	if err != nil {
		t.Fatal(err)
	}
	rel := AnalyzeRelevance(ft, xpath.MustCompile("//name"))
	if rel.NumRelevant() != ft.Len() {
		t.Errorf("//name should keep all %d fragments, got %d", ft.Len(), rel.NumRelevant())
	}
}

// TestRelevanceUpwardClosed: a relevant fragment's parent is relevant.
func TestQuickRelevanceUpwardClosed(t *testing.T) {
	f := func(treeSeed, cutSeed, querySeed int64) bool {
		tr := testutil.RandomTree(treeSeed, 60)
		ft, err := fragment.Cut(tr, fragment.RandomCuts(tr, 6, cutSeed))
		if err != nil {
			return false
		}
		c, err := xpath.Compile(testutil.RandomQuery(querySeed))
		if err != nil {
			t.Fatal(err)
		}
		rel := AnalyzeRelevance(ft, c)
		for _, fr := range ft.Frags[1:] {
			if rel.Relevant[fr.ID] && !rel.Relevant[fr.Parent] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickPrunedFragmentsHoldNoAnswers: soundness of pruning — no answer
// node ever lives in (or below) a pruned fragment. Verified against the
// oracle on the original tree.
func TestQuickPrunedFragmentsHoldNoAnswers(t *testing.T) {
	f := func(treeSeed, cutSeed, querySeed int64) bool {
		tr := testutil.RandomTree(treeSeed, 70)
		ft, err := fragment.Cut(tr, fragment.RandomCuts(tr, 7, cutSeed))
		if err != nil {
			return false
		}
		query := testutil.RandomQuery(querySeed)
		c, err := xpath.Compile(query)
		if err != nil {
			t.Fatal(err)
		}
		rel := AnalyzeRelevance(ft, c)
		// Which fragment does each original node live in? Walk the
		// fragments' origins (virtual nodes excluded).
		fragOf := make(map[xmltree.NodeID]fragment.FragID, tr.Size())
		origins := ft.Origins()
		for _, fr := range ft.Frags {
			for local, orig := range origins[fr.ID] {
				if _, isVirtual := fr.VirtualAt(xmltree.NodeID(local)); !isVirtual {
					fragOf[orig] = fr.ID
				}
			}
		}
		for _, id := range oracle(t, tr, query) {
			if !rel.Relevant[fragOf[id]] {
				t.Logf("%q: answer %d lives in pruned fragment %d", query, id, fragOf[id])
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickExactInitsMatchTruth: for qualifier-free queries the XA init
// vectors must equal the true parent vectors computed by a centralized
// traversal along the fragment root's ancestor path.
func TestQuickExactInitsMatchTruth(t *testing.T) {
	var alg xpath.BoolAlg
	f := func(treeSeed, cutSeed int64, qPick uint8) bool {
		tr := testutil.RandomTree(treeSeed, 60)
		ft, err := fragment.Cut(tr, fragment.RandomCuts(tr, 5, cutSeed))
		if err != nil {
			return false
		}
		queries := []string{"/root/a/b", "//a/b", "a//c", "//*/b", "/root//d"}
		c := xpath.MustCompile(queries[int(qPick)%len(queries)])
		rel := AnalyzeRelevance(ft, c)
		if !rel.Exact {
			return false
		}
		origins := ft.Origins()
		for _, fr := range ft.Frags[1:] {
			if !rel.Relevant[fr.ID] {
				continue
			}
			// True parent vector: evaluate along the real ancestor chain.
			orig := tr.Node(origins[fr.ID][0])
			var chain []*xmltree.Node
			for n := orig.Parent; n != nil; n = n.Parent {
				chain = append([]*xmltree.Node{n}, chain...)
			}
			vec := xpath.DocSelVector[bool](alg, c)
			for _, n := range chain {
				vec = xpath.NodeSelVector[bool](alg, c, n.Label, vec, func(int) bool { return true }, nil)
			}
			want := rel.Inits[fr.ID]
			for i := range vec {
				if vec[i] != want[i] {
					t.Logf("fragment %d entry %d: init %v truth %v", fr.ID, i, want[i], vec[i])
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickCrossingSound: soundness of the stitch analysis — when an
// answer node is a strict ancestor of some fragment's root, so that its
// ShipXML form holds a stub, Crossing is set. Verified against the oracle
// on the original tree.
func TestQuickCrossingSound(t *testing.T) {
	crossed := 0
	f := func(treeSeed, cutSeed, querySeed int64) bool {
		tr := testutil.RandomTree(treeSeed, 70)
		ft, err := fragment.Cut(tr, fragment.RandomCuts(tr, 7, cutSeed))
		if err != nil {
			return false
		}
		query := testutil.RandomQuery(querySeed)
		c, err := xpath.Compile(query)
		if err != nil {
			t.Fatal(err)
		}
		answer := make(map[xmltree.NodeID]bool)
		for _, id := range oracle(t, tr, query) {
			answer[id] = true
		}
		origins := ft.Origins()
		for _, fr := range ft.Frags[1:] {
			for n := tr.Node(origins[fr.ID][0]).Parent; n != nil; n = n.Parent {
				if answer[n.ID] {
					crossed++
					if !AnalyzeRelevance(ft, c).Crossing {
						t.Logf("%q: answer %d holds fragment %d, Crossing unset", query, n.ID, fr.ID)
						return false
					}
					return true
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
	if crossed == 0 {
		t.Error("no generated case had a crossing answer; the check proved nothing")
	}
}

// TestCrossingExample: an answer crosses only where it may be a strict
// ancestor of a fragment root — not at the root itself, nor beside it.
func TestCrossingExample(t *testing.T) {
	b := xmltree.El("b")
	tr := xmltree.NewTree(xmltree.El("r", xmltree.El("a", b), xmltree.El("c")))
	ft, err := fragment.Cut(tr, []xmltree.NodeID{b.ID})
	if err != nil {
		t.Fatal(err)
	}
	for q, want := range map[string]bool{
		"/r": true, "/r/a": true, "//*": true, "/r/a[x]": true, "//a[. = 'z']": true,
		"/r/a/b": false, "/r/c": false, "//c": false, "/r/x": false,
	} {
		if got := AnalyzeRelevance(ft, xpath.MustCompile(q)).Crossing; got != want {
			t.Errorf("%s: Crossing = %v, want %v", q, got, want)
		}
	}
}
