package pax

import (
	"fmt"
	"testing"

	"paxq/internal/boolexpr"
	"paxq/internal/fragment"
	"paxq/internal/parbox"
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
					init = xpath.DocSelVector[*boolexpr.Formula](parbox.FormulaAlg{}, c)
				} else {
					init = zInit(vs, f.ID, c)
				}
				bound := func(returned int) float64 {
					return float64(perEntry*q*(fragDepth(f)+returned) + fixed)
				}
				name := fmt.Sprintf("%.2fMB frag %d (%d nodes) %s", mb, f.ID, f.Size(), query)

				fq := parbox.NewVectorState(f, c, vs).FragQual()
				env := boolexpr.NewEnv()
				qualAt := func(n *xmltree.Node, entry int) *boolexpr.Formula {
					return env.Resolve(fq.QualAt(n.ID, entry))
				}
				var sel *selOutcome
				allocs := testing.AllocsPerRun(3, func() {
					sel = evalSelection(f, c, init, false, qualAt)
				})
				if got := len(sel.answers) + len(sel.candidates) + len(sel.contexts); allocs > bound(got) {
					t.Errorf("%s: evalSelection %.0f allocs, bound %.0f (returned %d)", name, allocs, bound(got), got)
				}

				var comb *combinedOutcome
				allocs = testing.AllocsPerRun(3, func() {
					comb = evalCombined(f, c, vs, init, false)
				})
				if got := len(comb.answers) + len(comb.candidates) + len(comb.contexts); allocs > bound(got) {
					t.Errorf("%s: evalCombined %.0f allocs, bound %.0f (returned %d)", name, allocs, bound(got), got)
				}
			}
		}
	}
}
