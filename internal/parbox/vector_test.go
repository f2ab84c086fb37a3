package parbox

import (
	"bytes"
	"testing"

	"paxq/internal/boolexpr"
	"paxq/internal/fragment"
	"paxq/internal/testutil"
	"paxq/internal/xmark"
	"paxq/internal/xmltree"
	"paxq/internal/xpath"
)

// shipBytes mirrors the site's shipping path: one simplifier across the
// fragment's QV and QDV vectors, then the postfix wire encoding. Byte
// identity here is exactly byte identity on the wire.
func shipBytes(rv RootVecs, simplify bool) [][]byte {
	var sim *boolexpr.Simplifier
	if simplify {
		sim = boolexpr.NewSimplifier()
	}
	ship := func(fs []*boolexpr.Formula) []byte {
		if sim != nil {
			fs = sim.Vec(fs)
		}
		var out []byte
		for _, b := range boolexpr.EncodeVec(fs) {
			out = append(out, b...)
		}
		return out
	}
	return [][]byte{ship(rv.QV), ship(rv.QDV)}
}

// requireIdentical asserts the vector pass reproduced the scalar pass
// byte-for-byte: root vectors (raw and simplified encodings), SelQual rows
// and the Work ledger.
func requireIdentical(t *testing.T, tag string, want, got *FragQual) {
	t.Helper()
	if got.Work != want.Work {
		t.Fatalf("%s: Work = %d, scalar %d", tag, got.Work, want.Work)
	}
	for _, simplify := range []bool{false, true} {
		w := shipBytes(want.Root, simplify)
		g := shipBytes(got.Root, simplify)
		for i, name := range []string{"QV", "QDV"} {
			if !bytes.Equal(w[i], g[i]) {
				t.Fatalf("%s: root %s bytes diverge (simplify=%v):\n scalar %x\n vector %x",
					tag, name, simplify, w[i], g[i])
			}
		}
	}
	if (want.SelQual == nil) != (got.SelQual == nil) {
		t.Fatalf("%s: SelQual nil-ness: scalar %v, vector %v", tag, want.SelQual == nil, got.SelQual == nil)
	}
	if len(got.SelQual) != len(want.SelQual) {
		t.Fatalf("%s: SelQual has %d rows, scalar %d", tag, len(got.SelQual), len(want.SelQual))
	}
	for id, wrow := range want.SelQual {
		grow, ok := got.SelQual[id]
		if !ok {
			t.Fatalf("%s: SelQual missing node %d", tag, id)
		}
		if len(grow) != len(wrow) {
			t.Fatalf("%s: SelQual[%d] has %d entries, scalar %d", tag, id, len(grow), len(wrow))
		}
		for e := range wrow {
			if (wrow[e] == nil) != (grow[e] == nil) {
				t.Fatalf("%s: SelQual[%d][%d] nil-ness diverges", tag, id, e)
			}
			if wrow[e] == nil {
				continue
			}
			if !bytes.Equal(boolexpr.Encode(wrow[e]), boolexpr.Encode(grow[e])) {
				t.Fatalf("%s: SelQual[%d][%d] diverges: scalar %v, vector %v", tag, id, e, wrow[e], grow[e])
			}
		}
	}
}

func checkQuery(t *testing.T, ft *fragment.Fragmentation, query string) {
	t.Helper()
	c, err := xpath.Compile(query)
	if err != nil {
		t.Fatalf("compile %q: %v", query, err)
	}
	vs := NewVarScheme(c, ft.Len())
	for _, f := range ft.Frags {
		want := EvalQualFragment(f, c, vs)
		got := NewVectorState(f, c, vs).FragQual()
		requireIdentical(t, query, want, got)
	}
}

// TestVectorMatchesScalarRandom sweeps random (tree, fragmentation, query)
// triples — the same generators the differential harness uses — and
// demands byte identity between the two Stage-1 evaluators on every
// fragment.
func TestVectorMatchesScalarRandom(t *testing.T) {
	seeds := int64(30)
	if testing.Short() {
		seeds = 8
	}
	for seed := int64(0); seed < seeds; seed++ {
		tree := testutil.RandomTree(seed, 40+int(seed%5)*60)
		ft, err := fragment.Cut(tree, fragment.RandomCuts(tree, int(seed%8), seed+1))
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for q := int64(0); q < 4; q++ {
			checkQuery(t, ft, testutil.RandomQuery(seed*100+q))
		}
	}
}

// TestVectorMatchesScalarXMark covers the paper's workload shape plus
// hand-picked queries exercising every QExpr kind (terms, anchors on both
// axes, not/and/or, wildcards, numeric and string comparisons).
func TestVectorMatchesScalarXMark(t *testing.T) {
	tree := xmark.Generate(2, xmark.DefaultSite.Scale(0.05), 7)
	ft, err := fragment.Cut(tree, fragment.TopLevelCuts(tree, 4))
	if err != nil {
		t.Fatal(err)
	}
	queries := []string{
		`/sites/site/people/person[profile/age > 20 and address/country = "US"]/creditcard`,
		`/sites//people/person[profile/age > 20 and address/country = "US"]/creditcard`,
		`//person[not(profile/age > 40) or address]/name`,
		`//open_auction[bidder][.//reserve]/annotation`,
		`//*[person/profile[age > 30]]//name`,
		`//city[. = "Drofnats"]`,
		`//person[.]//age`,
	}
	for _, q := range queries {
		checkQuery(t, ft, q)
	}
}

// TestVectorSingleFragment checks the fully ground path (no virtuals, no
// spine) on a whole tree.
func TestVectorSingleFragment(t *testing.T) {
	tree := testutil.RandomTree(3, 120)
	ft := fragment.Whole(tree)
	checkQuery(t, ft, "//a[b and not(c)]/d")
	checkQuery(t, ft, "//*[a/b > 2]")
}

// TestVectorDeepSpine cuts along a chain so nearly every node is spine.
func TestVectorDeepSpine(t *testing.T) {
	// A deep chain a/b/a/b/... with leaf-level data.
	var build func(d int) *xmltree.Node
	build = func(d int) *xmltree.Node {
		label := "a"
		if d%2 == 1 {
			label = "b"
		}
		n := xmltree.NewElement(label)
		if d == 0 {
			n.Append(xmltree.NewText("7"))
			return n
		}
		n.Append(build(d - 1))
		return n
	}
	tree := xmltree.NewTree(build(12))
	// Cut every third node along the chain: nested fragments, long spines.
	var cuts []xmltree.NodeID
	tree.Walk(func(n *xmltree.Node) bool {
		if n.IsElement() && n.Parent != nil && int(n.ID)%3 == 0 {
			cuts = append(cuts, n.ID)
		}
		return true
	})
	ft, err := fragment.Cut(tree, cuts)
	if err != nil {
		t.Fatal(err)
	}
	checkQuery(t, ft, "//a[b[a > 3]]")
	checkQuery(t, ft, "//b[not(a)]")
	checkQuery(t, ft, `//a[. = "7"]`)
}
