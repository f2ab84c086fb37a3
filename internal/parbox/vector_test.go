package parbox

import (
	"bytes"
	"fmt"
	"runtime/debug"
	"testing"

	"paxq/internal/boolexpr"
	"paxq/internal/fragment"
	"paxq/internal/testutil"
	"paxq/internal/xmark"
	"paxq/internal/xmltree"
	"paxq/internal/xpath"
)

// shipBytes mirrors the site's shipping path: the postfix wire encoding
// of the fragment's QV and QDV vectors, as built. Byte identity here is
// exactly byte identity on the wire.
func shipBytes(rv RootVecs) [][]byte {
	ship := func(fs []*boolexpr.Formula) []byte {
		var out []byte
		for _, b := range boolexpr.EncodeVec(fs) {
			out = append(out, b...)
		}
		return out
	}
	return [][]byte{ship(rv.QV), ship(rv.QDV)}
}

// requireIdentical asserts the vector pass reproduced the scalar pass
// byte-for-byte, each built with its own Builder: root vectors, the
// qualifier of every selection entry at every real element read through
// QualAt, and the Work ledger. It also holds the vector pass to its shape:
// formula rows on the spine only.
func requireIdentical(t *testing.T, tag string, f *fragment.Fragment, c *xpath.Compiled, want, got *FragQual) {
	t.Helper()
	if got.Work != want.Work {
		t.Fatalf("%s: Work = %d, scalar %d", tag, got.Work, want.Work)
	}
	w, g := shipBytes(want.Root), shipBytes(got.Root)
	for i, name := range []string{"QV", "QDV"} {
		if !bytes.Equal(w[i], g[i]) {
			t.Fatalf("%s: root %s bytes diverge:\n scalar %x\n vector %x", tag, name, w[i], g[i])
		}
	}
	wantRows := 0
	if c.HasQualifiers() {
		wantRows = f.SpineMask.OnesCount()
	}
	if len(got.rows) != wantRows {
		t.Fatalf("%s: vector pass keeps %d formula rows, want %d (one per spine node)", tag, len(got.rows), wantRows)
	}
	f.Tree.ToTree().Walk(func(n *xmltree.Node) bool {
		if _, virtual := f.VirtualAt(n.ID); n.Kind != xmltree.Element || virtual {
			return true
		}
		for e := range c.Sel {
			wq, gq := want.QualAt(n.ID, e), got.QualAt(n.ID, e)
			if (wq == nil) != (gq == nil) {
				t.Fatalf("%s: QualAt(%d, %d) nil-ness: scalar %v, vector %v", tag, n.ID, e, wq == nil, gq == nil)
			}
			if wq != nil && !bytes.Equal(boolexpr.Encode(wq), boolexpr.Encode(gq)) {
				t.Fatalf("%s: QualAt(%d, %d) diverges: scalar %v, vector %v", tag, n.ID, e, wq, gq)
			}
		}
		return true
	})
}

func checkQuery(t *testing.T, ft *fragment.Fragmentation, query string) {
	t.Helper()
	c, err := xpath.Compile(query)
	if err != nil {
		t.Fatalf("compile %q: %v", query, err)
	}
	vs := NewVarScheme(c, ft.Len())
	for _, f := range ft.Frags {
		want := EvalQualFragment(f, c, vs, &boolexpr.Builder{})
		got := Qualify(f, c, vs, &boolexpr.Builder{})
		requireIdentical(t, query, f, c, want, got)
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

// passAllocs measures one Qualify per fragment and query over the
// allocation ladder: three XMark documents up to forty times apart, each
// cut at every people and open_auctions into nine fragments. check
// receives each measurement.
func passAllocs(t *testing.T, check func(tag string, f *fragment.Fragment, c *xpath.Compiled, allocs float64)) {
	t.Helper()
	queries := []string{
		`/sites/site/people/person[profile/age > 20 and address/country = "US"]/creditcard`,
		`/sites//people/person[profile/age > 20 and address/country = "US"]/creditcard`,
		`//open_auction[bidder]//date`,
		`//item/name`,
	}
	cal := xmark.Calibrate()
	for _, mb := range []float64{0.05, 0.5, 2} {
		tr := xmark.Generate(4, cal.SpecForBytes(int(mb*1e6/4)), 1)
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
		for _, query := range queries {
			c := xpath.MustCompile(query)
			vs := NewVarScheme(c, ft.Len())
			for _, f := range ft.Frags {
				allocs := testing.AllocsPerRun(3, func() {
					Qualify(f, c, vs, &boolexpr.Builder{})
				})
				tag := fmt.Sprintf("%.2f MB frag %d (%d nodes, spine %d, virtuals %d) %s",
					mb, f.ID, f.Size(), f.SpineMask.OnesCount(), f.NumVirtuals(), query)
				check(tag, f, c, allocs)
			}
		}
	}
}

// TestQualPassAllocsPerSpine is the counted property of the Stage-1 pass:
// Qualify allocates per query entry, per spine node and per virtual node,
// never per node. Every fragment of the ladder must stay under
// allocs ≤ a·|Q|·(spine + virtuals) + b·|Q|; a pass that keeps a row per
// element breaks the bound on the larger documents by orders of magnitude.
func TestQualPassAllocsPerSpine(t *testing.T) {
	const (
		perSpine = 2 // a: rows, variables and Or nodes per entry per spine or virtual node
		perEntry = 8 // b: masks per entry
	)
	passAllocs(t, func(tag string, f *fragment.Fragment, c *xpath.Compiled, allocs float64) {
		q := len(c.Sel) + len(c.Preds)
		spine := f.SpineMask.OnesCount()
		if bound := float64(perSpine*q*(spine+f.NumVirtuals()) + perEntry*q); allocs > bound {
			t.Errorf("%s: %.0f allocs, bound %.0f", tag, allocs, bound)
		}
	})
}

// TestMaskPassAllocs counts the mask half of the Stage-1 pass exactly
// enough to see one mask allocated: the base mask, every predicate's QV,
// QCV and strict-QDV masks and every operand temporary are carved from the
// visit's pooled slab, and only a selection entry's qualifier mask, which a
// memoized result keeps, is a mask of its own. Every fragment of the ladder must
// stay under
// allocs ≤ b·|qualified Sel| + c·(|Preds|+1)·(spine + virtuals) + d,
// with no per-predicate term. The fragments without virtuals have no
// spine term, so there a pass that allocates any predicate mask or
// temporary breaks the bound. The count is steady state only without the
// race detector, which makes the pool drop a random share of its Puts.
func TestMaskPassAllocs(t *testing.T) {
	if raceEnabled() {
		t.Skip("sync.Pool drops a random share of Puts under -race, so the slab is not reused in steady state")
	}
	const (
		perSel   = 1 // b: the entry's qualifier mask
		perSpine = 3 // c: the kept selection row and formula nodes per predicate per spine or virtual node
		fixed    = 7 // d: the Builder, the result, the mask tables, the selection-mask table, the spine-row map and the root vectors
	)
	passAllocs(t, func(tag string, f *fragment.Fragment, c *xpath.Compiled, allocs float64) {
		qualified := 0
		for _, se := range c.Sel {
			if se.Kind == xpath.SelStep && se.Qual != nil {
				qualified++
			}
		}
		spine := f.SpineMask.OnesCount()
		bound := float64(perSel*qualified + perSpine*(len(c.Preds)+1)*(spine+f.NumVirtuals()) + fixed)
		if allocs > bound {
			t.Errorf("%s: %.0f allocs, bound %.0f", tag, allocs, bound)
		}
	})
}

// TestPooledMasksDoNotLeak holds the slab's lifetime to the visit: a pass
// over fragment A keeps its result, then passes of a different query over
// fragment B reuse A's pooled slab and overwrite every word A's pass
// carved from it. Every qualifier value A's result reads through QualAt,
// and its root vectors, must encode exactly as before — a kept mask carved
// from the slab would have changed with B's masks.
func TestPooledMasksDoNotLeak(t *testing.T) {
	tree := xmark.Generate(2, xmark.DefaultSite.Scale(0.2), 7)
	ft, err := fragment.Cut(tree, fragment.TopLevelCuts(tree, 4))
	if err != nil {
		t.Fatal(err)
	}
	// One fragment per XMark site: both hold people and auctions.
	fA, fB := ft.Frags[1], ft.Frags[2]
	cA := xpath.MustCompile(`//open_auction[bidder][.//reserve or not(seller)]/annotation`)
	cB := xpath.MustCompile(`//person[profile/age > 20 and not(address/country = "US")]//name`)
	// B's pass must fit the slab B's first pass leaves in the pool and
	// cover every word A's pass carves from it.
	if need := func(f *fragment.Fragment, c *xpath.Compiled) int {
		return slabMasks(c) * len(f.VirtualMask)
	}; need(fB, cB) < need(fA, cA) {
		t.Fatalf("B's pass carves %d words, fewer than A's %d", need(fB, cB), need(fA, cA))
	}
	// encode records A's result: its root vectors and every QualAt.
	encode := func(fq *FragQual) [][]byte {
		out := shipBytes(fq.Root)
		fA.Tree.ToTree().Walk(func(n *xmltree.Node) bool {
			if _, virtual := fA.VirtualAt(n.ID); n.Kind != xmltree.Element || virtual {
				return true
			}
			for e := range cA.Sel {
				if q := fq.QualAt(n.ID, e); q != nil {
					out = append(out, boolexpr.Encode(q))
				}
			}
			return true
		})
		return out
	}
	passB := func() { Qualify(fB, cB, NewVarScheme(cB, ft.Len()), &boolexpr.Builder{}) }
	passB() // leaves a slab large enough for both passes in the pool
	fq := Qualify(fA, cA, NewVarScheme(cA, ft.Len()), &boolexpr.Builder{})
	want := encode(fq)
	for i := 0; i < 4; i++ {
		passB()
	}
	got := encode(fq)
	if len(got) != len(want) {
		t.Fatalf("A's result reads %d values after B's passes, %d before", len(got), len(want))
	}
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("A's value %d changed with B's passes: %x, was %x", i, got[i], want[i])
		}
	}
}

// raceEnabled reports whether the test binary was built with -race.
func raceEnabled() bool {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return false
	}
	for _, s := range bi.Settings {
		if s.Key == "-race" {
			return s.Value == "true"
		}
	}
	return false
}
