package harness

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"paxq/internal/centeval"
	"paxq/internal/fragment"
	"paxq/internal/pax"
	"paxq/internal/testutil"
	"paxq/internal/wirefmt"
	"paxq/internal/xmark"
	"paxq/internal/xmltree"
	"paxq/internal/xpath"
)

// shipXMLCheck runs query over eng with ShipXML on and compares every
// answer's shipped XML with the serialization of its node in the original
// tree. It returns the answers compared and, among them, those whose
// subtree holds a virtual node: they cross a fragment boundary, and ship
// the sub-fragments' bodies stitched in.
func shipXMLCheck(t *testing.T, tree *xmltree.Tree, ft *fragment.Fragmentation, eng *pax.Engine, query string, alg pax.Algorithm) (res *pax.Result, compared, crossing int) {
	t.Helper()
	res, err := eng.RunContext(context.Background(), query, pax.Options{Algorithm: alg, ShipXML: true})
	if err != nil {
		t.Fatalf("%v %q: %v", alg, query, err)
	}
	origins := ft.Origins()
	origIDs := origAnswerIDs(origins, res.Answers)
	if want := centralIDs(t, tree, query); !testutil.EqualIDs(origIDs, want) {
		t.Fatalf("%v %q: %d answers, centralized %d", alg, query, len(origIDs), len(want))
	}
	if bound := visitBound(alg); res.MaxVisits > bound {
		t.Fatalf("%v %q: %d visits to one site, bound %d", alg, query, res.MaxVisits, bound)
	}
	for _, a := range res.Answers {
		f := ft.Frag(a.Frag)
		if f.VirtualMask.AnyInRange(int(a.Node), int(f.Tree.SubtreeEnd[a.Node])) {
			crossing++
		}
		orig := tree.Node(origins[a.Frag][a.Node])
		if want := xmltree.SerializeString(orig); a.XML != want {
			t.Fatalf("%v %q: answer %d/%d ships\n%q\nthe document's subtree is\n%q", alg, query, a.Frag, a.Node, a.XML, want)
		}
		compared++
	}
	return res, compared, crossing
}

// naiveXMLCheck runs query over eng with NaiveCentralized and ShipXML on.
// Naive serializes each answer from the document it reassembles, so every
// answer, crossing ones included, must ship its node's serialization in
// the original tree. It returns the number of answers compared.
func naiveXMLCheck(t *testing.T, tree *xmltree.Tree, ft *fragment.Fragmentation, eng *pax.Engine, query string) int {
	t.Helper()
	res, err := eng.RunContext(context.Background(), query, pax.Options{Algorithm: pax.Naive, ShipXML: true})
	if err != nil {
		t.Fatalf("naive %q: %v", query, err)
	}
	origins := ft.Origins()
	if got, want := origAnswerIDs(origins, res.Answers), centralIDs(t, tree, query); !testutil.EqualIDs(got, want) {
		t.Fatalf("naive %q: %d answers, centralized %d", query, len(got), len(want))
	}
	for _, a := range res.Answers {
		if want := xmltree.SerializeString(tree.Node(origins[a.Frag][a.Node])); a.XML != want {
			t.Fatalf("naive %q: answer %d/%d ships\n%q\nthe document's subtree is\n%q", query, a.Frag, a.Node, a.XML, want)
		}
	}
	return len(res.Answers)
}

func centralIDs(t *testing.T, tree *xmltree.Tree, query string) []xmltree.NodeID {
	t.Helper()
	c, err := xpath.Compile(query)
	if err != nil {
		t.Fatal(err)
	}
	want := append([]xmltree.NodeID(nil), centeval.EvalVector(tree, c)...)
	slices.Sort(want)
	return want
}

// shippedAnswerBytes is the size of the answers as the answers section
// encodes them: IDs, length prefixes and the label, value and XML strings.
func shippedAnswerBytes(answers []pax.AnswerNode) int64 {
	var n int
	for _, a := range answers {
		n += wirefmt.UvarintLen(uint64(uint32(a.Frag))) + wirefmt.UvarintLen(uint64(uint32(a.Node)))
		for _, s := range []string{a.Label, a.Value, a.XML} {
			n += wirefmt.UvarintLen(uint64(len(s))) + len(s)
		}
	}
	return int64(n)
}

// stubBytes is the size of the stubs the answers ship in place of the
// sub-fragments below them: one <fragment-ref ref="K"/> per virtual node in
// each answer's subtree.
func stubBytes(ft *fragment.Fragmentation, answers []pax.AnswerNode) int64 {
	var n int
	for _, a := range answers {
		f := ft.Frag(a.Frag)
		end := int(f.Tree.SubtreeEnd[a.Node])
		for v := f.VirtualMask.NextSet(int(a.Node), end); v < end; v = f.VirtualMask.NextSet(v+1, end) {
			k, _ := f.VirtualAt(xmltree.NodeID(v))
			n += len(fmt.Sprintf(`<%s ref="%d"/>`, fragment.RefLabel, k))
		}
	}
	return int64(n)
}

// smallBibliography builds a DBLP-shaped document: a <dblp> root over
// sections <bib> sections of article/inproceedings entries, with
// attributes and with text that needs escaping.
func smallBibliography(seed int64, sections, entries int) *xmltree.Tree {
	r := rand.New(rand.NewSource(seed))
	words := []string{"Distributed", "Query", "XPath", "Trees", "&", "<Joins>", `"Exact"`, "Users'", "Müller", "Streams"}
	el, tx := xmltree.El, xmltree.ElT
	root := el("dblp")
	for s := 0; s < sections; s++ {
		bib := el("bib")
		for i := 0; i < entries; i++ {
			tag, venue := "inproceedings", tx("booktitle", "SIGMOD & PODS")
			if i%2 == 0 {
				tag, venue = "article", tx("journal", "Proc. VLDB <Endow.>")
			}
			title := ""
			for w := 3 + r.Intn(4); w > 0; w-- {
				title += words[r.Intn(len(words))] + " "
			}
			e := el(tag,
				tx("author", fmt.Sprintf("Author %d", r.Intn(50))),
				tx("title", title),
				tx("year", fmt.Sprint(1995+r.Intn(30))),
				venue)
			e.SetAttr("key", fmt.Sprintf("conf/x/%d-%d", s, i))
			e.SetAttr("mdate", `2020-01-0"1`)
			bib.Append(e)
		}
		root.Append(bib)
	}
	return xmltree.NewTree(root)
}

// TestShipXMLMatchesDocumentOverTCP is the end-to-end oracle for shipped
// XML: over real TCP sites, every answer ships exactly the serialization
// of its node in the original document, answers that cross a fragment
// boundary included, within the paper's visit bounds. It runs on a small
// bibliography cut at /dblp/bib, where it also checks the paper's traffic
// bound with answers, and on the differential's random trees, cuts and
// queries.
func TestShipXMLMatchesDocumentOverTCP(t *testing.T) {
	algs := []pax.Algorithm{pax.PaX3, pax.PaX2}
	var compared, crossing, naive int

	// The traffic bound: what the coordinator receives beyond the answers
	// themselves, as shipped, is at most trafficC bytes per query entry per
	// fragment. An answer crossing a fragment boundary ships with a stub
	// per sub-fragment below it, which the coordinator fills with the
	// sub-fragment's body, so the answers as shipped are the stitched
	// answers plus those stubs.
	const trafficC = 16
	tree := smallBibliography(1, 4, 30)
	var cuts []xmltree.NodeID
	for _, bib := range tree.Root.Children {
		cuts = append(cuts, bib.ID)
	}
	ft, err := fragment.Cut(tree, cuts)
	if err != nil {
		t.Fatal(err)
	}
	topo := pax.RoundRobin(ft, 2)
	tcp, _, shutdown, err := pax.BuildTCPCluster(topo)
	if err != nil {
		t.Fatal(err)
	}
	defer shutdown()
	eng := pax.NewEngine(topo, tcp)
	for _, query := range []string{
		`/dblp/bib/article`,
		`/dblp/bib/inproceedings`,
		`//title`,
		`/dblp/bib/article[year > 2005]/title`,
		`/dblp/bib`,
		`/dblp`,
	} {
		c, err := xpath.Compile(query)
		if err != nil {
			t.Fatal(err)
		}
		naive += naiveXMLCheck(t, tree, ft, eng, query)
		for _, alg := range algs {
			res, cmp, cross := shipXMLCheck(t, tree, ft, eng, query, alg)
			compared, crossing = compared+cmp, crossing+cross
			ans := shippedAnswerBytes(res.Answers) + stubBytes(ft, res.Answers)
			bound := ans + int64(trafficC*(len(c.Sel)+len(c.Preds))*ft.Len())
			if res.BytesRecv > bound {
				t.Errorf("%v %q: received %d bytes, bound %d (answers with stubs %d + %d·|Q|·|FT|)", alg, query, res.BytesRecv, bound, ans, trafficC)
			}
		}
	}

	for seed := int64(0); seed < 12; seed++ {
		r := rand.New(rand.NewSource(seed))
		tree, isXMark := diffTree(r, seed)
		ft, err := fragment.Cut(tree, fragment.RandomCuts(tree, r.Intn(9), seed+1))
		if err != nil {
			t.Fatal(err)
		}
		topo := pax.RoundRobin(ft, 1+r.Intn(4))
		tcp, _, shutdown, err := pax.BuildTCPCluster(topo)
		if err != nil {
			t.Fatal(err)
		}
		eng := pax.NewEngine(topo, tcp)
		for q := 0; q < 4; q++ {
			query := testutil.RandomQuery(seed*1000 + int64(q))
			if isXMark {
				query = randomXMarkQuery(r)
			}
			naive += naiveXMLCheck(t, tree, ft, eng, query)
			for _, alg := range algs {
				_, cmp, cross := shipXMLCheck(t, tree, ft, eng, query, alg)
				compared, crossing = compared+cmp, crossing+cross
			}
		}
		shutdown()
	}
	t.Logf("all %d shipped answers equal the document's subtree, %d of them crossing a fragment boundary; naive ships all %d of its answers right", compared, crossing, naive)
	// Both counts are pinned: every answer is compared, and the answers
	// that cross a boundary, stitched from sub-fragment bodies, are all
	// among them.
	if compared != 1066 || crossing != 186 {
		t.Fatalf("compared %d answers, %d of them crossing, pinned at 1 066 and 186", compared, crossing)
	}
	if naive != 533 {
		t.Fatalf("naive compared %d answers, pinned at 533, one algorithm's share of the 1 066", naive)
	}
}

// TestShipXMLCrossingAnswersRegression is the regression test for
// answers that cross fragment boundaries, which once shipped each
// sub-fragment below them as an empty virtual node: on XMark 0.5 MB cut
// into 128 fragments, 36 of the answers of /sites/site/people/person
// cross a boundary, and under both algorithms over TCP every one of them
// ships its document subtree, with no virtual node and no stub left in it.
func TestShipXMLCrossingAnswersRegression(t *testing.T) {
	tree := xmark.Generate(1, xmark.Calibrate().SpecForBytes(500_000), 0)
	ft, err := fragment.Cut(tree, fragment.RandomCuts(tree, 127, 0))
	if err != nil {
		t.Fatal(err)
	}
	topo := pax.RoundRobin(ft, 4)
	tcp, _, shutdown, err := pax.BuildTCPCluster(topo)
	if err != nil {
		t.Fatal(err)
	}
	defer shutdown()
	eng := pax.NewEngine(topo, tcp)
	for _, alg := range []pax.Algorithm{pax.PaX3, pax.PaX2} {
		res, _, crossing := shipXMLCheck(t, tree, ft, eng, Q1, alg)
		if crossing != 36 {
			t.Errorf("%v: %d answers cross a fragment boundary, want 36", alg, crossing)
		}
		for _, a := range res.Answers {
			if strings.Contains(a.XML, fragment.VirtualLabel) || strings.Contains(a.XML, fragment.RefLabel) {
				t.Fatalf("%v: answer %d/%d ships %q", alg, a.Frag, a.Node, a.XML)
			}
		}
	}
}
