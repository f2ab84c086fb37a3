package pax

import (
	"sort"
	"testing"
	"testing/quick"

	"paxq/internal/centeval"
	"paxq/internal/fragment"
	"paxq/internal/testutil"
	"paxq/internal/xmltree"
	"paxq/internal/xpath"
)

// origIDs maps distributed answers to original-tree node IDs, sorted.
func origIDs(ft *fragment.Fragmentation, ans []AnswerNode) []xmltree.NodeID {
	out := make([]xmltree.NodeID, 0, len(ans))
	for _, a := range ans {
		out = append(out, ft.Frag(a.Frag).Origin[a.Node])
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// oracle evaluates on the unfragmented tree, sorted.
func oracle(t testing.TB, tr *xmltree.Tree, query string) []xmltree.NodeID {
	t.Helper()
	q, err := xpath.Parse(query)
	if err != nil {
		t.Fatalf("%q: %v", query, err)
	}
	ids := testutil.IDsOfNodes(centeval.EvalNaive(tr, q))
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// cluster builds an engine over a fresh local cluster.
func cluster(tr *xmltree.Tree, cuts []xmltree.NodeID, numSites int) (*Engine, *fragment.Fragmentation, error) {
	ft, err := fragment.Cut(tr, cuts)
	if err != nil {
		return nil, nil, err
	}
	topo := RoundRobin(ft, numSites)
	local, _ := BuildLocalCluster(topo)
	return NewEngine(topo, local), ft, nil
}

// queries exercised on the Fig. 1 tree: a mix of qualifier-free and
// qualified, child-only and descendant, matching and empty.
var fig1Queries = []string{
	"client/name",
	"/clientele/client/broker/name",
	"//name",
	"//stock/code",
	"//market//code",
	`//broker[//stock/code/text() = "GOOG"]/name`,
	`//broker[//stock/code = "GOOG" and not(//stock/code = "YHOO")]/name`,
	`client[country/text() = "US"]/broker[market/name/text() = "NASDAQ"]/name`,
	`//stock[buy/val() > 375]/code`,
	`client[not(country = "US")]/broker/name`,
	`client[country = "Canada" or broker/market/name = "NYSE"]/name`,
	"client/nonexistent",
	"/wrongroot/name",
	`//stock[qt/val() >= 40 and qt/val() < 80]/code`,
}

// allOptions covers every algorithm/annotation combination.
var allOptions = []Options{
	{Algorithm: PaX3},
	{Algorithm: PaX3, Annotations: true},
	{Algorithm: PaX2},
	{Algorithm: PaX2, Annotations: true},
	{Algorithm: Naive},
}

func TestFig1AllAlgorithmsAllQueries(t *testing.T) {
	tr := testutil.PaperTree()
	for _, k := range []int{0, 2, 4, 7} {
		cuts := fragment.RandomCuts(tr, k, int64(31+k))
		for _, numSites := range []int{1, 3} {
			eng, ft, err := cluster(tr, cuts, numSites)
			if err != nil {
				t.Fatal(err)
			}
			for _, query := range fig1Queries {
				want := oracle(t, tr, query)
				for _, opts := range allOptions {
					res, err := eng.Run(query, opts)
					if err != nil {
						t.Fatalf("k=%d sites=%d %s %q: %v", k, numSites, opts.Algorithm, query, err)
					}
					got := origIDs(ft, res.Answers)
					if !testutil.EqualIDs(got, want) {
						t.Errorf("k=%d sites=%d %s(XA=%v) %q:\n got %v\nwant %v",
							k, numSites, opts.Algorithm, opts.Annotations, query, got, want)
					}
				}
			}
		}
	}
}

func TestVisitBoundPaX3(t *testing.T) {
	tr := testutil.PaperTree()
	eng, _, err := cluster(tr, fragment.RandomCuts(tr, 5, 9), 4)
	if err != nil {
		t.Fatal(err)
	}
	// Qualified query: at most 3 visits.
	res, err := eng.Run(`//broker[//stock/code = "GOOG"]/name`, Options{Algorithm: PaX3})
	if err != nil {
		t.Fatal(err)
	}
	if res.MaxVisits > 3 {
		t.Errorf("PaX3 qualified: MaxVisits = %d > 3", res.MaxVisits)
	}
	if res.Stages > 3 {
		t.Errorf("PaX3 qualified: Stages = %d > 3", res.Stages)
	}
	// Qualifier-free query: Stage 1 skipped, at most 2 visits.
	res, err = eng.Run("//name", Options{Algorithm: PaX3})
	if err != nil {
		t.Fatal(err)
	}
	if res.MaxVisits > 2 {
		t.Errorf("PaX3 unqualified: MaxVisits = %d > 2", res.MaxVisits)
	}
}

func TestVisitBoundPaX2(t *testing.T) {
	tr := testutil.PaperTree()
	eng, _, err := cluster(tr, fragment.RandomCuts(tr, 5, 9), 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, query := range fig1Queries {
		res, err := eng.Run(query, Options{Algorithm: PaX2})
		if err != nil {
			t.Fatal(err)
		}
		if res.MaxVisits > 2 {
			t.Errorf("PaX2 %q: MaxVisits = %d > 2", query, res.MaxVisits)
		}
	}
}

func TestVisitBoundXAUnqualified(t *testing.T) {
	// §5: with annotations and no qualifiers the final stage is skipped —
	// PaX2 needs a single visit, PaX3 at most two.
	tr := testutil.PaperTree()
	eng, _, err := cluster(tr, fragment.RandomCuts(tr, 5, 9), 4)
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Run("//stock/code", Options{Algorithm: PaX2, Annotations: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.MaxVisits > 1 {
		t.Errorf("PaX2-XA unqualified: MaxVisits = %d > 1", res.MaxVisits)
	}
	res, err = eng.Run("//stock/code", Options{Algorithm: PaX3, Annotations: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.MaxVisits > 1 { // only the selection stage runs
		t.Errorf("PaX3-XA unqualified: MaxVisits = %d > 1", res.MaxVisits)
	}
}

func TestAnnotationPruning(t *testing.T) {
	// client/name over Fig. 1 fragmentation: market/broker fragments are
	// irrelevant (Example 5.1's reasoning).
	tr := testutil.PaperTree()
	var cuts []xmltree.NodeID
	tr.Walk(func(n *xmltree.Node) bool {
		if n.IsElement() && (n.Label == "broker" || n.Label == "market") {
			// Cut only top-level brokers to keep nesting simple.
			if n.Label == "broker" {
				cuts = append(cuts, n.ID)
			}
		}
		return true
	})
	eng, ft, err := cluster(tr, cuts, 3)
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Run("client/name", Options{Algorithm: PaX2, Annotations: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.RelevantFrags != 1 {
		t.Errorf("RelevantFrags = %d, want 1 (only the root fragment)", res.RelevantFrags)
	}
	if len(res.Answers) != 3 {
		t.Errorf("answers = %v", res.Answers)
	}
	// Without annotations everything participates.
	res, err = eng.Run("client/name", Options{Algorithm: PaX2})
	if err != nil {
		t.Fatal(err)
	}
	if res.RelevantFrags != ft.Len() {
		t.Errorf("without XA RelevantFrags = %d, want %d", res.RelevantFrags, ft.Len())
	}
}

func TestNoMatchPrunesEverything(t *testing.T) {
	tr := testutil.PaperTree()
	eng, _, err := cluster(tr, fragment.RandomCuts(tr, 3, 5), 2)
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Run("/wrongroot/x", Options{Algorithm: PaX2, Annotations: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.RelevantFrags != 0 || res.MaxVisits != 0 || len(res.Answers) != 0 {
		t.Errorf("expected zero-cost empty answer, got %+v", res)
	}
}

func TestShipXML(t *testing.T) {
	tr := testutil.PaperTree()
	eng, _, err := cluster(tr, fragment.RandomCuts(tr, 4, 2), 3)
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Run(`//stock[code = "IBM"]`, Options{Algorithm: PaX2, ShipXML: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Answers) != 1 {
		t.Fatalf("answers = %+v", res.Answers)
	}
	back, err := xmltree.ParseString(res.Answers[0].XML)
	if err != nil {
		t.Fatalf("shipped XML unparseable: %v", err)
	}
	if back.Root.Label != "stock" {
		t.Errorf("shipped subtree root = %q", back.Root.Label)
	}
}

func TestNaiveTrafficDominates(t *testing.T) {
	// The naive baseline ships the whole tree; PaX ships vectors and
	// answers. On a tree much larger than the answer, naive traffic must
	// exceed PaX traffic.
	tr := testutil.RandomTree(11, 4000)
	eng, _, err := cluster(tr, fragment.RandomCuts(tr, 6, 3), 3)
	if err != nil {
		t.Fatal(err)
	}
	query := `//a[b = "x"]/c[d]`
	naive, err := eng.Run(query, Options{Algorithm: Naive})
	if err != nil {
		t.Fatal(err)
	}
	pax, err := eng.Run(query, Options{Algorithm: PaX2})
	if err != nil {
		t.Fatal(err)
	}
	naiveBytes := naive.BytesRecv
	paxBytes := pax.BytesRecv
	if naiveBytes < 4*paxBytes {
		t.Errorf("naive recv %d bytes, PaX2 recv %d bytes: expected naive >> PaX", naiveBytes, paxBytes)
	}
}

func TestCommunicationBound(t *testing.T) {
	// §3.4: PaX traffic is O(|Q|·|FT| + |ans|), independent of |T|. Double
	// the tree with the same fragment count and answer size: traffic must
	// stay nearly constant while naive traffic roughly doubles.
	query := `//zzz`
	build := func(size int) *Engine {
		tr := testutil.RandomTree(5, size)
		eng, _, err := cluster(tr, fragment.RandomCuts(tr, 8, 2), 4)
		if err != nil {
			t.Fatal(err)
		}
		return eng
	}
	small, large := build(2000), build(8000)
	rSmall, err := small.Run(query, Options{Algorithm: PaX2})
	if err != nil {
		t.Fatal(err)
	}
	rLarge, err := large.Run(query, Options{Algorithm: PaX2})
	if err != nil {
		t.Fatal(err)
	}
	sb := rSmall.BytesSent + rSmall.BytesRecv
	lb := rLarge.BytesSent + rLarge.BytesRecv
	if lb > sb*2 {
		t.Errorf("PaX2 traffic grew with tree size: %d -> %d bytes", sb, lb)
	}
}

func TestTCPClusterEndToEnd(t *testing.T) {
	tr := testutil.PaperTree()
	ft, err := fragment.Cut(tr, fragment.RandomCuts(tr, 4, 13))
	if err != nil {
		t.Fatal(err)
	}
	topo := RoundRobin(ft, 3)
	tcp, _, shutdown, err := BuildTCPCluster(topo)
	if err != nil {
		t.Fatal(err)
	}
	defer shutdown()
	eng := NewEngine(topo, tcp)
	for _, query := range fig1Queries[:6] {
		want := oracle(t, tr, query)
		for _, opts := range allOptions {
			res, err := eng.Run(query, opts)
			if err != nil {
				t.Fatalf("%s %q over TCP: %v", opts.Algorithm, query, err)
			}
			if got := origIDs(ft, res.Answers); !testutil.EqualIDs(got, want) {
				t.Errorf("%s(XA=%v) %q over TCP: got %v want %v", opts.Algorithm, opts.Annotations, query, got, want)
			}
		}
	}
}

// The central property test: PaX3, PaX2, with and without annotations, and
// the naive baseline all agree with the centralized oracle on random trees,
// random queries, random fragmentations and random site assignments.
func TestQuickDistributedVsOracle(t *testing.T) {
	f := func(treeSeed, cutSeed, querySeed int64, kRaw, sitesRaw uint8) bool {
		k := int(kRaw % 9)
		numSites := 1 + int(sitesRaw%4)
		tr := testutil.RandomTree(treeSeed, 70)
		query := testutil.RandomQuery(querySeed)
		if _, err := xpath.Compile(query); err != nil {
			t.Fatalf("generated invalid query %q: %v", query, err)
		}
		eng, ft, err := cluster(tr, fragment.RandomCuts(tr, k, cutSeed), numSites)
		if err != nil {
			t.Logf("cluster: %v", err)
			return false
		}
		want := oracle(t, tr, query)
		for _, opts := range allOptions {
			res, err := eng.Run(query, opts)
			if err != nil {
				t.Logf("%s(XA=%v) %q: %v", opts.Algorithm, opts.Annotations, query, err)
				return false
			}
			got := origIDs(ft, res.Answers)
			if !testutil.EqualIDs(got, want) {
				t.Logf("%s(XA=%v) %q (tree %d cuts %d k %d sites %d):\n got %v\nwant %v",
					opts.Algorithm, opts.Annotations, query, treeSeed, cutSeed, k, numSites, got, want)
				return false
			}
			if opts.Algorithm == PaX2 && res.MaxVisits > 2 {
				t.Logf("PaX2 visit bound violated: %d", res.MaxVisits)
				return false
			}
			if opts.Algorithm == PaX3 && res.MaxVisits > 3 {
				t.Logf("PaX3 visit bound violated: %d", res.MaxVisits)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

func TestResultMetadata(t *testing.T) {
	tr := testutil.PaperTree()
	eng, ft, err := cluster(tr, fragment.RandomCuts(tr, 3, 17), 2)
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Run(`//broker[//stock/code = "GOOG"]/name`, Options{Algorithm: PaX3})
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalFrags != ft.Len() || res.RelevantFrags != ft.Len() {
		t.Errorf("fragment counts: %d/%d", res.RelevantFrags, res.TotalFrags)
	}
	if res.Stages != len(res.StageWall) {
		t.Errorf("stage bookkeeping: %d stages, %d walls", res.Stages, len(res.StageWall))
	}
	if res.Wall <= 0 || res.TotalCompute <= 0 {
		t.Errorf("timings: wall=%v compute=%v", res.Wall, res.TotalCompute)
	}
	// Answers sorted by (frag, node).
	for i := 1; i < len(res.Answers); i++ {
		a, b := res.Answers[i-1], res.Answers[i]
		if a.Frag > b.Frag || (a.Frag == b.Frag && a.Node > b.Node) {
			t.Error("answers not sorted")
		}
	}
}

func TestUnknownAlgorithm(t *testing.T) {
	tr := testutil.PaperTree()
	eng, _, err := cluster(tr, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Run("//name", Options{Algorithm: Algorithm(99)}); err == nil {
		t.Fatal("unknown algorithm must error")
	}
	if _, err := eng.Run("][", Options{}); err == nil {
		t.Fatal("bad query must error")
	}
}

// TestEvalFragsPanicIsFragmentError: a panic while a site evaluates one
// fragment fails the walk with an error naming that fragment — what lets a
// panic fail only its request — after the fragments before it ran and
// before any after it does.
func TestEvalFragsPanicIsFragmentError(t *testing.T) {
	var ran []fragment.FragID
	frags := []*fragment.Fragment{{ID: 1}, {ID: 4}, {ID: 6}}
	err := evalFrags(frags, func(i int, f *fragment.Fragment) error {
		ran = append(ran, f.ID)
		if f.ID == 4 {
			panic("corrupt fragment")
		}
		return nil
	})
	if err == nil || err.Error() != "pax: fragment 4: panic: corrupt fragment" {
		t.Fatalf("err = %v, want the panic of fragment 4", err)
	}
	if len(ran) != 2 {
		t.Fatalf("ran fragments %v, want [1 4]", ran)
	}
}
