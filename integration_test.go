package paxq_test

import (
	"context"
	"sort"
	"sync"
	"testing"

	"paxq"
	"paxq/internal/centeval"
	"paxq/internal/fragment"
	"paxq/internal/harness"
	"paxq/internal/pax"
	"paxq/internal/xmark"
	"paxq/internal/xmltree"
	"paxq/internal/xpath"
)

// documentOf round-trips a generated tree through the public parser.
func documentOf(t *testing.T, tree *xmltree.Tree) *paxq.Document {
	t.Helper()
	doc, err := paxq.ParseDocumentString(xmltree.SerializeString(tree.Root))
	if err != nil {
		t.Fatal(err)
	}
	return doc
}

// TestSoakXMarkAllVariants is the repository's end-to-end soak test: a
// realistically shaped XMark document (~60k nodes), fragmented three
// different ways (top-level, size-based, random-nested) and deployed over
// several sites, queried with the paper's Q1–Q4 plus a batch of additional
// queries, across every algorithm/annotation combination — all checked
// against the centralized oracle.
func TestSoakXMarkAllVariants(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test skipped in -short mode")
	}
	tree := xmark.Generate(3, xmark.DefaultSite.Scale(2), 99)
	queries := []string{
		harness.Q1, harness.Q2, harness.Q3, harness.Q4,
		"/sites/site/regions/namerica/item/name",
		`//open_auction[current/val() > 100]/itemref`,
		`//person[not(creditcard)]/name`,
		`//item[location = "US" or location = "Canada"]//text`,
		`//closed_auction[price/val() >= 100 and price/val() < 300]/date`,
		"/sites/site/*/person",
		`//annotation[happiness/val() >= 7]/author`,
	}
	type cutSpec struct {
		name string
		cuts []xmltree.NodeID
	}
	var specs []cutSpec
	var top []xmltree.NodeID
	tree.Root.ElementChildren(func(n *xmltree.Node) bool {
		top = append(top, n.ID)
		return true
	})
	specs = append(specs, cutSpec{"top-level", top[1:]})
	specs = append(specs, cutSpec{"by-size", fragment.CutsBySize(tree, 8000)})
	specs = append(specs, cutSpec{"random-nested", fragment.RandomCuts(tree, 12, 5)})

	variants := []pax.Options{
		{Algorithm: pax.PaX3},
		{Algorithm: pax.PaX3, Annotations: true},
		{Algorithm: pax.PaX2},
		{Algorithm: pax.PaX2, Annotations: true},
	}

	for _, spec := range specs {
		ft, err := fragment.Cut(tree, spec.cuts)
		if err != nil {
			t.Fatalf("%s: %v", spec.name, err)
		}
		topo := pax.RoundRobin(ft, 4)
		local, _ := pax.BuildLocalCluster(topo)
		eng := pax.NewEngine(topo, local)
		for _, query := range queries {
			c := xpath.MustCompile(query)
			want := centeval.EvalVector(tree, c)
			for _, opts := range variants {
				res, err := eng.RunContext(context.Background(), query, opts)
				if err != nil {
					t.Fatalf("%s %v %q: %v", spec.name, opts.Algorithm, query, err)
				}
				got := make([]xmltree.NodeID, 0, len(res.Answers))
				for _, a := range res.Answers {
					got = append(got, ft.Frag(a.Frag).Origin[a.Node])
				}
				sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
				if len(got) != len(want) {
					t.Fatalf("%s %v(XA=%v) %q: %d answers, want %d",
						spec.name, opts.Algorithm, opts.Annotations, query, len(got), len(want))
				}
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("%s %v(XA=%v) %q: answer mismatch at %d",
							spec.name, opts.Algorithm, opts.Annotations, query, i)
					}
				}
				maxVisits := 3
				if opts.Algorithm == pax.PaX2 {
					maxVisits = 2
				}
				if res.MaxVisits > maxVisits {
					t.Fatalf("%s %v %q: %d visits", spec.name, opts.Algorithm, query, res.MaxVisits)
				}
			}
		}
	}
}

// TestSoakBooleanProtocol runs a batch of Boolean queries over the soak
// document through the one-visit protocol.
func TestSoakBooleanProtocol(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test skipped in -short mode")
	}
	tree := xmark.Generate(2, xmark.DefaultSite, 17)
	ft, err := fragment.Cut(tree, fragment.RandomCuts(tree, 8, 3))
	if err != nil {
		t.Fatal(err)
	}
	topo := pax.RoundRobin(ft, 3)
	local, _ := pax.BuildLocalCluster(topo)
	eng := pax.NewEngine(topo, local)
	queries := []string{
		`[//person/address/country = "US"]`,
		`[//person/address/country = "Atlantis"]`,
		`[//open_auction[current/val() > 10] and //closed_auction]`,
		`[not(//unheard_of)]`,
		`[//annotation/happiness/val() >= 1]`,
	}
	for _, q := range queries {
		want := centeval.EvalBool(tree, xpath.MustCompile(q))
		got, res, err := eng.RunBooleanContext(context.Background(), q, pax.Options{})
		if err != nil {
			t.Fatalf("%q: %v", q, err)
		}
		if got != want {
			t.Errorf("%q = %v want %v", q, got, want)
		}
		if res.MaxVisits > 1 {
			t.Errorf("%q: %d visits", q, res.MaxVisits)
		}
	}
}

// TestClusterConcurrentQueries exercises the public serving contract: one
// Cluster over the TCP transport, queried from many goroutines at once,
// with every response's Stats covering its own query alone (visit bound
// and deterministic request bytes both hold per query).
func TestClusterConcurrentQueries(t *testing.T) {
	tree := xmark.Generate(2, xmark.DefaultSite, 7)
	doc := documentOf(t, tree)
	cluster, err := paxq.NewCluster(doc, paxq.ClusterOptions{
		Fragments: 6,
		Sites:     3,
		Transport: paxq.TransportTCP,
		Seed:      11,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()

	queries := []string{
		harness.Q1,
		harness.Q2,
		"/sites/site/regions/namerica/item/name",
		`//person[not(creditcard)]/name`,
	}
	opts := paxq.QueryOptions{Algorithm: "pax3", Annotations: true}

	// Solo baselines: answer counts and the (deterministic) sent bytes.
	// Exact BytesSent equality relies on every QueryID encoding to the
	// same uvarint width, which holds while total runs on this cluster stay
	// under 128 (4 solo + 24 concurrent here).
	type base struct {
		answers int
		sent    int64
	}
	bases := make([]base, len(queries))
	for i, q := range queries {
		ans, stats, err := cluster.Query(q, opts)
		if err != nil {
			t.Fatalf("solo %q: %v", q, err)
		}
		bases[i] = base{answers: len(ans), sent: stats.BytesSent}
	}

	const workers = 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 3; i++ {
				qi := (w + i) % len(queries)
				ans, stats, err := cluster.Query(queries[qi], opts)
				if err != nil {
					t.Errorf("worker %d %q: %v", w, queries[qi], err)
					return
				}
				if len(ans) != bases[qi].answers {
					t.Errorf("%q: %d answers, solo run had %d", queries[qi], len(ans), bases[qi].answers)
				}
				if stats.BytesSent != bases[qi].sent {
					t.Errorf("%q: BytesSent = %d, solo run had %d — stats leaked across queries",
						queries[qi], stats.BytesSent, bases[qi].sent)
				}
				if stats.MaxSiteVisits > 3 {
					t.Errorf("%q: MaxSiteVisits = %d", queries[qi], stats.MaxSiteVisits)
				}
			}
		}()
	}
	wg.Wait()
}
