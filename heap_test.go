package paxq

import (
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"testing"
	"unsafe"

	"paxq/internal/pax"
	"paxq/internal/testutil"
)

// raceEnabled reports whether the test binary was built with -race, whose
// shadow memory makes heap measurements meaningless.
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

// distinctQualified returns the i-th of a stream of qualified XMark queries
// that never repeats: five query shapes, each with a numeric threshold that
// moves with i.
func distinctQualified(i int) string {
	countries := []string{"US", "Canada", "Germany", "Japan", "Brazil", "India", "France"}
	_, u := math.Modf(float64(i) * 0.6180339887498949)
	country := countries[i%len(countries)]
	switch i % 5 {
	case 0:
		return fmt.Sprintf(`/sites/site/people/person[profile/age > %.4f and address/country = "%s"]/creditcard`, 18+30*u, country)
	case 1:
		return fmt.Sprintf(`/sites/site/open_auctions/open_auction[initial > %.4f and quantity > %d]/current`, 5+150*u, i%4)
	case 2:
		return fmt.Sprintf(`/sites//closed_auction[price > %.4f and quantity < %d]/buyer`, 10+400*u, 3+i%4)
	case 3:
		return fmt.Sprintf(`/sites/site/regions//item[location = "%s" and quantity > %.4f]/name`, country, 7*u)
	default:
		return fmt.Sprintf(`/sites//people/person[profile/age < %.4f or address/country = "%s"]/emailaddress`, 19+40*u, country)
	}
}

// liveHeap returns the bytes of live heap objects after two collections.
func liveHeap() uint64 {
	var m runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// TestDistinctQueriesRetainBoundedHeap: a stream of distinct qualified
// queries must not grow the live heap beyond the bounded plan and compile
// caches. Sites keep no per-query state, and keep a text's Stage-1
// results from its first use on, in the bounded compile cache, so 300
// distinct queries over XMark 0.5 MB (8 fragments on 4 sites) may
// leave at most 16 MB behind. Any cache of Stage-1 results must pass this
// too: one that keeps per-node formula maps grows by about 0.85 MB per
// query here.
func TestDistinctQueriesRetainBoundedHeap(t *testing.T) {
	retainedHeap(t, 1)
}

// TestRepeatedQueriesRetainBoundedHeap: the same stream, each query run
// twice, so every site memoizes every query's Stage-1 results: the memo
// lives in the compile cache's entries, 256 texts per site, and stays
// within the same 16 MB.
func TestRepeatedQueriesRetainBoundedHeap(t *testing.T) {
	retainedHeap(t, 2)
}

// retainedHeap runs 300 distinct qualified queries, each runs times in a
// row, and fails when the live heap grows by more than 16 MB.
func retainedHeap(t *testing.T, runs int) {
	if testing.Short() {
		t.Skip("heap guard skipped with -short")
	}
	if raceEnabled() {
		t.Skip("heap guard skipped under -race")
	}
	const (
		queries   = 300
		maxGrowth = 16 << 20
	)
	c, err := NewCluster(GenerateXMark(4, 0.5, 1), ClusterOptions{Fragments: 8, Sites: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// One query first, so lazily built per-fragment state (arena views)
	// counts as set-up, not as growth.
	if _, _, err := c.Query(distinctQualified(queries), QueryOptions{Algorithm: "pax3"}); err != nil {
		t.Fatal(err)
	}

	before := liveHeap()
	seen := make(map[string]bool, queries)
	for i := 0; i < queries; i++ {
		q := distinctQualified(i)
		if seen[q] {
			t.Fatalf("query %d repeats %q", i, q)
		}
		seen[q] = true
		opts := QueryOptions{Algorithm: "pax3"}
		if i%2 == 1 {
			opts = QueryOptions{Algorithm: "pax2", Annotations: true}
		}
		for range runs {
			if _, _, err := c.Query(q, opts); err != nil {
				t.Fatalf("%s: %v", q, err)
			}
		}
	}
	after := liveHeap()
	runtime.KeepAlive(c)

	growth := int64(after) - int64(before)
	t.Logf("live heap %.1f MB -> %.1f MB after %d distinct queries run %d times each (%+.1f MB)",
		float64(before)/(1<<20), float64(after)/(1<<20), queries, runs, float64(growth)/(1<<20))
	if growth > maxGrowth {
		t.Errorf("live heap grew by %.1f MB over %d distinct queries, want <= %d MB",
			float64(growth)/(1<<20), queries, maxGrowth>>20)
	}
}

// TestShipAnswerBytesPerAnswer: through Cluster.Query a ShipXML answer is
// stored twice, once in the response of the site that selects it and once
// as the Answer the query returns; the coordinator copies no record in
// between. The pin is the slope of the bytes a query allocates, its
// sites' and its coordinator's together, between a bibliography of 4
// sections of 25 articles and one of 4 of 250, over Local, where no
// response is encoded. PaX3's answers are candidates first, and its sites
// keep none between the selection and the final stage, which walks the
// fragment again; the qualified rows, which every article passes, are
// held to the same limit.
func TestShipAnswerBytesPerAnswer(t *testing.T) {
	if raceEnabled() {
		t.Skip("the race detector's instrumentation allocates")
	}
	records := float64(unsafe.Sizeof(pax.AnswerNode{}) + unsafe.Sizeof(Answer{}))
	for _, q := range []struct {
		name, query string
		opts        QueryOptions
	}{
		{"pax2+xa", "/dblp/bib/article", QueryOptions{Algorithm: "pax2", Annotations: true, ShipXML: true}},
		{"pax3", "//article", QueryOptions{Algorithm: "pax3", ShipXML: true}},
		{"pax2+xa qualified", "/dblp/bib/article[year > 1989]", QueryOptions{Algorithm: "pax2", Annotations: true, ShipXML: true}},
		{"pax3 qualified", "//article[year > 1989]", QueryOptions{Algorithm: "pax3", ShipXML: true}},
	} {
		limit := records + 8
		var bytes [2]float64
		for i, per := range []int{25, 250} {
			c, err := NewCluster(&Document{tree: testutil.BibTree(4, per)}, ClusterOptions{CutPaths: []string{"/dblp/bib"}, Sites: 2})
			if err != nil {
				t.Fatal(err)
			}
			bytes[i] = testutil.BytesPerRun(20, func() {
				ans, _, err := c.Query(q.query, q.opts)
				if err != nil {
					t.Fatal(err)
				}
				if len(ans) != 4*per {
					t.Fatalf("%s: %d answers, want %d", q.name, len(ans), 4*per)
				}
			})
			c.Close()
		}
		got := (bytes[1] - bytes[0]) / (4*250 - 4*25)
		t.Logf("%s: %.1f bytes per extra answer, limit %.0f", q.name, got, limit)
		if got > limit {
			t.Errorf("%s: %.1f bytes per extra answer, want at most %.0f (a %d-byte site record and a %d-byte Answer)",
				q.name, got, limit, unsafe.Sizeof(pax.AnswerNode{}), unsafe.Sizeof(Answer{}))
		}
	}
}
