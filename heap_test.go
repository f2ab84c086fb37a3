package paxq

import (
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"testing"
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
// caches. Sites run Stage 1 once per query and keep no per-query result
// after it, so 300 distinct queries over XMark 0.5 MB (8 fragments on
// 4 sites) may leave at most 16 MB behind. Any cache of Stage-1 results
// must pass this too: one that keeps per-node formula maps grows by about
// 0.85 MB per query here.
func TestDistinctQueriesRetainBoundedHeap(t *testing.T) {
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
		if _, _, err := c.Query(q, opts); err != nil {
			t.Fatalf("%s: %v", q, err)
		}
	}
	after := liveHeap()
	runtime.KeepAlive(c)

	growth := int64(after) - int64(before)
	t.Logf("live heap %.1f MB -> %.1f MB after %d distinct queries (%+.1f MB)",
		float64(before)/(1<<20), float64(after)/(1<<20), queries, float64(growth)/(1<<20))
	if growth > maxGrowth {
		t.Errorf("live heap grew by %.1f MB over %d distinct queries, want <= %d MB",
			float64(growth)/(1<<20), queries, maxGrowth>>20)
	}
}
