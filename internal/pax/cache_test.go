package pax

import (
	"sync"
	"testing"

	"paxq/internal/fragment"
	"paxq/internal/testutil"
)

func TestLRUEvictsLeastRecentlyUsed(t *testing.T) {
	c := newLRU[string, int](2)
	c.put("a", 1)
	c.put("b", 2)
	if _, ok := c.get("a"); !ok {
		t.Fatal("a missing before capacity reached")
	}
	c.put("c", 3) // evicts b: a was touched more recently
	if _, ok := c.get("b"); ok {
		t.Error("b survived eviction, want least-recently-used gone")
	}
	if v, ok := c.get("a"); !ok || v != 1 {
		t.Errorf("a = %d/%v, want 1", v, ok)
	}
	if v, ok := c.get("c"); !ok || v != 3 {
		t.Errorf("c = %d/%v, want 3", v, ok)
	}
	if c.len() != 2 {
		t.Errorf("len = %d, want 2", c.len())
	}
	c.put("a", 10) // refresh in place, no growth
	if v, _ := c.get("a"); v != 10 || c.len() != 2 {
		t.Errorf("after refresh: a = %d, len = %d", v, c.len())
	}
}

func TestLRUConcurrentAccess(t *testing.T) {
	c := newLRU[int, int](8)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				c.put(i%16, w)
				c.get(i % 16)
			}
		}()
	}
	wg.Wait()
	if c.len() > 8 {
		t.Errorf("len = %d exceeds capacity", c.len())
	}
}

// TestPlanCacheSharesCompiledPlans: repeated Runs of one query reuse the
// same compiled plan, and the (query, annotations) key keeps the two
// relevance analyses of one query apart.
func TestPlanCacheSharesCompiledPlans(t *testing.T) {
	tr := testutil.PaperTree()
	ft, err := fragment.Cut(tr, fragment.RandomCuts(tr, 3, 7))
	if err != nil {
		t.Fatal(err)
	}
	topo := RoundRobin(ft, 2)
	local, _ := BuildLocalCluster(topo)
	eng := NewEngine(topo, local)

	query := `//broker[//stock/code = "GOOG"]/name`
	p1, err := eng.plan(query, true, false)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := eng.plan(query, true, false)
	if err != nil {
		t.Fatal(err)
	}
	if p1 != p2 {
		t.Error("second plan lookup did not hit the cache")
	}
	pNA, err := eng.plan(query, false, false)
	if err != nil {
		t.Fatal(err)
	}
	if pNA == p1 {
		t.Error("annotations on/off share one plan; relevance differs")
	}
	if pNA.rel.NumRelevant() != ft.Len() {
		t.Errorf("non-annotated plan prunes fragments: %d relevant of %d", pNA.rel.NumRelevant(), ft.Len())
	}

	// A cached plan must still evaluate correctly (shared, not stale).
	for i := 0; i < 3; i++ {
		res, err := eng.Run(query, Options{Algorithm: PaX3, Annotations: true})
		if err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
		if got := origIDs(ft, res.Answers); !testutil.EqualIDs(got, oracle(t, tr, query)) {
			t.Fatalf("run %d: wrong answers from cached plan", i)
		}
	}

	// Distinct queries get distinct plans.
	pOther, err := eng.plan("//name", true, false)
	if err != nil {
		t.Fatal(err)
	}
	if pOther == p1 {
		t.Error("distinct queries share a plan")
	}
}
