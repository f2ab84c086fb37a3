package harness

import (
	"context"
	"testing"
)

// requireClean fails the test with the first recorded failure details if
// any differential check tripped.
func requireClean(t *testing.T, res *DiffResult) {
	t.Helper()
	t.Log(res)
	if !res.Ok() {
		for _, d := range res.FailureDetails {
			t.Error(d)
		}
		t.Fatalf("differential checks failed: %s", res)
	}
	if res.Triples == 0 || res.Cases == 0 {
		t.Fatal("differential sweep ran no cases")
	}
}

// requireCacheCorpus asserts the cached-vs-uncached twin comparison
// actually ran at scale: at least 500 cached-twin evaluations, every one
// identical to the uncached primary, with real Stage-1 hits observed.
func requireCacheCorpus(t *testing.T, res *DiffResult) {
	t.Helper()
	if res.CacheCases < 500 {
		t.Errorf("cached-twin comparison covered %d cases, want >= 500", res.CacheCases)
	}
	if res.CacheHits == 0 {
		t.Error("cached twins recorded no Stage-1 cache hits")
	}
}

// requireBatchCorpus asserts the batched-vs-unbatched twin comparison ran
// at scale: at least 500 batch-twin evaluations (serial batch-of-one
// byte-identity checks plus concurrent coalesced runs), every one matching
// the primary/oracle, with the per-query ledger sums conserved against the
// batch transport's cumulative counters.
func requireBatchCorpus(t *testing.T, res *DiffResult) {
	t.Helper()
	if res.BatchCases < 500 {
		t.Errorf("batch-twin comparison covered %d cases, want >= 500", res.BatchCases)
	}
}

// TestDifferentialLocalSeedCorpus is the tier-1 fixed corpus: 25 seeds × 5
// queries × {PaX3, PaX2} × {NA, XA} against the centralized evaluator on
// the in-process transport, with the per-site visit bound asserted for
// every single evaluation, parallel site evaluation cross-checked against
// sequential (answers, visit counts and byte totals must match exactly),
// and every case replayed on warm and eviction-pressure site-cache twins
// (answers, visit counts and byte totals must match the uncached primary
// exactly).
func TestDifferentialLocalSeedCorpus(t *testing.T) {
	res, err := DifferentialSweep(context.Background(), 1, 25, DiffOptions{
		Transport:       DiffLocal,
		CompareParallel: true,
		CompareCache:    true,
		CompareBatch:    true,
	})
	if err != nil {
		t.Fatal(err)
	}
	requireClean(t, res)
	if res.Triples < 100 {
		t.Errorf("corpus covered %d (tree, query, fragmentation) triples, want >= 100", res.Triples)
	}
	requireCacheCorpus(t, res)
	requireBatchCorpus(t, res)
}

// TestDifferentialTCPSeedCorpus runs the same fixed corpus over real TCP
// sites on loopback: the full wire codec, connection pooling and
// per-frame accounting are in the loop, with the site-cache and batch
// twins deployed as their own TCP clusters.
func TestDifferentialTCPSeedCorpus(t *testing.T) {
	res, err := DifferentialSweep(context.Background(), 1, 25, DiffOptions{Transport: DiffTCP, CompareCache: true, CompareBatch: true})
	if err != nil {
		t.Fatal(err)
	}
	requireClean(t, res)
	if res.Triples < 100 {
		t.Errorf("corpus covered %d (tree, query, fragmentation) triples, want >= 100", res.Triples)
	}
	requireCacheCorpus(t, res)
	requireBatchCorpus(t, res)
}

// TestDifferentialExtendedSweep is the randomized long-haul sweep: many
// more seeds, skipped under -short.
func TestDifferentialExtendedSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("extended differential sweep skipped with -short")
	}
	res, err := DifferentialSweep(context.Background(), 1000, 100, DiffOptions{
		Transport:       DiffLocal,
		CompareParallel: true,
		CompareCache:    true,
		CompareBatch:    true,
		CompareEdits:    true,
	})
	if err != nil {
		t.Fatal(err)
	}
	requireClean(t, res)

	tcpRes, err := DifferentialSweep(context.Background(), 2000, 20, DiffOptions{Transport: DiffTCP, CompareParallel: true, CompareCache: true, CompareBatch: true, CompareEdits: true})
	if err != nil {
		t.Fatal(err)
	}
	requireClean(t, tcpRes)
}
