package harness

import (
	"context"
	"maps"
	"testing"

	"paxq/internal/pax"
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
// every single evaluation, every case replayed on a batching twin, and the
// bytes shipped per (algorithm, annotations) variant pinned.
func TestDifferentialLocalSeedCorpus(t *testing.T) {
	res, err := DifferentialSweep(context.Background(), 1, 25, DiffOptions{
		Transport:    DiffLocal,
		CompareBatch: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	requireClean(t, res)
	if res.Triples < 100 {
		t.Errorf("corpus covered %d (tree, query, fragmentation) triples, want >= 100", res.Triples)
	}
	requireBatchCorpus(t, res)
	// A change to how sites build or ship formulas moves these totals, and
	// must move them here on purpose.
	wantWire := map[Variant]WireBytes{
		{Alg: pax.PaX3}:           {Sent: 20588, Recv: 28927},
		{Alg: pax.PaX3, XA: true}: {Sent: 16685, Recv: 24379},
		{Alg: pax.PaX2}:           {Sent: 12381, Recv: 27701},
		{Alg: pax.PaX2, XA: true}: {Sent: 9454, Recv: 21343},
	}
	if !maps.Equal(res.Wire, wantWire) {
		t.Errorf("shipped bytes per variant = %v, want %v", res.Wire, wantWire)
	}
}

// TestDifferentialTCPSeedCorpus runs the same fixed corpus over real TCP
// sites on loopback: the full wire codec, connection pooling and
// per-frame accounting are in the loop, with the batch twin deployed as
// its own TCP cluster.
func TestDifferentialTCPSeedCorpus(t *testing.T) {
	res, err := DifferentialSweep(context.Background(), 1, 25, DiffOptions{Transport: DiffTCP, CompareBatch: true})
	if err != nil {
		t.Fatal(err)
	}
	requireClean(t, res)
	if res.Triples < 100 {
		t.Errorf("corpus covered %d (tree, query, fragmentation) triples, want >= 100", res.Triples)
	}
	requireBatchCorpus(t, res)
}

// TestDifferentialExtendedSweep is the randomized long-haul sweep: many
// more seeds, skipped under -short, with the bytes shipped per variant
// pinned for both its local and its TCP part.
func TestDifferentialExtendedSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("extended differential sweep skipped with -short")
	}
	res, err := DifferentialSweep(context.Background(), 1000, 100, DiffOptions{
		Transport:    DiffLocal,
		CompareBatch: true,
		CompareEdits: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	requireClean(t, res)
	// Seeds 1023, 1033, 1049 and 1073 ship more bytes when formulas are
	// not hash-consed as they are built, which seeds 1–25 cannot show.
	wantWire := map[Variant]WireBytes{
		{Alg: pax.PaX3}:           {Sent: 90212, Recv: 152005},
		{Alg: pax.PaX3, XA: true}: {Sent: 68023, Recv: 128191},
		{Alg: pax.PaX2}:           {Sent: 56573, Recv: 149499},
		{Alg: pax.PaX2, XA: true}: {Sent: 38835, Recv: 115683},
	}
	if !maps.Equal(res.Wire, wantWire) {
		t.Errorf("local shipped bytes per variant = %v, want %v", res.Wire, wantWire)
	}

	tcpRes, err := DifferentialSweep(context.Background(), 2000, 20, DiffOptions{Transport: DiffTCP, CompareBatch: true, CompareEdits: true})
	if err != nil {
		t.Fatal(err)
	}
	requireClean(t, tcpRes)
	wantTCPWire := map[Variant]WireBytes{
		{Alg: pax.PaX3}:           {Sent: 18052, Recv: 42833},
		{Alg: pax.PaX3, XA: true}: {Sent: 14917, Recv: 39234},
		{Alg: pax.PaX2}:           {Sent: 10790, Recv: 41888},
		{Alg: pax.PaX2, XA: true}: {Sent: 8544, Recv: 37879},
	}
	if !maps.Equal(tcpRes.Wire, wantTCPWire) {
		t.Errorf("TCP shipped bytes per variant = %v, want %v", tcpRes.Wire, wantTCPWire)
	}
}
