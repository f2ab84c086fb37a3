package harness

import (
	"context"
	"testing"
)

// requireEditCorpus asserts the mutation differential actually ran at
// scale and that delta-scoped invalidation measurably earned its keep: at
// least 500 edit-phase evaluations, a real schedule of applied edits, and
// at least one cache entry patched instead of dropped across an edit
// — the acceptance signal that scoping beats bump-everything structurally,
// not by timing.
func requireEditCorpus(t *testing.T, res *DiffResult) {
	t.Helper()
	if res.EditCases < 500 {
		t.Errorf("mutation differential covered %d cases, want >= 500", res.EditCases)
	}
	if res.EditsApplied == 0 {
		t.Error("mutation differential applied no edits")
	}
	if res.EditRetained == 0 {
		t.Error("delta-scoped invalidation retained no cache entries across the corpus")
	}
}

// TestEditDifferentialLocalCorpus is the tier-1 mutation corpus on the
// in-process transport: 25 seeds, each running a randomized
// insert/delete/rename schedule interleaved with queries on a
// delta-scoped twin and a bump-everything twin, every post-edit answer
// compared byte-for-byte against a centralized evaluator rebuilt from the
// freshly reassembled document, the twins required mutually identical,
// and the scoped twin's per-query + per-edit ledgers conserved against
// its transport's lifetime totals.
func TestEditDifferentialLocalCorpus(t *testing.T) {
	res, err := DifferentialSweep(context.Background(), 1, 25, DiffOptions{
		Transport:    DiffLocal,
		CompareEdits: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	requireClean(t, res)
	requireEditCorpus(t, res)
}

// TestEditDifferentialTCPCorpus runs the same mutation corpus over real
// TCP sites on loopback: edit requests ride the full wire codec and
// per-frame accounting, and the conservation check covers real frames.
func TestEditDifferentialTCPCorpus(t *testing.T) {
	res, err := DifferentialSweep(context.Background(), 1, 25, DiffOptions{
		Transport:    DiffTCP,
		CompareEdits: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	requireClean(t, res)
	requireEditCorpus(t, res)
}

// TestEditSmoke is the quick slice `make edit-smoke` runs: a handful of
// seeds on each transport, enough to catch a broken edit path without the
// full corpus cost.
func TestEditSmoke(t *testing.T) {
	res, err := DifferentialSweep(context.Background(), 1, 4, DiffOptions{Transport: DiffLocal, CompareEdits: true})
	if err != nil {
		t.Fatal(err)
	}
	requireClean(t, res)
	tcpRes, err := DifferentialSweep(context.Background(), 2, 2, DiffOptions{Transport: DiffTCP, CompareEdits: true})
	if err != nil {
		t.Fatal(err)
	}
	requireClean(t, tcpRes)
	if res.EditsApplied == 0 || tcpRes.EditsApplied == 0 {
		t.Error("edit smoke applied no edits")
	}
}
