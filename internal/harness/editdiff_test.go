package harness

import (
	"context"
	"testing"
)

// requireEditCorpus asserts the mutation differential actually ran at
// scale: at least 500 edit-phase evaluations and a real schedule of
// applied edits.
func requireEditCorpus(t *testing.T, res *DiffResult) {
	t.Helper()
	if res.EditCases < 500 {
		t.Errorf("mutation differential covered %d cases, want >= 500", res.EditCases)
	}
	if res.EditsApplied == 0 {
		t.Error("mutation differential applied no edits")
	}
	if res.EditXMLCompared == 0 || res.EditXMLCrossing == 0 {
		t.Errorf("mutation differential compared %d shipped answers, %d of them crossing a fragment boundary; want some of each", res.EditXMLCompared, res.EditXMLCrossing)
	}
}

// TestEditDifferentialLocalCorpus is the tier-1 mutation corpus on the
// in-process transport: 25 seeds, each running a randomized
// insert/delete/rename schedule interleaved with queries, every post-edit
// answer compared byte-for-byte against a centralized evaluator rebuilt
// from the freshly reassembled document, and the per-query + per-edit
// ledgers conserved against the transport's lifetime totals.
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
	// Seeds 16 and 17 cut below post-edit answers, so shipped XML that
	// crosses a fragment boundary is compared on both transports.
	for _, tr := range []DiffTransport{DiffLocal, DiffTCP} {
		res, err := DifferentialSweep(context.Background(), 16, 2, DiffOptions{Transport: tr, CompareEdits: true})
		if err != nil {
			t.Fatal(err)
		}
		requireClean(t, res)
		if res.EditXMLCrossing == 0 {
			t.Errorf("%s: edit smoke compared no shipped answer crossing a fragment boundary", tr)
		}
	}
}
