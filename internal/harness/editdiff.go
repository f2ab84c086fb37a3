package harness

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"time"

	"paxq/internal/centeval"
	"paxq/internal/dist"
	"paxq/internal/fragment"
	"paxq/internal/pax"
	"paxq/internal/testutil"
	"paxq/internal/testutil/fragtest"
	"paxq/internal/xmltree"
	"paxq/internal/xpath"
)

// The mutation differential phase (DiffOptions.CompareEdits). Queries alone
// prove the system against an immutable tree; this phase proves it against
// a live one: a randomized schedule of fragment edits (insert/delete/
// rename) interleaved with queries, where after every edit
//
//   - every distributed answer must be identical to a centralized
//     evaluator rebuilt from the post-edit document (the harness maintains
//     a mirror fragmentation, applies each edit to it and reassembles);
//   - the cluster's summed per-query AND per-edit ledgers must equal its
//     transport's lifetime totals exactly (cost conservation with
//     mutations in the mix).

// runEditPhase executes one seed's mutation differential schedule. It owns
// its own fragmentation (the mutable mirror doubles as the oracle source),
// topology and cluster, so the immutable-tree phases of the seed are
// untouched. Environmental failures (fragmentation, transport setup,
// invalid mirror edit) return an error; differential failures land in res.
func runEditPhase(ctx context.Context, seed int64, opts DiffOptions, res *DiffResult, r *rand.Rand, tree *xmltree.Tree, isXMark bool, fail func(string, ...any)) error {
	eft, err := fragment.Cut(tree, fragment.RandomCuts(tree, r.Intn(7), seed+2))
	if err != nil {
		return fmt.Errorf("harness: edit phase seed %d: %w", seed, err)
	}
	// origins follows the mirror: the answers of the runs since its last
	// edit address its fragments.
	origins := eft.Origins()
	topo := pax.RoundRobin(eft, 1+r.Intn(3))

	var eng *pax.Engine
	var tr dist.Transport
	if opts.Transport == DiffTCP {
		tcp, _, shutdown, err := pax.BuildTCPCluster(topo)
		if err != nil {
			return fmt.Errorf("harness: edit phase seed %d: %w", seed, err)
		}
		defer shutdown()
		eng, tr = pax.NewEngine(topo, tcp), tcp
	} else {
		local, _ := pax.BuildLocalCluster(topo)
		eng, tr = pax.NewEngine(topo, local), local
	}

	// The ledger accumulator: every successful run's and every edit's
	// reported cost, for the end-of-phase conservation check.
	var ledSent, ledRecv int64
	var ledCompute time.Duration
	ledgerValid := true

	type editQuery struct {
		query string
		c     *xpath.Compiled
	}
	queries := make([]editQuery, 3)
	for i := range queries {
		var q string
		if isXMark {
			q = randomXMarkQuery(r)
		} else {
			q = testutil.RandomQuery(seed*4000 + int64(i))
		}
		c, err := xpath.Compile(q)
		if err != nil {
			return fmt.Errorf("harness: edit phase seed %d: generated query %q does not compile: %w", seed, q, err)
		}
		queries[i] = editQuery{query: q, c: c}
	}

	// runCase evaluates one query and checks it against the rebuilt
	// centralized oracle; successful runs feed the ledger. With doc set,
	// the run ships XML, and every answer's XML must be its node's
	// serialization in doc.
	runCase := func(name, query string, alg pax.Algorithm, ann bool, want []xmltree.NodeID, doc *xmltree.Tree) {
		got, err := eng.RunContext(ctx, query, pax.Options{Algorithm: alg, Annotations: ann, ShipXML: doc != nil})
		res.EditCases++
		if err != nil {
			res.EditDiffs++
			ledgerValid = false
			fail("seed %d %s edit %s %v(XA=%v) %q: %v", seed, opts.Transport, name, alg, ann, query, err)
			return
		}
		ledSent += got.BytesSent
		ledRecv += got.BytesRecv
		ledCompute += got.TotalCompute
		if !testutil.EqualIDs(origAnswerIDs(origins, got.Answers), want) {
			res.EditDiffs++
			fail("seed %d %s edit %s %v(XA=%v) %q: %d answers, rebuilt centralized %d",
				seed, opts.Transport, name, alg, ann, query, len(got.Answers), len(want))
		}
		if got.MaxVisits > visitBound(alg) {
			res.BoundExceeded++
			fail("seed %d %s edit %s %v %q: %d visits > bound %d", seed, opts.Transport, name, alg, query, got.MaxVisits, visitBound(alg))
		}
		for i := 0; doc != nil && i < len(got.Answers); i++ {
			a := got.Answers[i]
			f := eft.Frag(a.Frag)
			if f.VirtualMask.AnyInRange(int(a.Node), int(f.Tree.SubtreeEnd[a.Node])) {
				res.EditXMLCrossing++
			}
			res.EditXMLCompared++
			if xml := xmltree.SerializeString(doc.Node(origins[a.Frag][a.Node])); a.XML != xml {
				res.EditDiffs++
				fail("seed %d %s edit %s %v(XA=%v) %q: answer %d/%d ships\n%q\nthe edited document's subtree is\n%q",
					seed, opts.Transport, name, alg, ann, query, a.Frag, a.Node, a.XML, xml)
			}
		}
	}
	oracleIDs := func(doc *xmltree.Tree, c *xpath.Compiled) []xmltree.NodeID {
		want := append([]xmltree.NodeID(nil), centeval.EvalVector(doc, c)...)
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		return want
	}

	doc := eft.Reassemble()
	for _, q := range queries {
		runCase("pre-edit", q.query, pax.PaX3, false, oracleIDs(doc, q.c), nil)
	}

	edits := 3 + r.Intn(3)
	for i := 0; i < edits; i++ {
		fid := fragment.FragID(r.Intn(eft.Len()))
		ed := fragtest.RandomEdit(r, eft.Frag(fid))

		// Engine first: ApplyEdit seeds its version tracking from the
		// topology fragmentation — the mirror — on a fragment's first edit,
		// so the mirror must not get ahead.
		eres, err := eng.ApplyEdit(ctx, fid, ed)
		if err != nil {
			res.EditDiffs++
			fail("seed %d %s edit %d: ApplyEdit(frag %d, %v): %v", seed, opts.Transport, i, fid, ed.Op, err)
			return nil
		}
		ledSent += eres.BytesSent
		ledRecv += eres.BytesRecv
		ledCompute += eres.Compute
		if err := eft.ApplyEdit(fid, ed); err != nil {
			return fmt.Errorf("harness: edit phase seed %d: mirror edit %d on fragment %d: %w", seed, i, fid, err)
		}
		origins = eft.Origins()
		res.EditsApplied++

		doc := eft.Reassemble()
		for _, q := range queries {
			want := oracleIDs(doc, q.c)
			runCase("post-edit", q.query, pax.PaX3, false, want, doc)
			runCase("post-edit", q.query, pax.PaX2, true, want, doc)
		}
	}

	// Cost conservation over the whole mutable schedule: queries and edits
	// together must account for every byte and nanosecond the cluster's
	// transport recorded. Skipped if a run failed (a failed run's partial
	// stage costs reach the transport but its Result is discarded).
	if ledgerValid {
		//paxlint:allow ledger(edit cost-conservation check: the harness owns this transport's entire lifetime and compares, never resets)
		m := tr.Metrics()
		tSent, tRecv := m.Bytes()
		if ledSent != tSent || ledRecv != tRecv || ledCompute != m.TotalCompute() {
			res.EditDiffs++
			fail("seed %d %s: edit ledger conservation violated: Σ per-query + per-edit %d/%d bytes, %v compute; transport %d/%d bytes, %v compute",
				seed, opts.Transport, ledSent, ledRecv, ledCompute, tSent, tRecv, m.TotalCompute())
		}
	}
	return nil
}
