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
//   - a delta-scoped-invalidation twin and a bump-everything twin (its
//     caches wiped wholesale after every edit) must be indistinguishable —
//     answers, visit counts AND wire bytes — so retaining cached Stage-1
//     entries across an edit is proved cost- and answer-transparent;
//   - the scoped twin's summed per-query AND per-edit ledgers must equal
//     its transport's lifetime totals exactly (cost conservation with
//     mutations in the mix).

// randomEdit builds a valid edit for f: a small insert, a non-spine
// delete that keeps the fragment from collapsing, or a rename, retrying
// until the target passes the restrictions fragment.ApplyEdit enforces.
// Inserted subtrees use labels outside both query vocabularies ("patch",
// "v", "extra"), so inserts usually leave cached qualifier bits alone;
// deletes and renames hit live labels and usually do not.
func randomEdit(r *rand.Rand, f *fragment.Fragment) fragment.Edit {
	av := f.Arena()
	for {
		id := xmltree.NodeID(r.Intn(f.Size()))
		n := f.Tree.Node(id)
		switch r.Intn(3) {
		case 0: // insert
			if !n.IsElement() || f.IsVirtual(n) {
				continue
			}
			sub := xmltree.El("patch", xmltree.ElT("v", fmt.Sprint(r.Intn(100))))
			if r.Intn(2) == 0 {
				sub = xmltree.El("extra")
			}
			return fragment.Edit{Op: fragment.EditInsert, Node: id, Pos: r.Intn(len(n.Children) + 1), Subtree: sub}
		case 1: // delete
			if !n.IsElement() || n.Parent == nil || f.IsVirtual(n) || av.SpineMask.Get(int(id)) {
				continue
			}
			if f.Size()-(int(av.Tree.SubtreeEnd[id])-int(id)) < 3 {
				continue
			}
			return fragment.Edit{Op: fragment.EditDelete, Node: id}
		default: // rename
			if !n.IsElement() || n.Parent == nil || f.IsVirtual(n) || av.SpineMask.Get(int(id)) {
				continue
			}
			return fragment.Edit{Op: fragment.EditRename, Node: id, Label: fmt.Sprintf("l%d", r.Intn(5))}
		}
	}
}

// runEditPhase executes one seed's mutation differential schedule. It owns
// its own fragmentation (the mutable mirror doubles as the oracle source),
// topology and twin clusters, so the immutable-tree phases of the seed are
// untouched. Environmental failures (fragmentation, transport setup,
// invalid mirror edit) return an error; differential failures land in res.
func runEditPhase(ctx context.Context, seed int64, opts DiffOptions, res *DiffResult, r *rand.Rand, tree *xmltree.Tree, isXMark bool, fail func(string, ...any)) error {
	eft, err := fragment.Cut(tree, fragment.RandomCuts(tree, r.Intn(7), seed+2))
	if err != nil {
		return fmt.Errorf("harness: edit phase seed %d: %w", seed, err)
	}
	topo := pax.RoundRobin(eft, 1+r.Intn(3))

	siteOpts := []pax.SiteOption{pax.SiteParallelism(4), pax.WithSiteCache(64)}
	build := func() (*pax.Engine, []*pax.Site, dist.Transport, func(), error) {
		if opts.Transport == DiffTCP {
			tcp, sites, shutdown, err := pax.BuildTCPCluster(topo, siteOpts...)
			if err != nil {
				return nil, nil, nil, nil, err
			}
			return pax.NewEngine(topo, tcp), sites, tcp, shutdown, nil
		}
		local, sites := pax.BuildLocalCluster(topo, siteOpts...)
		return pax.NewEngine(topo, local), sites, local, func() {}, nil
	}
	scopedEng, scopedSites, scopedTr, shutdown, err := build()
	if err != nil {
		return fmt.Errorf("harness: edit phase seed %d: %w", seed, err)
	}
	defer shutdown()
	bumpEng, bumpSites, _, bshutdown, err := build()
	if err != nil {
		return fmt.Errorf("harness: edit phase seed %d: %w", seed, err)
	}
	defer bshutdown()

	// The scoped twin's ledger accumulator: every successful run's and
	// every edit's reported cost, for the end-of-phase conservation check.
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

	// runCase evaluates one query on one twin and checks it against the
	// rebuilt centralized oracle. Scoped-twin runs feed the ledger.
	runCase := func(name, query string, alg pax.Algorithm, ann bool, e *pax.Engine, scoped bool, want []xmltree.NodeID) *pax.Result {
		got, err := e.RunContext(ctx, query, pax.Options{Algorithm: alg, Annotations: ann})
		res.EditCases++
		if err != nil {
			res.EditDiffs++
			if scoped {
				ledgerValid = false
			}
			fail("seed %d %s edit %s %v(XA=%v) %q: %v", seed, opts.Transport, name, alg, ann, query, err)
			return nil
		}
		if scoped {
			ledSent += got.BytesSent
			ledRecv += got.BytesRecv
			ledCompute += got.TotalCompute
		}
		if !testutil.EqualIDs(origAnswerIDs(eft, got.Answers), want) {
			res.EditDiffs++
			fail("seed %d %s edit %s %v(XA=%v) %q: %d answers, rebuilt centralized %d",
				seed, opts.Transport, name, alg, ann, query, len(got.Answers), len(want))
		}
		if got.MaxVisits > visitBound(alg) {
			res.BoundExceeded++
			fail("seed %d %s edit %s %v %q: %d visits > bound %d", seed, opts.Transport, name, alg, query, got.MaxVisits, visitBound(alg))
		}
		return got
	}
	// cmpTwins demands the scoped and bump twins be indistinguishable:
	// a retained (or patched) Stage-1 entry must reproduce the freshly
	// recomputed evaluation byte for byte.
	cmpTwins := func(query string, alg pax.Algorithm, scoped, bump *pax.Result) {
		if scoped == nil || bump == nil {
			return
		}
		if !testutil.EqualIDs(origAnswerIDs(eft, scoped.Answers), origAnswerIDs(eft, bump.Answers)) ||
			scoped.MaxVisits != bump.MaxVisits ||
			scoped.BytesSent != bump.BytesSent || scoped.BytesRecv != bump.BytesRecv {
			res.EditDiffs++
			fail("seed %d %s edit %v %q: scoped twin (visits %d, bytes %d/%d) vs bump-everything twin (visits %d, bytes %d/%d)",
				seed, opts.Transport, alg, query,
				scoped.MaxVisits, scoped.BytesSent, scoped.BytesRecv,
				bump.MaxVisits, bump.BytesSent, bump.BytesRecv)
		}
	}
	oracleIDs := func(doc *xmltree.Tree, c *xpath.Compiled) []xmltree.NodeID {
		want := append([]xmltree.NodeID(nil), centeval.EvalVector(doc, c)...)
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		return want
	}

	// Warm both twins' caches so the edits below have entries to retain,
	// patch or drop.
	doc := eft.Reassemble()
	for _, q := range queries {
		want := oracleIDs(doc, q.c)
		runCase("warmup/scoped", q.query, pax.PaX3, false, scopedEng, true, want)
		runCase("warmup/bump", q.query, pax.PaX3, false, bumpEng, false, want)
	}

	edits := 3 + r.Intn(3)
	for i := 0; i < edits; i++ {
		fid := fragment.FragID(r.Intn(eft.Len()))
		ed := randomEdit(r, eft.Frag(fid))

		// Engines first: ApplyEdit seeds its version tracking from the
		// topology fragmentation — the mirror — on a fragment's first edit,
		// so the mirror must not get ahead.
		sres, err := scopedEng.ApplyEdit(ctx, fid, ed)
		if err != nil {
			res.EditDiffs++
			ledgerValid = false
			fail("seed %d %s edit %d: scoped ApplyEdit(frag %d, %v): %v", seed, opts.Transport, i, fid, ed.Op, err)
			return nil
		}
		ledSent += sres.BytesSent
		ledRecv += sres.BytesRecv
		ledCompute += sres.Compute
		if _, err := bumpEng.ApplyEdit(ctx, fid, ed); err != nil {
			res.EditDiffs++
			fail("seed %d %s edit %d: bump ApplyEdit(frag %d, %v): %v", seed, opts.Transport, i, fid, ed.Op, err)
			return nil
		}
		// The bump twin models the pre-scoping world: every edit wipes
		// every site's whole Stage-1 cache.
		for _, s := range bumpSites {
			s.BumpCacheGeneration()
		}
		if _, err := eft.ApplyEdit(fid, ed); err != nil {
			return fmt.Errorf("harness: edit phase seed %d: mirror edit %d on fragment %d: %w", seed, i, fid, err)
		}
		eft.RecomputeOrigins()
		res.EditsApplied++

		doc := eft.Reassemble()
		for _, q := range queries {
			want := oracleIDs(doc, q.c)
			g1 := runCase("scoped", q.query, pax.PaX3, false, scopedEng, true, want)
			runCase("scoped repeat", q.query, pax.PaX3, false, scopedEng, true, want)
			b1 := runCase("bump", q.query, pax.PaX3, false, bumpEng, false, want)
			cmpTwins(q.query, pax.PaX3, g1, b1)
			g2 := runCase("scoped", q.query, pax.PaX2, true, scopedEng, true, want)
			b2 := runCase("bump", q.query, pax.PaX2, true, bumpEng, false, want)
			cmpTwins(q.query, pax.PaX2, g2, b2)
		}
	}

	// Cost conservation over the whole mutable schedule: queries and edits
	// together must account for every byte and nanosecond the scoped
	// twin's transport recorded. Skipped if a run failed (a failed run's
	// partial stage costs reach the transport but its Result is discarded).
	if ledgerValid {
		//paxlint:allow ledger(edit cost-conservation check: the harness owns this transport's entire lifetime and compares, never resets)
		m := scopedTr.Metrics()
		tSent, tRecv := m.Bytes()
		if ledSent != tSent || ledRecv != tRecv || ledCompute != m.TotalCompute() {
			res.EditDiffs++
			fail("seed %d %s: edit ledger conservation violated: Σ per-query + per-edit %d/%d bytes, %v compute; transport %d/%d bytes, %v compute",
				seed, opts.Transport, ledSent, ledRecv, ledCompute, tSent, tRecv, m.TotalCompute())
		}
	}
	for _, s := range scopedSites {
		res.EditRetained += int(s.CacheStats().ScopedRetained)
	}
	return nil
}
