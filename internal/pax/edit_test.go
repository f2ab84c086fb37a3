package pax

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"time"

	"paxq/internal/dist"
	"paxq/internal/fragment"
	"paxq/internal/testutil"
	"paxq/internal/xmltree"
)

// randomFragEdit builds a valid edit for f, mirroring the restrictions
// fragment.ApplyEdit enforces (element targets, no root/virtual/spine
// delete or rename).
func randomFragEdit(r *rand.Rand, f *fragment.Fragment) fragment.Edit {
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

// applyBoth drives one edit through the engine, then mirrors it onto the
// oracle fragmentation. Engine first: ApplyEdit seeds its version tracking
// from topo.FT on a fragment's first edit, so the mirror must not get
// ahead.
func applyBoth(t *testing.T, eng *Engine, ft *fragment.Fragmentation, fid fragment.FragID, ed fragment.Edit) *EditResult {
	t.Helper()
	res, err := eng.ApplyEdit(context.Background(), fid, ed)
	if err != nil {
		t.Fatalf("ApplyEdit(frag %d, %v): %v", fid, ed.Op, err)
	}
	if _, err := ft.ApplyEdit(fid, ed); err != nil {
		t.Fatalf("oracle mirror of edit on fragment %d: %v", fid, err)
	}
	ft.RecomputeOrigins()
	if got := ft.Frags[fid].Version; got != res.NewVersion {
		t.Fatalf("fragment %d: oracle version %d, engine reports %d", fid, got, res.NewVersion)
	}
	return res
}

// TestEditScheduleMatchesOracle runs a random edit schedule through a
// cache-enabled cluster, checking after every edit that distributed
// answers stay identical to a centralized evaluation of the edited
// document — and that the edit and query ledgers together still equal the
// transport's lifetime totals (cost conservation with mutations in the
// mix).
func TestEditScheduleMatchesOracle(t *testing.T) {
	tr := testutil.PaperTree()
	ft, err := fragment.Cut(tr, fragment.RandomCuts(tr, 4, 7))
	if err != nil {
		t.Fatal(err)
	}
	topo := RoundRobin(ft, 2)
	local, _ := BuildLocalCluster(topo, WithSiteCache(32))
	eng := NewEngine(topo, local)
	r := rand.New(rand.NewSource(11))
	queries := []string{"//name", `//broker[//stock/code = "GOOG"]/name`}

	var sumSent, sumRecv int64
	var sumCompute time.Duration
	for i := 0; i < 12; i++ {
		fid := fragment.FragID(r.Intn(len(ft.Frags)))
		res := applyBoth(t, eng, ft, fid, randomFragEdit(r, ft.Frags[fid]))
		sumSent += res.BytesSent
		sumRecv += res.BytesRecv
		sumCompute += res.Compute

		doc := ft.Reassemble()
		for _, q := range queries {
			qres, err := eng.Run(q, Options{Algorithm: PaX3})
			if err != nil {
				t.Fatalf("edit %d, %q: %v", i, q, err)
			}
			sumSent += qres.BytesSent
			sumRecv += qres.BytesRecv
			sumCompute += qres.TotalCompute
			if got, want := origIDs(ft, qres.Answers), oracle(t, doc, q); !testutil.EqualIDs(got, want) {
				t.Fatalf("edit %d, %q: answers %v, oracle %v", i, q, got, want)
			}
		}
	}

	snap := local.Metrics().Snapshot()
	if snap.Sent != sumSent || snap.Recv != sumRecv {
		t.Errorf("byte conservation broken with edits: transport %d/%d, ledgers %d/%d",
			snap.Sent, snap.Recv, sumSent, sumRecv)
	}
	var transportCompute time.Duration
	for _, d := range snap.Compute {
		transportCompute += d
	}
	if transportCompute != sumCompute {
		t.Errorf("compute conservation broken with edits: transport %v, ledgers %v", transportCompute, sumCompute)
	}
}

// TestEditVectorPatchRetention: every cached Stage-1 entry retains its mask
// state, so any edit — inside or outside the query's qualifier label
// footprint, insert, rename or delete — is repaired in place by the
// incremental patch: nothing is dropped, the next repetition hits, and the
// patched entry's answers AND shipped bytes match a twin cluster that never
// cached and therefore re-evaluates from scratch (parbox's
// patch-equivalence, observed end to end).
func TestEditVectorPatchRetention(t *testing.T) {
	tr := testutil.PaperTree()
	ft, err := fragment.Cut(tr, fragment.RandomCuts(tr, 4, 7))
	if err != nil {
		t.Fatal(err)
	}
	topo := RoundRobin(ft, 2)
	local, sites := BuildLocalCluster(topo, WithSiteCache(32))
	eng := NewEngine(topo, local)
	freshLocal, _ := BuildLocalCluster(topo)
	fresh := NewEngine(topo, freshLocal)

	query := `//broker[//stock/code = "GOOG"]/name` // qualifier footprint {stock, code}
	if _, err := eng.Run(query, Options{Algorithm: PaX3}); err != nil {
		t.Fatal(err)
	}

	root := xmltree.NodeID(0)
	edits := []struct {
		name string
		ed   fragment.Edit
	}{
		// Inside the footprint: a new stock with the matching code can
		// change qualifier bits.
		{"overlapping insert", fragment.Edit{Op: fragment.EditInsert, Node: root, Pos: 0,
			Subtree: xmltree.El("stock", xmltree.ElT("code", "GOOG"))}},
		// Outside it: <patch> lands as node 1, its <v> child as node 2.
		{"disjoint insert", fragment.Edit{Op: fragment.EditInsert, Node: root, Pos: 0,
			Subtree: xmltree.El("patch", xmltree.ElT("v", "7"))}},
		{"disjoint rename", fragment.Edit{Op: fragment.EditRename, Node: 2, Label: "w"}},
		{"disjoint delete", fragment.Edit{Op: fragment.EditDelete, Node: 1}},
		{"overlapping bare insert", fragment.Edit{Op: fragment.EditInsert, Node: root, Pos: 0,
			Subtree: xmltree.El("code")}},
	}
	for _, e := range edits {
		before := sumCacheStats(sites)
		// Both engines before the mirror: each seeds its version tracking
		// from topo.FT on a fragment's first edit.
		if _, err := fresh.ApplyEdit(context.Background(), fragment.RootFrag, e.ed); err != nil {
			t.Fatalf("%s: uncached twin: %v", e.name, err)
		}
		res := applyBoth(t, eng, ft, fragment.RootFrag, e.ed)
		if res.Patched < 1 || res.Dropped != 0 || res.Retained != 0 {
			t.Fatalf("%s: result %+v, want the entry patched and nothing dropped", e.name, res)
		}
		if s := sumCacheStats(sites); s.ScopedRetained <= before.ScopedRetained || s.ScopedInvalidations != 0 {
			t.Fatalf("%s: cache stats %+v, want scoped retention only", e.name, s)
		}

		warm, err := eng.Run(query, Options{Algorithm: PaX3})
		if err != nil {
			t.Fatal(err)
		}
		if got := sumCacheStats(sites); got.Hits != before.Hits+int64(len(sites)) {
			t.Errorf("%s: warm run hits %d, want %d (patched entries must serve)", e.name, got.Hits, before.Hits+int64(len(sites)))
		}
		cold, err := fresh.Run(query, Options{Algorithm: PaX3})
		if err != nil {
			t.Fatal(err)
		}
		if got, want := origIDs(ft, warm.Answers), oracle(t, ft.Reassemble(), query); !testutil.EqualIDs(got, want) {
			t.Errorf("%s: patched entry served wrong answers: %v, oracle %v", e.name, got, want)
		}
		if !reflect.DeepEqual(warm.Answers, cold.Answers) || !reflect.DeepEqual(warm.StageBytes, cold.StageBytes) ||
			warm.BytesSent != cold.BytesSent || warm.BytesRecv != cold.BytesRecv {
			t.Errorf("%s: patched entry diverged from a never-cached site: stage bytes %v vs %v, %d vs %d answers",
				e.name, warm.StageBytes, cold.StageBytes, len(warm.Answers), len(cold.Answers))
		}
	}
}

// TestEditVersionProtocol exercises the site-side version switch directly:
// apply at the base version, idempotent ack one version ahead (zero
// counters — nothing was re-applied), conflict anywhere else.
func TestEditVersionProtocol(t *testing.T) {
	tr := testutil.PaperTree()
	ft, err := fragment.Cut(tr, fragment.RandomCuts(tr, 3, 5))
	if err != nil {
		t.Fatal(err)
	}
	_, sites := BuildLocalCluster(RoundRobin(ft, 1), WithSiteCache(8))
	s := sites[0]
	base := ft.Frags[fragment.RootFrag].Version

	mkReq := func(label string, baseVersion uint64) *EditReq {
		req, err := editReqOf(fragment.RootFrag,
			fragment.Edit{Op: fragment.EditInsert, Node: 0, Pos: 0, Subtree: xmltree.El(label)})
		if err != nil {
			t.Fatal(err)
		}
		req.BaseVersion = baseVersion
		return req
	}

	req := mkReq("a", base)
	resp, err := s.handleEdit(req)
	if err != nil || !resp.Applied || resp.NewVersion != base+1 {
		t.Fatalf("apply at base: resp %+v, err %v; want applied at version %d", resp, err, base+1)
	}

	// The same request again: the site is one ahead, which the protocol
	// defines as "this very edit, response lost" — ack without re-applying.
	resp, err = s.handleEdit(req)
	if err != nil || resp.Applied || resp.NewVersion != base+1 {
		t.Fatalf("replay: resp %+v, err %v; want idempotent ack at version %d", resp, err, base+1)
	}
	if resp.Dropped != 0 || resp.Retained != 0 || resp.Patched != 0 {
		t.Fatalf("replay reported cache work: %+v, want zero counters", resp)
	}

	if _, err := s.handleEdit(mkReq("b", base+1)); err != nil {
		t.Fatalf("apply at base+1: %v", err)
	}

	// The site is now at base+2; an edit issued against base matches
	// neither the current version nor its predecessor.
	if _, err := s.handleEdit(mkReq("c", base)); !errors.Is(err, ErrEditConflict) {
		t.Fatalf("stale base: err %v, want ErrEditConflict", err)
	}
}

// TestEditOneVersionAnswersAndStalePut: a session created before an edit
// keeps answering from its fragment snapshot — byte-identical Stage-1
// roots — and its recomputed result must NOT be re-cached (the Put was
// evaluated against pre-edit fragments; the generation fence refuses it),
// while the entry the edit patched answers post-edit queries
// byte-identically to a fresh evaluation.
func TestEditOneVersionAnswersAndStalePut(t *testing.T) {
	tr := testutil.PaperTree()
	ft, err := fragment.Cut(tr, fragment.RandomCuts(tr, 3, 9))
	if err != nil {
		t.Fatal(err)
	}
	topo := RoundRobin(ft, 1)
	_, sites := BuildLocalCluster(topo, WithSiteCache(8))
	_, freshSites := BuildLocalCluster(topo)
	s, fresh := sites[0], freshSites[0]
	query := `//broker[//stock/code = "ZZZZ"]/name` // no such stock until the edit inserts one
	n := int32(len(ft.Frags))

	resp1, err := s.handleQual(&QualStageReq{QID: 1, Query: query, NumFrags: n})
	if err != nil {
		t.Fatal(err)
	}
	if s.cache.Len() != 1 {
		t.Fatalf("cold qual pass cached %d entries, want 1", s.cache.Len())
	}

	// Footprint-overlapping edit: the generation advances and the cached
	// entry is patched through it.
	req, err := editReqOf(fragment.RootFrag,
		fragment.Edit{Op: fragment.EditInsert, Node: 0, Pos: 0, Subtree: xmltree.El("stock", xmltree.ElT("code", "ZZZZ"))})
	if err != nil {
		t.Fatal(err)
	}
	req.BaseVersion = ft.Frags[fragment.RootFrag].Version
	for _, site := range []*Site{s, fresh} {
		if _, err := site.handleEdit(req); err != nil {
			t.Fatal(err)
		}
	}
	misses := s.CacheStats().Misses

	// The in-flight query re-asks for Stage 1 (as a replay after failover
	// would): same session, so the pre-edit snapshot answers — a miss, the
	// patched entry belongs to the new generation — and the shipped roots
	// are byte-identical to the pre-edit response.
	resp2, err := s.handleQual(&QualStageReq{QID: 1, Query: query, NumFrags: n})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(resp1.Roots, resp2.Roots) {
		t.Error("pre-edit session shipped different roots after the edit — snapshot isolation broken")
	}
	if got := s.CacheStats().Misses; got != misses+1 {
		t.Fatalf("pre-edit session: %d new cache misses, want 1 (it must not read the post-edit entry)", got-misses)
	}

	// A fresh query hits the surviving entry — had the stale Put landed it
	// would serve the pre-edit roots here — and ships what a site that never
	// cached computes from scratch.
	hits := s.CacheStats().Hits
	resp3, err := s.handleQual(&QualStageReq{QID: 2, Query: query, NumFrags: n})
	if err != nil {
		t.Fatal(err)
	}
	if got := s.CacheStats().Hits; got != hits+1 {
		t.Fatalf("post-edit query: %d new cache hits, want 1 (the patched entry must serve)", got-hits)
	}
	want, err := fresh.handleQual(&QualStageReq{QID: 2, Query: query, NumFrags: n})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(resp3.Roots, want.Roots) {
		t.Error("surviving entry shipped roots different from a fresh post-edit evaluation")
	}
	if reflect.DeepEqual(want.Roots, resp1.Roots) {
		t.Error("edit did not change the shipped roots — the stale-Put check proves nothing")
	}
}

// TestEditReplicatedConvergence drives edits into a replicated group with
// a member down: the retry loop rides out a bounded outage, and when the
// outage outlasts the retry budget, re-issuing the same edit converges
// exactly (idempotent acks on the members that already applied).
func TestEditReplicatedConvergence(t *testing.T) {
	ed := fragment.Edit{Op: fragment.EditInsert, Node: 0, Pos: 0,
		Subtree: xmltree.El("patch", xmltree.ElT("v", "1"))}
	fid := fragment.RootFrag

	t.Run("retries through outage", func(t *testing.T) {
		eng, _, ft, local, sites := replicatedCluster(t, 2, 2)
		group := eng.topo.ReplicasOf(eng.topo.SiteOf[fid])
		if len(group) != 2 {
			t.Fatalf("replica group %v, want 2 members", group)
		}
		// The replica's first call (this edit) kills it; it stays down for
		// two more calls, then restarts (sessions wiped, fragments kept).
		plan := dist.NewFaultPlan(dist.SiteFault{Site: group[1], Call: 1, Action: dist.FaultKill, Down: 2})
		plan.OnRestart = func(id dist.SiteID) { siteByID(sites, id).Restart() }
		local.FaultHook = plan.Hook

		res, err := eng.ApplyEdit(context.Background(), fid, ed)
		if err != nil {
			t.Fatalf("edit did not survive a bounded member outage: %v", err)
		}
		if res.Sites != 2 || res.Retries < 1 {
			t.Errorf("result %+v, want 2 sites and at least one retry", res)
		}
		if st := plan.Stats(); st.Restarts != 1 {
			t.Errorf("fault stats %+v, want exactly one restart", st)
		}
		for _, m := range group {
			if v := siteByID(sites, m).frags[fid].Version; v != res.NewVersion {
				t.Errorf("site %d at version %d, want %d", m, v, res.NewVersion)
			}
		}
		if _, err := ft.ApplyEdit(fid, ed); err != nil {
			t.Fatal(err)
		}
		ft.RecomputeOrigins()
		query := "//name"
		qres, err := eng.Run(query, Options{Algorithm: PaX3})
		if err != nil {
			t.Fatal(err)
		}
		if got, want := origIDs(ft, qres.Answers), oracle(t, ft.Reassemble(), query); !testutil.EqualIDs(got, want) {
			t.Errorf("post-convergence answers %v, oracle %v", got, want)
		}
	})

	t.Run("reissue after retry budget", func(t *testing.T) {
		saved := EditRetryPolicy
		EditRetryPolicy = RetryPolicy{MaxAttempts: 2, Backoff: time.Millisecond, MaxBackoff: time.Millisecond}
		defer func() { EditRetryPolicy = saved }()

		eng, _, _, local, sites := replicatedCluster(t, 2, 2)
		group := eng.topo.ReplicasOf(eng.topo.SiteOf[fid])
		base := siteByID(sites, group[0]).frags[fid].Version
		plan := dist.NewFaultPlan(dist.SiteFault{Site: group[1], Call: 1, Action: dist.FaultKill, Down: 2})
		plan.OnRestart = func(id dist.SiteID) { siteByID(sites, id).Restart() }
		local.FaultHook = plan.Hook

		// First issue: the primary applies, the replica outlasts the
		// 2-attempt budget — the edit fails WITHOUT advancing the version.
		res, err := eng.ApplyEdit(context.Background(), fid, ed)
		if err == nil {
			t.Fatal("edit succeeded although the replica was down past the retry budget")
		}
		if res == nil || res.Retries != 1 {
			t.Fatalf("partial result %+v, want exactly one recorded retry", res)
		}

		// Re-issuing the same edit is the documented recovery: the primary
		// acks idempotently, the recovered replica applies.
		res, err = eng.ApplyEdit(context.Background(), fid, ed)
		if err != nil {
			t.Fatalf("re-issued edit: %v", err)
		}
		if res.Replayed != 1 || res.NewVersion != base+1 {
			t.Errorf("re-issue result %+v, want one idempotent ack and version %d", res, base+1)
		}
		for _, m := range group {
			if v := siteByID(sites, m).frags[fid].Version; v != base+1 {
				t.Errorf("site %d at version %d, want %d", m, v, base+1)
			}
		}
	})
}

// TestConcurrentEditsAndQueries runs queries against a cluster while an
// edit schedule mutates one fragment. Every answer set must reflect
// exactly one fragment version (the count of //name grows by one per
// applied insert, so a torn read would surface as an impossible count),
// and once the schedule drains the cluster must agree with the
// centralized oracle of the final document. Run under -race this also
// pins the locking of the edit path against the query path.
func TestConcurrentEditsAndQueries(t *testing.T) {
	eng, ft, _ := cachedCluster(t, 2, 16, 0)
	const edits = 6
	query := "//name"
	base := len(oracle(t, ft.Reassemble(), query))
	mkEdit := func(i int) fragment.Edit {
		return fragment.Edit{Op: fragment.EditInsert, Node: 0, Pos: 0,
			Subtree: xmltree.El("zz", xmltree.ElT("name", fmt.Sprintf("n%d", i)))}
	}

	var wg sync.WaitGroup
	wg.Add(1)
	errc := make(chan error, edits)
	go func() {
		defer wg.Done()
		for i := 0; i < edits; i++ {
			if _, err := eng.ApplyEdit(context.Background(), fragment.RootFrag, mkEdit(i)); err != nil {
				errc <- err
				return
			}
		}
	}()
	for i := 0; i < 25; i++ {
		res, err := eng.Run(query, Options{Algorithm: PaX3})
		if err != nil {
			t.Fatalf("query %d during edit schedule: %v", i, err)
		}
		if n := len(res.Answers); n < base || n > base+edits {
			t.Fatalf("query %d: %d answers — outside every version's count [%d, %d]", i, n, base, base+edits)
		}
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatalf("concurrent edit failed: %v", err)
	}

	for i := 0; i < edits; i++ {
		if _, err := ft.ApplyEdit(fragment.RootFrag, mkEdit(i)); err != nil {
			t.Fatal(err)
		}
	}
	ft.RecomputeOrigins()
	res, err := eng.Run(query, Options{Algorithm: PaX3})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := origIDs(ft, res.Answers), oracle(t, ft.Reassemble(), query); !testutil.EqualIDs(got, want) {
		t.Errorf("final answers %v, oracle %v", got, want)
	}
}
