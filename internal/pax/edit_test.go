package pax

import (
	"bytes"
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
	if err := ft.ApplyEdit(fid, ed); err != nil {
		t.Fatalf("oracle mirror of edit on fragment %d: %v", fid, err)
	}
	ft.RecomputeOrigins()
	if got := ft.Frags[fid].Version; got != res.NewVersion {
		t.Fatalf("fragment %d: oracle version %d, engine reports %d", fid, got, res.NewVersion)
	}
	return res
}

// TestEditScheduleMatchesOracle runs a random edit schedule through a
// cluster, checking after every edit that distributed
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
	local, _ := BuildLocalCluster(topo)
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

// TestEditVersionProtocol exercises the site-side version switch directly:
// apply at the base version, idempotent ack one version ahead (nothing is
// re-applied), conflict anywhere else.
func TestEditVersionProtocol(t *testing.T) {
	tr := testutil.PaperTree()
	ft, err := fragment.Cut(tr, fragment.RandomCuts(tr, 3, 5))
	if err != nil {
		t.Fatal(err)
	}
	_, sites := BuildLocalCluster(RoundRobin(ft, 1))
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
// keeps answering from its fragment snapshot — a pre-edit session that
// re-asks for Stage 1 (as a replay after failover would) ships its
// pre-edit roots byte for byte, while a session created after the edit
// ships different ones.
func TestEditOneVersionAnswersAndStalePut(t *testing.T) {
	tr := testutil.PaperTree()
	ft, err := fragment.Cut(tr, fragment.RandomCuts(tr, 3, 9))
	if err != nil {
		t.Fatal(err)
	}
	_, sites := BuildLocalCluster(RoundRobin(ft, 1))
	s := sites[0]
	query := `//broker[//stock/code = "ZZZZ"]/name` // no such stock until the edit inserts one
	n := int32(len(ft.Frags))

	resp1, err := s.handleQual(&QualStageReq{QID: 1, Query: query, NumFrags: n})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.handleEdit(stockEdit(t, ft)); err != nil {
		t.Fatal(err)
	}

	resp2, err := s.handleQual(&QualStageReq{QID: 1, Query: query, NumFrags: n})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(resp1.Roots, resp2.Roots) {
		t.Error("pre-edit session shipped different roots after the edit — snapshot isolation broken")
	}
	post, err := s.handleQual(&QualStageReq{QID: 2, Query: query, NumFrags: n})
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(post.Roots, resp1.Roots) {
		t.Error("edit did not change the shipped roots — the snapshot check proves nothing")
	}
}

// stockEdit inserts <stock><code>ZZZZ</code></stock> under the root
// fragment's root, at the fragment's current version.
func stockEdit(t *testing.T, ft *fragment.Fragmentation) *EditReq {
	t.Helper()
	req, err := editReqOf(fragment.RootFrag,
		fragment.Edit{Op: fragment.EditInsert, Node: 0, Pos: 0, Subtree: xmltree.El("stock", xmltree.ElT("code", "ZZZZ"))})
	if err != nil {
		t.Fatal(err)
	}
	req.BaseVersion = ft.Frags[fragment.RootFrag].Version
	return req
}

// TestBatchQualsStraddlingEditDoNotShare: batched Stage-1 members share one
// sweep only when their sessions snapshotted the same fragment versions.
// Session 1 is created before an edit and session 2 after it; one envelope
// carrying both must ship each member the roots of its own snapshot.
func TestBatchQualsStraddlingEditDoNotShare(t *testing.T) {
	tr := testutil.PaperTree()
	ft, err := fragment.Cut(tr, fragment.RandomCuts(tr, 3, 9))
	if err != nil {
		t.Fatal(err)
	}
	_, sites := BuildLocalCluster(RoundRobin(ft, 1))
	s := sites[0]
	query := `//broker[//stock/code = "ZZZZ"]/name`
	n := int32(len(ft.Frags))
	// qualBody is a solo Stage-1 response as a batch member body: compute
	// moved out, the rest encoded.
	qualBody := func(qid QueryID) []byte {
		t.Helper()
		resp, err := s.handleQual(&QualStageReq{QID: qid, Query: query, NumFrags: n, Final: true})
		if err != nil {
			t.Fatal(err)
		}
		resp.TakeComputeCost()
		b, err := resp.AppendBinary(nil)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}

	pre := qualBody(10)
	if _, err := s.getSession(1, query, n); err != nil {
		t.Fatal(err)
	}
	if _, err := s.handleEdit(stockEdit(t, ft)); err != nil {
		t.Fatal(err)
	}

	var subs []BatchSub
	for _, qid := range []QueryID{1, 2} {
		b, err := (&QualStageReq{QID: qid, Query: query, NumFrags: n}).AppendBinary(nil)
		if err != nil {
			t.Fatal(err)
		}
		subs = append(subs, BatchSub{Tag: tagQualStageReq, Body: b})
	}
	resp, err := s.handleBatch(&BatchStageReq{Subs: subs})
	if err != nil {
		t.Fatal(err)
	}
	post := qualBody(11)
	for i, sub := range resp.Subs {
		if sub.Tag != tagQualStageResp {
			t.Fatalf("member %d failed: %s", i+1, sub.Body)
		}
	}
	if bytes.Equal(resp.Subs[0].Body, post) {
		t.Fatal("pre-edit member shipped the post-edit roots — the check below proves nothing")
	}
	if !bytes.Equal(resp.Subs[0].Body, pre) {
		t.Error("pre-edit member did not ship its snapshot's roots")
	}
	if !bytes.Equal(resp.Subs[1].Body, post) {
		t.Error("post-edit member shipped roots other than a fresh post-edit Stage 1 — it shared the pre-edit member's sweep")
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
		if err := ft.ApplyEdit(fid, ed); err != nil {
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
	tr := testutil.PaperTree()
	ft, err := fragment.Cut(tr, fragment.RandomCuts(tr, 4, 7))
	if err != nil {
		t.Fatal(err)
	}
	topo := RoundRobin(ft, 2)
	local, _ := BuildLocalCluster(topo)
	eng := NewEngine(topo, local)
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
		if err := ft.ApplyEdit(fragment.RootFrag, mkEdit(i)); err != nil {
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
