package pax

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"paxq/internal/dist"
	"paxq/internal/fragment"
	"paxq/internal/testutil"
	"paxq/internal/testutil/fragtest"
	"paxq/internal/xmltree"
)

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
		res := applyBoth(t, eng, ft, fid, fragtest.RandomEdit(r, ft.Frags[fid]))
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
	// The version check runs before the subtree is parsed.
	bad := mkReq("c", base)
	bad.SubtreeXML = "<c"
	if _, err := s.handleEdit(bad); !errors.Is(err, ErrEditConflict) {
		t.Fatalf("stale base, unparsable subtree: err %v, want ErrEditConflict", err)
	}
}

// TestEditTooDeepSubtree sends a site an EditReq whose SubtreeXML nests
// one level past xmltree.MaxDepth, over both transports. The site refuses
// it with xmltree.ErrTooDeep — matched with errors.Is in process, by its
// text over TCP, where handler errors travel as strings — and keeps
// serving: queries run, and the next edit applies at the version the
// refused one left. The engine refuses the same subtree built in memory
// before sending anything.
func TestEditTooDeepSubtree(t *testing.T) {
	deepXML := strings.Repeat("<d>", xmltree.MaxDepth+1) + strings.Repeat("</d>", xmltree.MaxDepth+1)
	deep := xmltree.El("d")
	for n, depth := deep, 1; depth <= xmltree.MaxDepth; depth++ {
		c := xmltree.El("d")
		n.Append(c)
		n = c
	}
	tr := testutil.PaperTree()
	ft, err := fragment.Cut(tr, fragment.RandomCuts(tr, 3, 5))
	if err != nil {
		t.Fatal(err)
	}
	topo := RoundRobin(ft, 2)
	ctx := context.Background()
	for _, overTCP := range []bool{false, true} {
		var eng *Engine
		if overTCP {
			tcp, _, shutdown, err := BuildTCPCluster(topo)
			if err != nil {
				t.Fatal(err)
			}
			defer shutdown()
			eng = NewEngine(topo, tcp)
		} else {
			local, _ := BuildLocalCluster(topo)
			eng = NewEngine(topo, local)
		}
		_, err := eng.ApplyEdit(ctx, fragment.RootFrag, fragment.Edit{Op: fragment.EditInsert, Node: 0, Subtree: deep})
		if !errors.Is(err, xmltree.ErrTooDeep) || !errors.Is(err, fragment.ErrBadSubtree) {
			t.Fatalf("TCP %v: engine sent a too-deep insert: err %v", overTCP, err)
		}
		req := &EditReq{Frag: fragment.RootFrag, BaseVersion: ft.Frags[fragment.RootFrag].Version, Op: uint8(fragment.EditInsert), SubtreeXML: deepXML}
		_, _, err = eng.tr.Call(ctx, topo.SiteOf[fragment.RootFrag], req)
		typed := errors.Is(err, xmltree.ErrTooDeep) && errors.Is(err, fragment.ErrBadSubtree)
		if overTCP {
			typed = err != nil && strings.Contains(err.Error(), xmltree.ErrTooDeep.Error())
		}
		if !typed {
			t.Fatalf("TCP %v: too-deep EditReq: err %v, want ErrTooDeep", overTCP, err)
		}
		if _, err := eng.Run(`//broker/name`, Options{Algorithm: PaX2}); err != nil {
			t.Fatalf("TCP %v: query after the refused edit: %v", overTCP, err)
		}
		res, err := eng.ApplyEdit(ctx, fragment.RootFrag, fragment.Edit{Op: fragment.EditInsert, Node: 0, Subtree: xmltree.El("ok")})
		if err != nil || res.NewVersion != ft.Frags[fragment.RootFrag].Version+1 {
			t.Fatalf("TCP %v: edit after the refused one: %+v, err %v", overTCP, res, err)
		}
	}
}

// TestEditRejectsSubtreeXMLCannotCarry checks the engine refuses, before
// sending anything, an in-memory subtree the sites would parse back as a
// different tree: the sites would apply that tree while the caller's
// mirror of the edit holds the original.
func TestEditRejectsSubtreeXMLCannotCarry(t *testing.T) {
	tr := testutil.PaperTree()
	ft, err := fragment.Cut(tr, fragment.RandomCuts(tr, 3, 5))
	if err != nil {
		t.Fatal(err)
	}
	topo := RoundRobin(ft, 2)
	local, _ := BuildLocalCluster(topo)
	eng := NewEngine(topo, local)
	for _, sub := range []*xmltree.Node{
		xmltree.El("a", xmltree.Tx(" ")),
		xmltree.El("a", xmltree.Tx("x\x01")),
		xmltree.El("x:y"),
		xmltree.El("a").SetAttr("k v", "1"),
	} {
		res, err := eng.ApplyEdit(context.Background(), fragment.RootFrag, fragment.Edit{Op: fragment.EditInsert, Node: 0, Subtree: sub})
		if !errors.Is(err, fragment.ErrBadSubtree) || res != nil {
			t.Errorf("insert %q: res %+v, err %v, want ErrBadSubtree before sending", xmltree.SerializeString(sub), res, err)
		}
	}
}

// TestEditConcurrentDeliveriesApplyOnce delivers one EditReq to one site
// twice at once, round after round: handleEdit applies outside the site
// lock, so both deliveries may apply, but exactly one swaps its fragment
// in (Applied) and the other acks at the new version, the fragment's
// version advances once per round, and the site swaps its fragment set
// once: a new set, with the set it replaced left as it was.
func TestEditConcurrentDeliveriesApplyOnce(t *testing.T) {
	tr := testutil.PaperTree()
	ft, err := fragment.Cut(tr, fragment.RandomCuts(tr, 3, 5))
	if err != nil {
		t.Fatal(err)
	}
	_, sites := BuildLocalCluster(RoundRobin(ft, 1))
	s := sites[0]
	for round := 0; round < 50; round++ {
		before := s.snapshot()
		version := before.byID[fragment.RootFrag].Version
		req, err := editReqOf(fragment.RootFrag,
			fragment.Edit{Op: fragment.EditInsert, Node: 0, Pos: 0, Subtree: xmltree.El("patch", xmltree.ElT("v", "1"))})
		if err != nil {
			t.Fatal(err)
		}
		req.BaseVersion = version
		var wg sync.WaitGroup
		start := make(chan struct{})
		resps := make([]*EditResp, 2)
		errs := make([]error, 2)
		for i := range resps {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				resps[i], errs[i] = s.handleEdit(req)
			}()
		}
		close(start)
		wg.Wait()
		applied := 0
		for i, resp := range resps {
			if errs[i] != nil {
				t.Fatalf("round %d: delivery %d: %v", round, i, errs[i])
			}
			if resp.NewVersion != version+1 {
				t.Fatalf("round %d: delivery %d reports version %d, want %d", round, i, resp.NewVersion, version+1)
			}
			if resp.Applied {
				applied++
			}
		}
		if applied != 1 {
			t.Fatalf("round %d: %d deliveries applied, want exactly 1", round, applied)
		}
		after := s.snapshot()
		if after == before {
			t.Fatalf("round %d: the fragment set was not swapped", round)
		}
		if v := after.byID[fragment.RootFrag].Version; v != version+1 {
			t.Fatalf("round %d: version %d -> %d, want one step", round, version, v)
		}
		if v := before.byID[fragment.RootFrag].Version; v != version {
			t.Fatalf("round %d: the replaced set moved from version %d to %d", round, version, v)
		}
	}
}

// TestEditSnapshotIdentity: a request reads the site's fragment set as
// it is when the request arrives. Two reads with no edit between them
// share one set, and an edit between them gives the later one a new set,
// which keeps the edited-away version as the fragment's previous one,
// while the earlier set is left as it was.
func TestEditSnapshotIdentity(t *testing.T) {
	tr := testutil.PaperTree()
	ft, err := fragment.Cut(tr, fragment.RandomCuts(tr, 3, 5))
	if err != nil {
		t.Fatal(err)
	}
	_, sites := BuildLocalCluster(RoundRobin(ft, 1))
	s := sites[0]
	a, b := s.snapshot(), s.snapshot()
	if a != b {
		t.Fatal("reads with no edit between them see different fragment sets")
	}
	if _, err := s.handleEdit(stockEdit(t, ft)); err != nil {
		t.Fatal(err)
	}
	c := s.snapshot()
	if c == a {
		t.Fatal("a read after an edit sees the pre-edit fragment set")
	}
	old := a.byID[fragment.RootFrag]
	if old == c.byID[fragment.RootFrag] {
		t.Fatal("the edit changed no fragment between the two sets")
	}
	if c.prev[fragment.RootFrag] != old {
		t.Fatal("the post-edit set does not keep the edited-away version as the previous one")
	}
	if a.prev[fragment.RootFrag] != nil {
		t.Fatal("the pre-edit set changed with the edit")
	}
}

// TestEditOneVersionAnswersAndStalePut: a later stage of a query reads a
// fragment at the version its first stage read. After one edit, a request
// naming the pre-edit version is served the pre-edit fragment byte for
// byte, and one naming the new version the new one; after a second edit
// the pre-edit version is gone, and naming it fails with ErrVersionSkew,
// as does naming a version the site never held.
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
	body := func(v uint64) (string, error) {
		resp, err := s.handleCollect(&AnsStageReq{QID: 1, Bodies: []fragment.FragID{fragment.RootFrag},
			Versions: []WireVersion{{Frag: fragment.RootFrag, Version: v}}})
		if err != nil {
			return "", err
		}
		return resp.Bodies[0].XML, nil
	}

	pre, err := s.handleQual(&QualStageReq{QID: 1, Query: query, NumFrags: n})
	if err != nil {
		t.Fatal(err)
	}
	v0 := pre.Roots[0].Version
	preXML, err := body(v0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.handleEdit(stockEdit(t, ft)); err != nil {
		t.Fatal(err)
	}
	post, err := s.handleQual(&QualStageReq{QID: 2, Query: query, NumFrags: n})
	if err != nil {
		t.Fatal(err)
	}
	if post.Roots[0].Version != v0+1 || reflect.DeepEqual(post.Roots, pre.Roots) {
		t.Fatalf("post-edit Stage 1 reports version %d and the same roots: %v; want version %d and new roots", post.Roots[0].Version, reflect.DeepEqual(post.Roots, pre.Roots), v0+1)
	}
	if got, err := body(v0); err != nil || got != preXML {
		t.Fatalf("body at the pre-edit version after one edit: err %v, same bytes %v", err, got == preXML)
	}
	postXML, err := body(v0 + 1)
	if err != nil || postXML == preXML {
		t.Fatalf("body at the post-edit version: err %v, same bytes as pre-edit %v", err, postXML == preXML)
	}

	req := stockEdit(t, ft)
	req.BaseVersion = v0 + 1
	if _, err := s.handleEdit(req); err != nil {
		t.Fatal(err)
	}
	for _, v := range []uint64{v0, v0 + 7} {
		if _, err := body(v); !errors.Is(err, ErrVersionSkew) {
			t.Errorf("body at version %d, two edits on: err = %v, want ErrVersionSkew", v, err)
		}
	}
	if got, err := body(v0 + 1); err != nil || got != postXML {
		t.Fatalf("body at the previous version after the second edit: err %v, same bytes %v", err, got == postXML)
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
		// two more calls, then restarts (caches wiped, fragments kept).
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
			if v := siteByID(sites, m).snapshot().byID[fid].Version; v != res.NewVersion {
				t.Errorf("site %d at version %d, want %d", m, v, res.NewVersion)
			}
		}
		if err := ft.ApplyEdit(fid, ed); err != nil {
			t.Fatal(err)
		}
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
		saved := editMaxAttempts
		editMaxAttempts = 2
		defer func() { editMaxAttempts = saved }()

		eng, _, _, local, sites := replicatedCluster(t, 2, 2)
		group := eng.topo.ReplicasOf(eng.topo.SiteOf[fid])
		base := siteByID(sites, group[0]).snapshot().byID[fid].Version
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
			if v := siteByID(sites, m).snapshot().byID[fid].Version; v != base+1 {
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
	res, err := eng.Run(query, Options{Algorithm: PaX3})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := origIDs(ft, res.Answers), oracle(t, ft.Reassemble(), query); !testutil.EqualIDs(got, want) {
		t.Errorf("final answers %v, oracle %v", got, want)
	}
}
