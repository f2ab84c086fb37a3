package pax

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"paxq/internal/dist"
	"paxq/internal/fragment"
	"paxq/internal/testutil"
	"paxq/internal/xmltree"
)

// replicatedCluster builds an engine over a local cluster with the given
// replication factor, returning the engine, the source tree, the
// fragmentation, the transport (for FaultHook installation) and the
// physical Site instances in Topology.Sites() order.
func replicatedCluster(t *testing.T, numGroups, replication int) (*Engine, *xmltree.Tree, *fragment.Fragmentation, *dist.Local, []*Site) {
	t.Helper()
	tr := testutil.PaperTree()
	ft, err := fragment.Cut(tr, fragment.RandomCuts(tr, 4, 31))
	if err != nil {
		t.Fatal(err)
	}
	topo := RoundRobinReplicated(ft, numGroups, replication)
	local, sites := BuildLocalCluster(topo)
	return NewEngine(topo, local), tr, ft, local, sites
}

func TestRoundRobinReplicatedTopology(t *testing.T) {
	tr := testutil.PaperTree()
	ft, err := fragment.Cut(tr, fragment.RandomCuts(tr, 5, 9))
	if err != nil {
		t.Fatal(err)
	}
	topo := RoundRobinReplicated(ft, 3, 2)
	if !topo.Replicated() {
		t.Fatal("Replicated() = false")
	}
	if got := len(topo.Sites()); got != 6 {
		t.Fatalf("Sites() has %d members, want 6 (3 groups x 2)", got)
	}
	prim := topo.Primaries()
	if len(prim) != 3 {
		t.Fatalf("Primaries() = %v, want 3 groups", prim)
	}
	for _, p := range prim {
		group := topo.ReplicasOf(p)
		if len(group) != 2 || group[0] != p {
			t.Fatalf("ReplicasOf(%d) = %v, want primary-first pair", p, group)
		}
		// Every member hosts the group's full fragment set.
		if !testutil.EqualIDs(fragIDsToNodeIDs(topo.FragsAt(group[0])), fragIDsToNodeIDs(topo.FragsAt(group[1]))) {
			t.Fatalf("group %v members host different fragments: %v vs %v",
				group, topo.FragsAt(group[0]), topo.FragsAt(group[1]))
		}
	}
	// Every fragment's SiteOf is a primary.
	for fid, site := range topo.SiteOf {
		if len(topo.ReplicasOf(site)) != 2 {
			t.Fatalf("fragment %d maps to site %d, which is not a primary", fid, site)
		}
	}
	// replication=1 reproduces RoundRobin exactly.
	plain := RoundRobin(ft, 3)
	flat := RoundRobinReplicated(ft, 3, 1)
	if flat.Replicated() {
		t.Fatal("replication=1 must not report Replicated")
	}
	if len(plain.Sites()) != len(flat.Sites()) {
		t.Fatalf("replication=1 site count %d != RoundRobin %d", len(flat.Sites()), len(plain.Sites()))
	}
	for fid, s := range plain.SiteOf {
		if flat.SiteOf[fid] != s {
			t.Fatalf("fragment %d: RoundRobinReplicated(_,3,1) site %d != RoundRobin site %d", fid, flat.SiteOf[fid], s)
		}
	}
}

func TestReplicateValidation(t *testing.T) {
	tr := testutil.PaperTree()
	ft, err := fragment.Cut(tr, fragment.RandomCuts(tr, 3, 5))
	if err != nil {
		t.Fatal(err)
	}
	mk := func() *Topology { return RoundRobin(ft, 2) }
	// Group not starting with the primary.
	if err := mk().Replicate(map[dist.SiteID][]dist.SiteID{0: {2, 0}, 1: {1, 3}}); err == nil {
		t.Error("group [2 0] for primary 0 accepted")
	}
	// Missing group for a primary.
	if err := mk().Replicate(map[dist.SiteID][]dist.SiteID{0: {0, 2}}); err == nil {
		t.Error("missing group for primary 1 accepted")
	}
	// Overlapping groups.
	if err := mk().Replicate(map[dist.SiteID][]dist.SiteID{0: {0, 2}, 1: {1, 2}}); err == nil {
		t.Error("site 2 in two groups accepted")
	}
	// Unknown primary named.
	if err := mk().Replicate(map[dist.SiteID][]dist.SiteID{0: {0, 2}, 1: {1, 3}, 9: {9}}); err == nil {
		t.Error("group for fragment-less site 9 accepted")
	}
	// A valid replication passes.
	if err := mk().Replicate(map[dist.SiteID][]dist.SiteID{0: {0, 2}, 1: {1, 3}}); err != nil {
		t.Errorf("valid replication rejected: %v", err)
	}
}

// fragIDsToNodeIDs widens for testutil.EqualIDs.
func fragIDsToNodeIDs(fids []fragment.FragID) []xmltree.NodeID {
	out := make([]xmltree.NodeID, len(fids))
	for i, f := range fids {
		out[i] = xmltree.NodeID(f)
	}
	return out
}

// TestReplicatedFaultFreeMatchesOracle: with replication but no faults,
// every algorithm still matches the centralized oracle, no retries or
// failovers happen, and the paper's exact visit bound holds (replicas
// are never visited at all).
func TestReplicatedFaultFreeMatchesOracle(t *testing.T) {
	eng, tr, ft, _, _ := replicatedCluster(t, 2, 2)
	for _, query := range fig1Queries {
		want := oracle(t, tr, query)
		for _, opts := range allOptions {
			res, err := eng.Run(query, opts)
			if err != nil {
				t.Fatalf("%s %q: %v", opts.Algorithm, query, err)
			}
			if got := origIDs(ft, res.Answers); !testutil.EqualIDs(got, want) {
				t.Errorf("%s %q: got %v want %v", opts.Algorithm, query, got, want)
			}
			if res.Retries != 0 || res.Failovers != 0 {
				t.Errorf("%s %q: fault-free run reports %d retries / %d failovers", opts.Algorithm, query, res.Retries, res.Failovers)
			}
			bound := visitBound(opts.Algorithm)
			if res.MaxVisits > bound {
				t.Errorf("%s %q: MaxVisits %d > %d on a fault-free run", opts.Algorithm, query, res.MaxVisits, bound)
			}
		}
	}
	if fs := eng.FailoverStats(); fs != (FailoverStats{}) {
		t.Errorf("fault-free engine reports failover stats %+v", fs)
	}
}

func visitBound(a Algorithm) int {
	switch a {
	case PaX3:
		return 3
	case PaX2:
		return 2
	}
	return 1
}

// TestFailoverMidQueryKillPrimary kills a primary between Stage 1 and
// Stage 2; the query must survive on the replica with byte-identical
// answers and report the failover.
func TestFailoverMidQueryKillPrimary(t *testing.T) {
	query := `//broker[//stock/code = "GOOG"]/name`
	for _, alg := range []Algorithm{PaX3, PaX2} {
		eng, tr, ft, local, sites := replicatedCluster(t, 2, 2)
		want := oracle(t, tr, query)
		primary := eng.topo.Primaries()[0]
		// The primary's second call dies and the site stays down; the plan's
		// restart hook wipes the in-process site like a process restart.
		plan := dist.NewFaultPlan(dist.SiteFault{Site: primary, Call: 2, Action: dist.FaultKill, Down: 1 << 20})
		plan.OnRestart = func(id dist.SiteID) { siteByID(sites, id).Restart() }
		local.FaultHook = plan.Hook
		res, err := eng.Run(query, Options{Algorithm: alg})
		if err != nil {
			t.Fatalf("%s: query died despite a replica: %v", alg, err)
		}
		if got := origIDs(ft, res.Answers); !testutil.EqualIDs(got, want) {
			t.Errorf("%s: answers diverged after failover: got %v want %v", alg, got, want)
		}
		if res.Failovers < 1 || res.Retries < 1 {
			t.Errorf("%s: Result reports %d failovers / %d retries, want >= 1", alg, res.Failovers, res.Retries)
		}
		bound := visitBound(alg) * (1 + res.Retries)
		if res.MaxVisits > bound {
			t.Errorf("%s: MaxVisits %d > documented failover bound %d", alg, res.MaxVisits, bound)
		}
		fs := eng.FailoverStats()
		if fs.Failovers < 1 || fs.DeadSites < 1 {
			t.Errorf("%s: engine stats %+v, want failovers and dead-site detections", alg, fs)
		}
	}
}

func siteByID(sites []*Site, id dist.SiteID) *Site {
	for _, s := range sites {
		if s.ID() == id {
			return s
		}
	}
	return nil
}

// TestFailoverLedgerConservation: even with kills mid-query, the sum of
// the per-query ledgers equals the transport's lifetime totals — the
// documented attribution rule for failed partial calls.
func TestFailoverLedgerConservation(t *testing.T) {
	eng, _, _, local, sites := replicatedCluster(t, 2, 2)
	primary := eng.topo.Primaries()[0]
	plan := dist.NewFaultPlan(
		dist.SiteFault{Site: primary, Call: 2, Action: dist.FaultKill, Down: 2},
		dist.SiteFault{Site: primary, Call: 6, Action: dist.FaultError},
	)
	plan.OnRestart = func(id dist.SiteID) { siteByID(sites, id).Restart() }
	local.FaultHook = plan.Hook
	var sumSent, sumRecv int64
	var sumCompute time.Duration
	queries := []string{`//broker[//stock/code = "GOOG"]/name`, "//name", "//stock/code"}
	for i, q := range queries {
		res, err := eng.Run(q, Options{Algorithm: PaX3})
		if err != nil {
			t.Fatalf("query %d (%q): %v", i, q, err)
		}
		sumSent += res.BytesSent
		sumRecv += res.BytesRecv
		sumCompute += res.TotalCompute
	}
	sent, recv := local.Metrics().Bytes()
	if sent != sumSent || recv != sumRecv {
		t.Errorf("ledger conservation broken under faults: Σ per-query = %d/%d bytes, transport = %d/%d",
			sumSent, sumRecv, sent, recv)
	}
	if total := local.Metrics().TotalCompute(); total != sumCompute {
		t.Errorf("compute conservation broken: Σ per-query = %v, transport = %v", sumCompute, total)
	}
}

// TestSessionLossRerunsQuery: a site restart between stages costs a query
// at most one re-run, even on an unreplicated engine without a retry
// policy. A restarted site keeps its current fragments and loses the
// rest: with no edit between the stages the later stage still finds the
// version it names and the query answers without a re-run; with an edit
// between them the restart lost the version the first stage read, the
// site answers ErrVersionSkew, and the query runs again once, on the same
// site, at the new version.
func TestSessionLossRerunsQuery(t *testing.T) {
	tr := testutil.PaperTree()
	ft, err := fragment.Cut(tr, fragment.RandomCuts(tr, 4, 31))
	if err != nil {
		t.Fatal(err)
	}
	query := `//broker[//stock/code = "GOOG"]/name`
	want := oracleValues(t, tr, query)
	for _, edit := range []bool{false, true} {
		topo := RoundRobin(ft, 2)
		local, sites := BuildLocalCluster(topo)
		eng := NewEngine(topo, local)
		fid := siteByID(sites, 0).FragIDs()[0]
		// Restart site 0 just before its second call, after an
		// answer-neutral edit of one of its fragments when edit is set.
		calls := 0
		local.FaultHook = func(to dist.SiteID, req any) error {
			if to == 0 {
				calls++
				if calls == 2 {
					if edit {
						landEdits(t, siteByID(sites, 0), fid, 1)
					}
					sites[0].Restart()
				}
			}
			return nil
		}
		res, err := eng.Run(query, Options{Algorithm: PaX3})
		if err != nil {
			t.Fatalf("edit=%v: restart not repaired: %v", edit, err)
		}
		if got := answerValues(res); got != want {
			t.Errorf("edit=%v: answers diverged after the restart: got %v want %v", edit, got, want)
		}
		if wantRetries := map[bool]int{false: 0, true: 1}[edit]; res.Retries != wantRetries || res.Failovers != 0 {
			t.Errorf("edit=%v: Retries = %d, Failovers = %d, want %d and 0", edit, res.Retries, res.Failovers, wantRetries)
		}
	}
}

// TestRestartDuringQueries: a site restarting while queries run on it, as
// paxq's outage drill restarts an in-process site under live load, swaps
// its compile cache without racing the handlers that read it (go test
// -race), and every query answers as the centralized oracle does. Two
// goroutines run PaX3 queries while a third restarts site 0 until they
// are done.
func TestRestartDuringQueries(t *testing.T) {
	tr := testutil.PaperTree()
	ft, err := fragment.Cut(tr, fragment.RandomCuts(tr, 4, 31))
	if err != nil {
		t.Fatal(err)
	}
	query := `//broker[//stock/code = "GOOG"]/name`
	want := oracleValues(t, tr, query)
	topo := RoundRobin(ft, 2)
	local, sites := BuildLocalCluster(topo)
	eng := NewEngine(topo, local)
	done := make(chan struct{})
	restarts := make(chan int)
	go func() {
		n := 0
		for {
			select {
			case <-done:
				restarts <- n
				return
			default:
				siteByID(sites, 0).Restart()
				n++
				time.Sleep(50 * time.Microsecond)
			}
		}
	}()
	var wg sync.WaitGroup
	for range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range 100 {
				res, err := eng.Run(query, Options{Algorithm: PaX3})
				if err != nil {
					t.Errorf("query during restarts: %v", err)
					return
				}
				if got := answerValues(res); got != want {
					t.Errorf("answers %v during restarts, want %v", got, want)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(done)
	if n := <-restarts; n == 0 {
		t.Fatal("site 0 never restarted while the queries ran")
	}
}

// oracleValues is the centralized answer of query over tr, as the sorted
// values of its nodes.
func oracleValues(t *testing.T, tr *xmltree.Tree, query string) string {
	t.Helper()
	var vals []string
	for _, id := range oracle(t, tr, query) {
		vals = append(vals, tr.Node(id).Value())
	}
	slices.Sort(vals)
	return fmt.Sprint(vals)
}

// answerValues is res's answer, as the sorted values of its nodes.
func answerValues(res *Result) string {
	var vals []string
	for _, a := range res.Answers {
		vals = append(vals, a.Value)
	}
	slices.Sort(vals)
	return fmt.Sprint(vals)
}

// landEdits applies n answer-neutral edits to fragment fid at site s: each
// inserts an empty <patch/> under the fragment's root.
func landEdits(t *testing.T, s *Site, fid fragment.FragID, n int) {
	t.Helper()
	for range n {
		req, err := editReqOf(fid, fragment.Edit{Op: fragment.EditInsert, Node: 0, Pos: 0, Subtree: xmltree.El("patch")})
		if err != nil {
			t.Fatal(err)
		}
		req.BaseVersion = s.snapshot().byID[fid].Version
		if _, err := s.handleEdit(req); err != nil {
			t.Fatal(err)
		}
	}
}

// hookTransport runs hook before every call of the transport it wraps.
type hookTransport struct {
	dist.Transport
	hook func(to dist.SiteID, req any)
}

func (h hookTransport) Call(ctx context.Context, to dist.SiteID, req any) (any, dist.CallCost, error) {
	h.hook(to, req)
	return h.Transport.Call(ctx, to, req)
}

// TestVersionSkewRerunsQuery: two edits of one fragment landing between a
// PaX3 query's Stage 1 and Stage 2 leave the site without the version
// Stage 1 read. On an unreplicated engine without a retry policy, over
// both transports, the site answers ErrVersionSkew, the query runs again
// once, and answers as the centralized oracle of the edited document.
func TestVersionSkewRerunsQuery(t *testing.T) {
	tr := testutil.PaperTree()
	ft, err := fragment.Cut(tr, fragment.RandomCuts(tr, 4, 31))
	if err != nil {
		t.Fatal(err)
	}
	query := `//broker[//stock/code = "GOOG"]/name`
	const fid = fragment.RootFrag
	// The second edit inserts a broker trading GOOG under the root
	// fragment's root, which the answer must then name.
	edited := ft.Reassemble()
	edited.Root.Children = append([]*xmltree.Node{xmltree.El("broker", xmltree.ElT("name", "new"),
		xmltree.El("stock", xmltree.ElT("code", "GOOG")))}, edited.Root.Children...)
	want := oracleValues(t, xmltree.NewTree(edited.Root), query)
	for _, transport := range []string{"local", "tcp"} {
		t.Run(transport, func(t *testing.T) {
			topo := RoundRobin(ft, 2)
			var tport dist.Transport
			var sites []*Site
			if transport == "local" {
				tport, sites = BuildLocalCluster(topo)
			} else {
				tcp, ss, shutdown, err := BuildTCPCluster(topo)
				if err != nil {
					t.Fatal(err)
				}
				defer shutdown()
				tport, sites = tcp, ss
			}
			s := siteByID(sites, topo.SiteOf[fid])
			landed := false
			eng := NewEngine(topo, hookTransport{Transport: tport, hook: func(to dist.SiteID, req any) {
				if _, ok := req.(*SelStageReq); ok && !landed {
					landed = true
					landEdits(t, s, fid, 1)
					req, err := editReqOf(fid, fragment.Edit{Op: fragment.EditInsert, Node: 0, Pos: 0,
						Subtree: xmltree.El("broker", xmltree.ElT("name", "new"), xmltree.El("stock", xmltree.ElT("code", "GOOG")))})
					if err != nil {
						t.Fatal(err)
					}
					req.BaseVersion = s.snapshot().byID[fid].Version
					if _, err := s.handleEdit(req); err != nil {
						t.Fatal(err)
					}
				}
			}}, WithRetryPolicy(RetryPolicy{MaxAttempts: 1}))
			res, err := eng.Run(query, Options{Algorithm: PaX3, Sequential: true})
			if err != nil {
				t.Fatal(err)
			}
			if !landed {
				t.Fatal("the query ran no selection stage; the edits never landed between stages")
			}
			if got := answerValues(res); got != want {
				t.Errorf("answers %v, oracle of the edited document %v", got, want)
			}
			if res.Retries != 1 || res.Failovers != 0 {
				t.Errorf("Retries = %d, Failovers = %d, want 1 and 0", res.Retries, res.Failovers)
			}
			if res.MaxVisits > 3*(1+res.Retries) {
				t.Errorf("MaxVisits = %d, bound %d", res.MaxVisits, 3*(1+res.Retries))
			}
		})
	}
}

// TestWarmReplicaStaysByteIdentical: a replica that has already served the
// query for another run must serve a failed-over query
// byte-identically to the fault-free answer.
func TestWarmReplicaStaysByteIdentical(t *testing.T) {
	eng, tr, ft, local, sites := replicatedCluster(t, 2, 2)
	query := `//broker[//stock/code = "GOOG"]/name`
	want := oracle(t, tr, query)
	// Fault-free run records the reference cost profile.
	ref, err := eng.Run(query, Options{Algorithm: PaX3})
	if err != nil {
		t.Fatal(err)
	}
	// Warm every replica: an unrelated run of the query compiles it
	// and runs its Stage 1 there.
	for _, p := range eng.topo.Primaries() {
		for _, r := range eng.topo.ReplicasOf(p)[1:] {
			if _, err := siteByID(sites, r).Handler()(&QualStageReq{QID: 999_999, Query: query, NumFrags: int32(ft.Len())}); err != nil {
				t.Fatalf("warming replica %d: %v", r, err)
			}
		}
	}
	// Kill one primary outright; the next run fails over to its replica.
	primary := eng.topo.Primaries()[0]
	plan := dist.NewFaultPlan(dist.SiteFault{Site: primary, Call: 1, Action: dist.FaultKill, Down: 1 << 20})
	plan.OnRestart = func(id dist.SiteID) { siteByID(sites, id).Restart() }
	local.FaultHook = plan.Hook
	res, err := eng.Run(query, Options{Algorithm: PaX3})
	if err != nil {
		t.Fatal(err)
	}
	if got := origIDs(ft, res.Answers); !testutil.EqualIDs(got, want) {
		t.Errorf("warm replica diverged: got %v want %v", got, want)
	}
	if res.BytesRecv != ref.BytesRecv {
		t.Errorf("failed-over run received %d bytes, fault-free %d — the replica must ship byte-identically", res.BytesRecv, ref.BytesRecv)
	}
}

// TestPermanentErrorsAreNotRetried: context expiry and handler
// rejections must fail immediately, without burning replica attempts.
func TestPermanentErrorsAreNotRetried(t *testing.T) {
	eng, _, _, local, _ := replicatedCluster(t, 2, 2)
	// A context canceled mid-stage is permanent.
	ctx, cancel := context.WithCancel(context.Background())
	calls := 0
	local.FaultHook = func(to dist.SiteID, req any) error {
		calls++
		if calls == 1 {
			cancel()
		}
		return nil
	}
	_, err := eng.RunContext(ctx, "//name", Options{Algorithm: PaX3})
	if err == nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if fs := eng.FailoverStats(); fs.Failovers != 0 {
		t.Errorf("cancellation triggered %d failovers, want 0", fs.Failovers)
	}
	// A compile-level handler rejection is permanent too.
	local.FaultHook = nil
	if _, err := eng.Run("///", Options{Algorithm: PaX3}); err == nil {
		t.Fatal("malformed query accepted")
	}
	if fs := eng.FailoverStats(); fs.Retries != 0 {
		t.Errorf("permanent failure consumed %d retries, want 0", fs.Retries)
	}
}

// TestAttemptsExhausted: when every replica of a group is dead, the
// query fails with a retriable-origin error that names the attempts.
func TestAttemptsExhausted(t *testing.T) {
	eng, _, _, local, _ := replicatedCluster(t, 2, 2)
	primary := eng.topo.Primaries()[0]
	var faults []dist.SiteFault
	for _, r := range eng.topo.ReplicasOf(primary) {
		faults = append(faults, dist.SiteFault{Site: r, Call: 1, Action: dist.FaultKill, Down: 1 << 20})
	}
	plan := dist.NewFaultPlan(faults...)
	local.FaultHook = plan.Hook
	_, err := eng.Run("//name", Options{Algorithm: PaX3})
	if err == nil {
		t.Fatal("query succeeded with a whole replica group dead")
	}
	if !strings.Contains(err.Error(), "attempts exhausted") {
		t.Errorf("err = %v, want an attempts-exhausted failure", err)
	}
	var be *dist.BroadcastError
	if !errors.As(err, &be) {
		t.Errorf("err = %T, want *dist.BroadcastError for paxserve's status mapping", err)
	}
	if !errors.Is(err, dist.ErrSiteUnavailable) {
		t.Errorf("err chain lost dist.ErrSiteUnavailable: %v", err)
	}
}

// TestClassifyStageError pins the wire-stable message classification:
// site errors cross TCP as strings, so the texts below are protocol.
func TestClassifyStageError(t *testing.T) {
	cases := []struct {
		name      string
		err       error
		retriable bool
	}{
		{"nil", nil, false},
		{"unavailable", fmt.Errorf("wrap: %w", dist.ErrSiteUnavailable), true},
		{"version skew typed", fmt.Errorf("pax: site 3: fragment 2 is at version 7, not 5: %w", ErrVersionSkew), true},
		{"version skew wire string", errors.New("pax: site 3: fragment 2 is at version 7, not 5: pax: fragment version skew"), true},
		{"handler rejection", fmt.Errorf("pax: site 4: unknown request type: %w", ErrBadStageRequest), false},
		{"handler rejection wire string", errors.New("pax: site 4: does not host fragment 9: pax: bad stage request"), false},
		{"context deadline", context.DeadlineExceeded, false},
	}
	for _, c := range cases {
		if r := classifyStageError(c.err); r != c.retriable {
			t.Errorf("%s: classify = %v, want %v", c.name, r, c.retriable)
		}
	}
}

// outageCluster serves a topology on one transport and takes sites down
// the way a killed process is down: every call fails at the transport
// with a retriable error (on TCP the listener is closed, so the dial is
// refused). It counts calls per site, and a site marked in revive comes
// back right after its first refused call, so a restart lands between
// two attempts by count, never by timer.
type outageCluster struct {
	dist.Transport
	down, up func(dist.SiteID)

	mu     sync.Mutex
	calls  map[dist.SiteID]int
	revive map[dist.SiteID]bool
}

func (c *outageCluster) Call(ctx context.Context, to dist.SiteID, req any) (any, dist.CallCost, error) {
	resp, cost, err := c.Transport.Call(ctx, to, req)
	c.mu.Lock()
	c.calls[to]++
	revive := c.revive[to] && dist.Retriable(err)
	delete(c.revive, to)
	c.mu.Unlock()
	if revive {
		c.up(to)
	}
	return resp, cost, err
}

func (c *outageCluster) callsTo(site dist.SiteID) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.calls[site]
}

func newOutageCluster(t *testing.T, topo *Topology, overTCP bool) *outageCluster {
	t.Helper()
	c := &outageCluster{calls: make(map[dist.SiteID]int), revive: make(map[dist.SiteID]bool)}
	var mu sync.Mutex
	if !overTCP {
		local, _ := BuildLocalCluster(topo)
		down := make(map[dist.SiteID]bool)
		local.FaultHook = func(to dist.SiteID, _ any) error {
			mu.Lock()
			defer mu.Unlock()
			if down[to] {
				return fmt.Errorf("site %d %w: connection refused", to, dist.ErrSiteUnavailable)
			}
			return nil
		}
		c.Transport = local
		c.down = func(id dist.SiteID) { mu.Lock(); down[id] = true; mu.Unlock() }
		c.up = func(id dist.SiteID) { mu.Lock(); delete(down, id); mu.Unlock() }
		return c
	}
	addrs := make(map[dist.SiteID]string)
	handlers := make(map[dist.SiteID]dist.Handler)
	servers := make(map[dist.SiteID]*dist.TCPServer)
	t.Cleanup(func() {
		mu.Lock()
		defer mu.Unlock()
		for _, s := range servers {
			s.Close()
		}
	})
	for _, sid := range topo.Sites() {
		var frags []*fragment.Fragment
		for _, fid := range topo.FragsAt(sid) {
			frags = append(frags, topo.FT.Frag(fid))
		}
		handlers[sid] = NewSite(sid, frags).Handler()
		srv, err := dist.NewTCPServer("127.0.0.1:0", handlers[sid])
		if err != nil {
			t.Fatal(err)
		}
		servers[sid], addrs[sid] = srv, srv.Addr()
	}
	tcp := dist.NewTCP(addrs)
	t.Cleanup(func() { tcp.Close() })
	c.Transport = tcp
	c.down = func(id dist.SiteID) { mu.Lock(); servers[id].Close(); mu.Unlock() }
	c.up = func(id dist.SiteID) {
		srv, err := dist.NewTCPServer(addrs[id], handlers[id])
		if err != nil {
			t.Errorf("restart site %d on %s: %v", id, addrs[id], err)
			return
		}
		mu.Lock()
		servers[id] = srv
		mu.Unlock()
	}
	return c
}

// TestRefusedSiteContract pins, on both transports and by call counts
// only, how a query meets a site that refuses: replication or a retry
// policy is what survives a restart. Without either, the query fails at
// once with a retriable error after one call to the down site; with a
// retry policy it rides out the outage with one retry; and a replicated
// group whose primary refuses costs one call to the primary, after which
// the replica serves every stage call the primary would have.
func TestRefusedSiteContract(t *testing.T) {
	query := `//broker[//stock/code = "GOOG"]/name`
	opts := Options{Algorithm: PaX3}
	tr := testutil.PaperTree()
	ft, err := fragment.Cut(tr, fragment.RandomCuts(tr, 4, 31))
	if err != nil {
		t.Fatal(err)
	}
	want := oracle(t, tr, query)
	for _, overTCP := range []bool{false, true} {
		t.Run(map[bool]string{false: "local", true: "tcp"}[overTCP], func(t *testing.T) {
			// stageCalls counts the calls a healthy run makes to the site.
			stageCalls := func(topo *Topology, site dist.SiteID) int {
				c := newOutageCluster(t, topo, overTCP)
				if _, err := NewEngine(topo, c).Run(query, opts); err != nil {
					t.Fatalf("healthy run: %v", err)
				}
				if c.callsTo(site) == 0 {
					t.Fatalf("healthy run never calls site %d", site)
				}
				return c.callsTo(site)
			}
			check := func(what string, res *Result, err error) {
				t.Helper()
				if err != nil {
					t.Fatalf("%s: %v", what, err)
				}
				if got := origIDs(ft, res.Answers); !testutil.EqualIDs(got, want) {
					t.Errorf("%s: got %v want %v", what, got, want)
				}
			}

			plain := RoundRobin(ft, 2)
			site := plain.Primaries()[0]
			healthy := stageCalls(plain, site)

			c := newOutageCluster(t, plain, overTCP)
			c.down(site)
			_, err := NewEngine(plain, c).Run(query, opts)
			if !dist.Retriable(err) {
				t.Errorf("unreplicated, no policy: err = %v, want retriable", err)
			}
			if n := c.callsTo(site); n != 1 {
				t.Errorf("unreplicated, no policy: %d calls to the down site, want 1", n)
			}

			c = newOutageCluster(t, plain, overTCP)
			c.down(site)
			c.revive[site] = true
			res, err := NewEngine(plain, c, WithRetryPolicy(RetryPolicy{MaxAttempts: 3})).Run(query, opts)
			check("unreplicated with a retry policy", res, err)
			if err == nil && (res.Retries != 1 || res.Failovers != 0) {
				t.Errorf("unreplicated with a retry policy: %d retries / %d failovers, want 1 / 0", res.Retries, res.Failovers)
			}
			if n := c.callsTo(site); n != healthy+1 {
				t.Errorf("unreplicated with a retry policy: %d calls to the site, want %d", n, healthy+1)
			}

			repl := RoundRobinReplicated(ft, 2, 2)
			primary := repl.Primaries()[0]
			replica := repl.ReplicasOf(primary)[1]
			healthy = stageCalls(repl, primary)
			c = newOutageCluster(t, repl, overTCP)
			c.down(primary)
			res, err = NewEngine(repl, c).Run(query, opts)
			check("replicated, primary down", res, err)
			if err == nil && (res.Retries != 1 || res.Failovers != 1) {
				t.Errorf("replicated, primary down: %d retries / %d failovers, want 1 / 1", res.Retries, res.Failovers)
			}
			if p, r := c.callsTo(primary), c.callsTo(replica); p != 1 || r != healthy {
				t.Errorf("replicated, primary down: %d calls to the primary and %d to the replica, want 1 and %d", p, r, healthy)
			}
		})
	}
}

// TestFailoverVersionSkew: a replica group whose members hold fragment 1
// at different versions — the state an edit broadcast leaves while it is
// under way, or after it failed part-way — must still answer at one
// version. The group's first member holds V+1 (an inserted <k/>), the
// second V; the first member dies at its second call. The answer must be
// the centralized answer of the document at V or at V+1, never a mix of
// Stage 1 at one version and a later stage at the other.
func TestFailoverVersionSkew(t *testing.T) {
	const doc = `<r><p><n>1</n><c><p><n>2</n><d/></p></c></p></r>`
	const query = `//p[.//k]/n`
	tr, err := xmltree.ParseString(doc)
	if err != nil {
		t.Fatal(err)
	}
	var cut, inner xmltree.NodeID = -1, -1
	tr.Walk(func(n *xmltree.Node) bool {
		switch {
		case n.Label == "c":
			cut = n.ID
		case n.Label == "p" && cut >= 0:
			inner = n.ID
		}
		return true
	})
	// values is the centralized answer of a document, as answer values.
	values := func(doc string) []string {
		t.Helper()
		tr, err := xmltree.ParseString(doc)
		if err != nil {
			t.Fatal(err)
		}
		var out []string
		for _, id := range oracle(t, tr, query) {
			out = append(out, tr.Node(id).Value())
		}
		return out
	}
	atV := values(doc)
	atV1 := values(`<r><p><n>1</n><c><p><k/><n>2</n><d/></p></c></p></r>`)
	if fmt.Sprint(atV) == fmt.Sprint(atV1) {
		t.Fatalf("the edit does not change the answer (%v): the test proves nothing", atV)
	}
	for _, alg := range []Algorithm{PaX3, PaX2} {
		ft, err := fragment.Cut(tr, []xmltree.NodeID{cut})
		if err != nil {
			t.Fatal(err)
		}
		const skewed = fragment.FragID(1)
		local := ft.Frag(skewed).Origin
		node := xmltree.NodeID(-1)
		for l, g := range local {
			if g == inner {
				node = xmltree.NodeID(l)
			}
		}
		topo := RoundRobinReplicated(ft, 2, 2)
		tport, sites := BuildLocalCluster(topo)
		eng := NewEngine(topo, tport)
		group := topo.ReplicasOf(topo.SiteOf[skewed])
		req, err := editReqOf(skewed, fragment.Edit{Op: fragment.EditInsert, Node: node, Subtree: xmltree.El("k")})
		if err != nil {
			t.Fatal(err)
		}
		req.BaseVersion = 0
		if _, err := siteByID(sites, group[0]).Handler()(req); err != nil {
			t.Fatalf("edit on the first member: %v", err)
		}
		tport.FaultHook = dist.NewFaultPlan(dist.SiteFault{Site: group[0], Call: 2, Action: dist.FaultKill, Down: 1 << 20}).Hook
		res, err := eng.Run(query, Options{Algorithm: alg})
		if err != nil {
			t.Errorf("%s: %v", alg, err)
			continue
		}
		var got []string
		for _, a := range res.Answers {
			got = append(got, a.Value)
		}
		if g := fmt.Sprint(got); g != fmt.Sprint(atV) && g != fmt.Sprint(atV1) {
			t.Errorf("%s: answer %v holds at no version of fragment %d: %v at V, %v at V+1", alg, got, skewed, atV, atV1)
		}
	}
}
