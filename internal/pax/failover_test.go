package pax

import (
	"context"
	"errors"
	"fmt"
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

// TestSessionLossReestablishesInPlace: a site restart between stages (no
// unavailability — the site answers, it just lost the session) must be
// classified retriable and repaired by replaying the prior stages on the
// same site. Exercised on an unreplicated topology with retries enabled,
// where rotation has nowhere to go.
func TestSessionLossReestablishesInPlace(t *testing.T) {
	tr := testutil.PaperTree()
	ft, err := fragment.Cut(tr, fragment.RandomCuts(tr, 4, 31))
	if err != nil {
		t.Fatal(err)
	}
	topo := RoundRobin(ft, 2)
	local, sites := BuildLocalCluster(topo)
	eng := NewEngine(topo, local, WithRetryPolicy(RetryPolicy{MaxAttempts: 3, Backoff: time.Millisecond}))
	query := `//broker[//stock/code = "GOOG"]/name`
	want := oracle(t, tr, query)
	// Restart site 0 just before its second call: the call itself goes
	// through to a site that no longer remembers the query.
	calls := 0
	local.FaultHook = func(to dist.SiteID, req any) error {
		if to == 0 {
			calls++
			if calls == 2 {
				sites[0].Restart()
			}
		}
		return nil
	}
	res, err := eng.Run(query, Options{Algorithm: PaX3})
	if err != nil {
		t.Fatalf("session loss not repaired: %v", err)
	}
	if got := origIDs(ft, res.Answers); !testutil.EqualIDs(got, want) {
		t.Errorf("answers diverged after in-place re-establishment: got %v want %v", got, want)
	}
	if res.Retries < 1 {
		t.Errorf("Result.Retries = %d, want >= 1", res.Retries)
	}
	if res.Failovers != 0 {
		t.Errorf("Result.Failovers = %d, want 0 (repair happens in place)", res.Failovers)
	}
	if fs := eng.FailoverStats(); fs.Reestablished < 1 {
		t.Errorf("engine stats %+v, want a re-established session", fs)
	}
}

// TestSessionLimitRotatesToReplica: a primary at its session cap rejects
// the new query with ErrSessionLimit; the failover layer must treat that
// as retriable and serve the query from the replica.
func TestSessionLimitRotatesToReplica(t *testing.T) {
	eng, _, ft, _, sites := replicatedCluster(t, 1, 2)
	primary := eng.topo.Primaries()[0]
	ps := siteByID(sites, primary)
	// Fill the primary to its cap with synthetic sessions that are too
	// fresh to sweep.
	h := ps.Handler()
	for i := 0; i < maxSessions; i++ {
		if _, err := h(&QualStageReq{QID: QueryID(1_000_000 + i), Query: "//name", NumFrags: int32(ft.Len())}); err != nil {
			t.Fatalf("synthetic session %d: %v", i, err)
		}
	}
	query := `//broker[//stock/code = "GOOG"]/name`
	want := oracle(t, ft.Reassemble(), query)
	res, err := eng.Run(query, Options{Algorithm: PaX3})
	if err != nil {
		t.Fatalf("query died at a full primary despite a replica: %v", err)
	}
	if got := origIDs(ft, res.Answers); !testutil.EqualIDs(got, want) {
		t.Errorf("answers diverged: got %v want %v", got, want)
	}
	if res.Failovers < 1 {
		t.Errorf("Result.Failovers = %d, want >= 1 (rotation away from the full site)", res.Failovers)
	}
}

// TestWarmReplicaStaysByteIdentical: a replica that has already served the
// query for another session must serve a failed-over query
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
	// Warm every replica: an unrelated query session compiles the query
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
		inPlace   bool
	}{
		{"nil", nil, false, false},
		{"unavailable", fmt.Errorf("wrap: %w", dist.ErrSiteUnavailable), true, false},
		{"session limit typed", fmt.Errorf("pax: site 3: %w (256 queries in flight)", ErrSessionLimit), true, false},
		{"session limit wire string", errors.New("pax: site 3: pax: site session limit reached (256 queries in flight)"), true, false},
		{"no session wire string", errors.New("pax: site 2: no session for query 17"), true, true},
		{"out of order wire string", errors.New("pax: site 1: selection stage for fragment 3 of query 9 arrived out of order (no qualifier state)"), true, true},
		{"handler rejection", errors.New("pax: site 4: unknown request type"), false, false},
		{"context deadline", context.DeadlineExceeded, false, false},
	}
	for _, c := range cases {
		r, p := classifyStageError(c.err)
		if r != c.retriable || p != c.inPlace {
			t.Errorf("%s: classify = (%v,%v), want (%v,%v)", c.name, r, p, c.retriable, c.inPlace)
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
