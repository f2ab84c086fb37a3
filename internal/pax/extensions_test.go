package pax

import (
	"errors"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"

	"paxq/internal/dist"
	"paxq/internal/fragment"
	"paxq/internal/testutil"
	"paxq/internal/xmark"
	"paxq/internal/xmltree"
	"paxq/internal/xpath"
)

// TestEvalFromDisk exercises the §1 secondary-storage application: save a
// fragmentation to disk, evaluate by swapping fragments in one at a time,
// and compare against the oracle.
func TestEvalFromDisk(t *testing.T) {
	tr := testutil.PaperTree()
	ft, err := fragment.Cut(tr, fragment.RandomCuts(tr, 5, 3))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := ft.Save(dir); err != nil {
		t.Fatal(err)
	}
	for _, query := range fig1Queries {
		want := oracle(t, tr, query)
		ans, err := EvalFromDisk(dir, query)
		if err != nil {
			t.Fatalf("%q: %v", query, err)
		}
		// Loaded fragments lack Origin; map through the in-memory twin.
		got := origIDs(ft, ans)
		if !testutil.EqualIDs(got, want) {
			t.Errorf("%q: got %v want %v", query, got, want)
		}
	}
}

func TestEvalFromDiskErrors(t *testing.T) {
	if _, err := EvalFromDisk(t.TempDir(), "//a"); err == nil {
		t.Error("missing manifest must fail")
	}
	tr := testutil.PaperTree()
	ft, _ := fragment.Cut(tr, nil)
	dir := t.TempDir()
	if err := ft.Save(dir); err != nil {
		t.Fatal(err)
	}
	if _, err := EvalFromDisk(dir, "]["); err == nil {
		t.Error("bad query must fail")
	}
}

// Property: disk-swapped evaluation agrees with the oracle on random
// inputs.
func TestQuickEvalFromDisk(t *testing.T) {
	f := func(treeSeed, cutSeed, querySeed int64) bool {
		tr := testutil.RandomTree(treeSeed, 60)
		ft, err := fragment.Cut(tr, fragment.RandomCuts(tr, 5, cutSeed))
		if err != nil {
			return false
		}
		dir := t.TempDir()
		if err := ft.Save(dir); err != nil {
			t.Fatal(err)
		}
		query := testutil.RandomQuery(querySeed)
		ans, err := EvalFromDisk(dir, query)
		if err != nil {
			t.Logf("%q: %v", query, err)
			return false
		}
		return testutil.EqualIDs(origIDs(ft, ans), oracle(t, tr, query))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestBooleanQueriesThroughEngines runs bare Boolean queries through the
// full distributed machinery: "[q]" compiles to a root self-step, so the
// answer is the root element when q holds.
func TestBooleanQueriesThroughEngines(t *testing.T) {
	tr := testutil.PaperTree()
	eng, _, err := cluster(tr, fragment.RandomCuts(tr, 4, 19), 3)
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string]bool{
		`[//stock/code = "GOOG"]`:                               true,
		`[//stock/code = "MSFT"]`:                               false,
		`[client/country = "Canada" and client/country = "US"]`: true,
	}
	for query, want := range cases {
		for _, opts := range allOptions {
			res, err := eng.Run(query, opts)
			if err != nil {
				t.Fatalf("%s %q: %v", opts.Algorithm, query, err)
			}
			if got := len(res.Answers) > 0; got != want {
				t.Errorf("%s(XA=%v) %q = %v want %v", opts.Algorithm, opts.Annotations, query, got, want)
			}
		}
	}
}

// TestEngineSurvivesTransportFault injects a network fault mid-query and
// verifies the engine reports the error and that a subsequent evaluation
// (fresh query ID, fresh sessions) succeeds.
func TestEngineSurvivesTransportFault(t *testing.T) {
	tr := testutil.PaperTree()
	ft, err := fragment.Cut(tr, fragment.RandomCuts(tr, 4, 23))
	if err != nil {
		t.Fatal(err)
	}
	topo := RoundRobin(ft, 3)
	local, _ := BuildLocalCluster(topo)
	eng := NewEngine(topo, local)

	query := `//broker[//stock/code = "GOOG"]/name`
	want := oracle(t, tr, query)

	var calls atomic.Int64
	local.FaultHook = func(to dist.SiteID, req any) error {
		if calls.Add(1) == 2 { // fail the second site call of the first attempt
			return errors.New("injected: site unreachable")
		}
		return nil
	}
	if _, err := eng.Run(query, Options{Algorithm: PaX2}); err == nil {
		t.Fatal("fault not propagated")
	} else if !strings.Contains(err.Error(), "injected") {
		t.Fatalf("unexpected error: %v", err)
	}
	local.FaultHook = nil
	res, err := eng.Run(query, Options{Algorithm: PaX2})
	if err != nil {
		t.Fatalf("retry after fault: %v", err)
	}
	if !testutil.EqualIDs(origIDs(ft, res.Answers), want) {
		t.Error("retry produced wrong answer")
	}
}

// TestSequentialModeMatchesParallel verifies Sequential changes only the
// scheduling, never the answers, and that ParallelCompute ≤ TotalCompute.
func TestSequentialModeMatchesParallel(t *testing.T) {
	tr := testutil.RandomTree(3, 300)
	eng, ft, err := cluster(tr, fragment.RandomCuts(tr, 6, 5), 3)
	if err != nil {
		t.Fatal(err)
	}
	query := `//a[b = "x"]/c`
	par, err := eng.Run(query, Options{Algorithm: PaX2})
	if err != nil {
		t.Fatal(err)
	}
	seq, err := eng.Run(query, Options{Algorithm: PaX2, Sequential: true})
	if err != nil {
		t.Fatal(err)
	}
	if !testutil.EqualIDs(origIDs(ft, par.Answers), origIDs(ft, seq.Answers)) {
		t.Error("sequential mode changed the answer")
	}
	if seq.ParallelCompute <= 0 || seq.ParallelCompute > seq.TotalCompute {
		t.Errorf("parallel %v vs total %v", seq.ParallelCompute, seq.TotalCompute)
	}
}

// TestSessionLimitRejectsExplicitly floods a site with abandoned stage-1
// sessions and verifies the regression fix for the old silent-eviction
// behavior: a site at its session cap rejects the NEW query with
// ErrSessionLimit instead of discarding the oldest query's state (which
// made an unrelated in-flight query fail a later stage). Once the dangling
// sessions pass their TTL, the sweep reclaims them and admission resumes.
func TestSessionLimitRejectsExplicitly(t *testing.T) {
	tr := testutil.PaperTree()
	ft, err := fragment.Cut(tr, fragment.RandomCuts(tr, 2, 7))
	if err != nil {
		t.Fatal(err)
	}
	frags := make([]*fragment.Fragment, ft.Len())
	copy(frags, ft.Frags)
	site := NewSite(1, frags)
	h := site.Handler()
	query := `[//code = "GOOG"]`
	for i := 0; i < maxSessions; i++ {
		// Qualifier stage only: sessions are left dangling on purpose.
		if _, err := h(&QualStageReq{QID: QueryID(i + 1), Query: query, NumFrags: int32(ft.Len())}); err != nil {
			t.Fatal(err)
		}
	}
	// The site is full: the next NEW query is rejected, typed.
	_, err = h(&QualStageReq{QID: QueryID(maxSessions + 1), Query: query, NumFrags: int32(ft.Len())})
	if !errors.Is(err, ErrSessionLimit) {
		t.Fatalf("query beyond the session cap: err = %v, want ErrSessionLimit", err)
	}
	// No state was discarded to make room: every admitted query can still
	// proceed (session 1 — the one the old code would have evicted first —
	// included).
	site.mu.Lock()
	n := len(site.sessions)
	_, first := site.sessions[1]
	site.mu.Unlock()
	if n != maxSessions || !first {
		t.Fatalf("sessions = %d (first retained = %v), want all %d admitted sessions intact", n, first, maxSessions)
	}
	// After the TTL the dangling sessions are swept and admission resumes.
	defer func(old time.Duration) { sessionTTL = old }(sessionTTL)
	sessionTTL = 0
	if _, err := h(&QualStageReq{QID: QueryID(maxSessions + 2), Query: query, NumFrags: int32(ft.Len())}); err != nil {
		t.Fatalf("query after TTL sweep: %v", err)
	}
}

// TestPrunedSitesReleaseSessions is the session-leak regression. Under
// PaX3 with annotations a site hosting only pruned fragments is visited by
// Stage 1 and by nothing after; before the Final flag its sessions dangled
// until sessionTTL, and after maxSessions such queries the site refused
// everything. More queries than the cap must all succeed, and every site's
// session table must be empty once they are done — Boolean queries, whose
// single stage is final everywhere, included. The flag must work solo,
// inside batch envelopes and through the failover route.
func TestPrunedSitesReleaseSessions(t *testing.T) {
	const q3 = `/sites/site/people/person[profile/age > 20 and address/country = "US"]/creditcard`
	tree := xmark.Generate(4, xmark.DefaultSite.Scale(0.02), 1)
	ft, err := fragment.Cut(tree, fragment.RandomCuts(tree, 7, 1))
	if err != nil {
		t.Fatal(err)
	}
	c, err := xpath.Compile(q3)
	if err != nil {
		t.Fatal(err)
	}
	rel := AnalyzeRelevance(ft, c)
	want := oracle(t, tree, q3)

	run := func(t *testing.T, topo *Topology, eng *Engine, sites []*Site, workers int) {
		if len(eng.relevantFragsBySite(rel)) == len(topo.Primaries()) {
			t.Fatal("fixture has no site hosting only pruned fragments — the test would prove nothing")
		}
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < (maxSessions+44)/workers; i++ {
					res, err := eng.Run(q3, Options{Algorithm: PaX3, Annotations: true})
					if err != nil {
						t.Errorf("query %d: %v", i, err)
						return
					}
					if i == 0 && !testutil.EqualIDs(origIDs(ft, res.Answers), want) {
						t.Errorf("answers %v, oracle %v", origIDs(ft, res.Answers), want)
					}
				}
			}()
		}
		wg.Wait()
		if _, _, err := eng.RunBoolean(`[//person/profile/age > 20]`, Options{}); err != nil {
			t.Error(err)
		}
		for _, s := range sites {
			s.mu.Lock()
			n := len(s.sessions)
			s.mu.Unlock()
			if n != 0 {
				t.Errorf("site %d holds %d sessions at quiescence, want 0", s.ID(), n)
			}
		}
	}
	topo := RoundRobin(ft, 4)
	t.Run("local", func(t *testing.T) {
		local, sites := BuildLocalCluster(topo)
		run(t, topo, NewEngine(topo, local), sites, 1)
	})
	t.Run("tcp", func(t *testing.T) {
		tcp, sites, shutdown, err := BuildTCPCluster(topo)
		if err != nil {
			t.Fatal(err)
		}
		defer shutdown()
		run(t, topo, NewEngine(topo, tcp), sites, 1)
	})
	t.Run("batched", func(t *testing.T) {
		local, sites := BuildLocalCluster(topo)
		run(t, topo, NewEngine(topo, local, WithBatchWindow(time.Millisecond)), sites, 6)
	})
	t.Run("replicated", func(t *testing.T) {
		rtopo := RoundRobinReplicated(ft, 4, 2)
		local, sites := BuildLocalCluster(rtopo)
		run(t, rtopo, NewEngine(rtopo, local), sites, 1)
	})
}

// TestCollectWithoutSessionErrors verifies the site rejects a final-stage
// request for an unknown query instead of panicking.
func TestCollectWithoutSessionErrors(t *testing.T) {
	tr := testutil.PaperTree()
	ft, _ := fragment.Cut(tr, nil)
	site := NewSite(1, []*fragment.Fragment{ft.Root()})
	if _, err := site.Handler()(&AnsStageReq{QID: 999}); err == nil {
		t.Error("collect without session must fail")
	}
	if _, err := site.Handler()(&struct{ X int }{}); err == nil {
		t.Error("unknown request type must fail")
	}
}

// TestAnswersIdentityStable verifies answers refer to real nodes of the
// hosting fragment with the right labels.
func TestAnswersIdentityStable(t *testing.T) {
	tr := testutil.PaperTree()
	eng, ft, err := cluster(tr, fragment.RandomCuts(tr, 5, 29), 4)
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Run("//stock/code", Options{Algorithm: PaX2})
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range res.Answers {
		n := tr.Node(ft.Frag(a.Frag).Origin[a.Node])
		if n == nil || n.Label != a.Label || n.Value() != a.Value {
			t.Errorf("answer %+v does not match fragment node %v", a, n)
		}
		if a.Label != "code" {
			t.Errorf("answer label %q", a.Label)
		}
	}
	sorted := sort.SliceIsSorted(res.Answers, func(i, j int) bool {
		if res.Answers[i].Frag != res.Answers[j].Frag {
			return res.Answers[i].Frag < res.Answers[j].Frag
		}
		return res.Answers[i].Node < res.Answers[j].Node
	})
	if !sorted {
		t.Error("answers not sorted")
	}
}

var _ = xmltree.NoID
