package pax

import (
	"errors"
	"strings"
	"sync"
	"testing"

	"paxq/internal/dist"
	"paxq/internal/fragment"
	"paxq/internal/testutil"
	"paxq/internal/xmltree"
)

// baseline is a solo run's cost profile, the reference for asserting that
// a concurrent run of the same query was accounted independently. Byte
// totals are deterministic per (query, topology) as long as QueryIDs stay
// in one varint width class (< 128 for these tests): requests carry the
// QID as a uvarint, and responses carry the site's compute time at a
// fixed 8 bytes.
type baseline struct {
	sent, recv int64
	visits     int
	stages     int
	answers    []xmltree.NodeID
}

func soloBaseline(t *testing.T, eng *Engine, ft *fragment.Fragmentation, query string, opts Options) baseline {
	t.Helper()
	res, err := eng.Run(query, opts)
	if err != nil {
		t.Fatalf("solo %q: %v", query, err)
	}
	return baseline{
		sent:    res.BytesSent,
		recv:    res.BytesRecv,
		visits:  res.MaxVisits,
		stages:  res.Stages,
		answers: origIDs(ft, res.Answers),
	}
}

func checkAgainstBaseline(t *testing.T, ft *fragment.Fragmentation, query string, res *Result, want baseline, bound int) {
	t.Helper()
	if res.MaxVisits > bound {
		t.Errorf("%q: MaxVisits = %d, want <= %d", query, res.MaxVisits, bound)
	}
	if res.MaxVisits != want.visits {
		t.Errorf("%q: MaxVisits = %d, solo run had %d", query, res.MaxVisits, want.visits)
	}
	if res.BytesSent != want.sent || res.BytesRecv != want.recv {
		t.Errorf("%q: bytes sent/received = %d/%d, solo run had %d/%d — cost leaked across queries",
			query, res.BytesSent, res.BytesRecv, want.sent, want.recv)
	}
	if res.Stages != want.stages {
		t.Errorf("%q: %d stages, solo run had %d", query, res.Stages, want.stages)
	}
	got := origIDs(ft, res.Answers)
	if !testutil.EqualIDs(got, want.answers) {
		t.Errorf("%q: answers diverged from solo run", query)
	}
}

// TestInterleavedRunsAttributeCostsIndependently is the regression test
// for the shared Metrics().Reset() race: query A is held mid-Stage-1 by a
// transport fault hook while query B runs start to finish on the same
// cluster, so B's entire cost profile lands inside A's run. Each Result
// must still report exactly its own query's bytes and visits.
func TestInterleavedRunsAttributeCostsIndependently(t *testing.T) {
	tr := testutil.PaperTree()
	ft, err := fragment.Cut(tr, fragment.RandomCuts(tr, 4, 31))
	if err != nil {
		t.Fatal(err)
	}
	topo := RoundRobin(ft, 3)
	local, _ := BuildLocalCluster(topo)
	eng := NewEngine(topo, local)

	queryA := `//broker[//stock/code = "GOOG"]/name`
	queryB := `client[country = "Canada" or broker/market/name = "NYSE"]/name`
	optsA := Options{Algorithm: PaX3} // Stage 1 = QualStageReq, the gated type
	optsB := Options{Algorithm: PaX2} // never sends QualStageReq

	wantA := soloBaseline(t, eng, ft, queryA, optsA)
	wantB := soloBaseline(t, eng, ft, queryB, optsB)

	// Gate A's qualifier stage: its calls block until B has finished.
	gate := make(chan struct{})
	local.FaultHook = func(to dist.SiteID, req any) error {
		if _, ok := req.(*QualStageReq); ok {
			<-gate
		}
		return nil
	}

	resA := make(chan *Result, 1)
	errA := make(chan error, 1)
	go func() {
		r, err := eng.Run(queryA, optsA)
		resA <- r
		errA <- err
	}()

	rB, err := eng.Run(queryB, optsB)
	if err != nil {
		t.Fatalf("interleaved B: %v", err)
	}
	close(gate) // B is done; let A proceed
	rA, aerr := <-resA, <-errA
	if aerr != nil {
		t.Fatalf("interleaved A: %v", aerr)
	}

	checkAgainstBaseline(t, ft, queryA, rA, wantA, 3)
	checkAgainstBaseline(t, ft, queryB, rB, wantB, 2)
}

// TestConcurrentRunsSumToTransportTotals checks conservation: with many
// runs in flight at once, every completed call lands in exactly one
// query's ledger, so the per-query totals sum to the transport's lifetime
// counters — nothing lost, nothing double-counted.
func TestConcurrentRunsSumToTransportTotals(t *testing.T) {
	tr := testutil.PaperTree()
	ft, err := fragment.Cut(tr, fragment.RandomCuts(tr, 5, 7))
	if err != nil {
		t.Fatal(err)
	}
	topo := RoundRobin(ft, 3)
	local, _ := BuildLocalCluster(topo)
	eng := NewEngine(topo, local)

	queries := []string{
		"//name",
		"//stock/code",
		`//broker[//stock/code = "GOOG"]/name`,
		`//stock[buy/val() > 375]/code`,
	}
	sent0, recv0 := local.Metrics().Bytes()
	compute0 := local.Metrics().TotalCompute()

	const workers = 8
	const iters = 3
	results := make([][]*Result, workers)
	var wg sync.WaitGroup
	errs := make([]error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				q := queries[(w+i)%len(queries)]
				alg := PaX3
				if i%2 == 1 {
					alg = PaX2
				}
				res, err := eng.Run(q, Options{Algorithm: alg})
				if err != nil {
					errs[w] = err
					return
				}
				results[w] = append(results[w], res)
			}
		}()
	}
	wg.Wait()
	for w, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", w, err)
		}
	}

	var sumSent, sumRecv int64
	var sumCompute int64
	for _, rs := range results {
		for _, r := range rs {
			sumSent += r.BytesSent
			sumRecv += r.BytesRecv
			sumCompute += int64(r.TotalCompute)
		}
	}
	sent1, recv1 := local.Metrics().Bytes()
	compute1 := local.Metrics().TotalCompute()
	if sumSent != sent1-sent0 || sumRecv != recv1-recv0 {
		t.Errorf("per-query byte ledgers sum to %d/%d, transport saw %d/%d",
			sumSent, sumRecv, sent1-sent0, recv1-recv0)
	}
	if sumCompute != int64(compute1-compute0) {
		t.Errorf("per-query compute ledgers sum to %d, transport saw %d",
			sumCompute, int64(compute1-compute0))
	}
}

// TestConcurrentQueriesOverTCP is the serving-layer acceptance test: at
// least 8 queries evaluated concurrently over the TCP transport on one
// cluster, each Result independently satisfying the PaX3 visit bound with
// byte totals identical to a solo run of the same query.
func TestConcurrentQueriesOverTCP(t *testing.T) {
	tr := testutil.PaperTree()
	ft, err := fragment.Cut(tr, fragment.RandomCuts(tr, 4, 31))
	if err != nil {
		t.Fatal(err)
	}
	topo := RoundRobin(ft, 3)
	tcp, _, shutdown, err := BuildTCPCluster(topo)
	if err != nil {
		t.Fatal(err)
	}
	defer shutdown()
	eng := NewEngine(topo, tcp)

	queries := []string{
		"client/name",
		"//name",
		"//stock/code",
		"//market//code",
		`//broker[//stock/code/text() = "GOOG"]/name`,
		`//broker[//stock/code = "GOOG" and not(//stock/code = "YHOO")]/name`,
		`//stock[buy/val() > 375]/code`,
		`client[country = "Canada" or broker/market/name = "NYSE"]/name`,
	}
	opts := Options{Algorithm: PaX3}
	baselines := make([]baseline, len(queries))
	for i, q := range queries {
		baselines[i] = soloBaseline(t, eng, ft, q, opts)
	}

	const iters = 2
	var wg sync.WaitGroup
	for w := range queries {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				res, err := eng.Run(queries[w], opts)
				if err != nil {
					t.Errorf("worker %d iter %d: %v", w, i, err)
					return
				}
				checkAgainstBaseline(t, ft, queries[w], res, baselines[w], 3)
			}
		}()
	}
	wg.Wait()
}

// TestSiteRejectsOutOfOrderStage: a later stage of a query naming a
// fragment version that no earlier stage could have read at the site must
// come back as a typed error through the transport, not kill the site. A
// selection stage naming no version is a query's first read, and is
// served.
func TestSiteRejectsOutOfOrderStage(t *testing.T) {
	tr := testutil.PaperTree()
	ft, err := fragment.Cut(tr, fragment.RandomCuts(tr, 3, 7))
	if err != nil {
		t.Fatal(err)
	}
	topo := RoundRobin(ft, 2)
	_, sites := BuildLocalCluster(topo)
	h := sites[0].Handler()

	query := `//broker[//stock/code = "GOOG"]/name`
	frags := topo.FragsAt(sites[0].ID())
	_, err = h(&SelStageReq{QID: 777, Query: query, NumFrags: int32(ft.Len()), Frags: frags, Versions: []WireVersion{{Frag: frags[0], Version: 5}}})
	if !errors.Is(err, ErrVersionSkew) {
		t.Fatalf("selection stage at a version never held: err = %v, want ErrVersionSkew", err)
	}
	init := WireInit{Frag: frags[0], SV: make([]bool, 4)}
	_, err = h(&AnsStageReq{QID: 778, Query: query, NumFrags: int32(ft.Len()), Inits: []WireInit{init},
		Versions: []WireVersion{{Frag: frags[0], Version: 5}}})
	if !errors.Is(err, ErrVersionSkew) {
		t.Fatalf("answer stage at a version never held: err = %v, want ErrVersionSkew", err)
	}

	// The site remains fully functional afterwards, and a first read
	// names no version.
	if _, err := h(&SelStageReq{QID: 779, Query: query, NumFrags: int32(ft.Len()), Frags: frags}); err != nil {
		t.Fatalf("site unusable after protocol errors: %v", err)
	}
}

// TestMalformedSiteResponsesSurfaceAsErrors: a site answering with the
// wrong response type, or claiming candidates while withholding their
// contexts, must fail the query with an error — the coordinator never
// panics on remote data.
func TestMalformedSiteResponsesSurfaceAsErrors(t *testing.T) {
	tr := testutil.PaperTree()
	query := `//broker[//stock/code = "GOOG"]/name`

	build := func() (*Engine, *dist.Local, []*Site) {
		ft, err := fragment.Cut(tr, fragment.RandomCuts(tr, 4, 31))
		if err != nil {
			t.Fatal(err)
		}
		topo := RoundRobin(ft, 3)
		local, sites := BuildLocalCluster(topo)
		return NewEngine(topo, local), local, sites
	}

	// Precondition: this cut/query combination reaches Stage 3, so the
	// contexts we are about to strip are actually load-bearing.
	eng, _, _ := build()
	res, err := eng.Run(query, Options{Algorithm: PaX3})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stages != 3 {
		t.Fatalf("precondition: query runs %d stages, want 3", res.Stages)
	}

	t.Run("wrong response type", func(t *testing.T) {
		eng, local, sites := build()
		local.AddSite(sites[0].ID(), func(req any) (any, error) {
			return &AnsStageResp{}, nil
		})
		_, err := eng.Run(query, Options{Algorithm: PaX3})
		if err == nil || !strings.Contains(err.Error(), "unexpected") {
			t.Fatalf("err = %v, want unexpected-response error", err)
		}
	})

	t.Run("candidates without contexts", func(t *testing.T) {
		eng, local, sites := build()
		for _, st := range sites {
			h := st.Handler()
			local.AddSite(st.ID(), func(req any) (any, error) {
				resp, err := h(req)
				if sr, ok := resp.(*SelStageResp); ok {
					sr.Contexts = nil
				}
				return resp, err
			})
		}
		_, err := eng.Run(query, Options{Algorithm: PaX3})
		if err == nil {
			t.Fatal("stripped contexts: Run succeeded, want error")
		}
		if !strings.Contains(err.Error(), "without a ground context") {
			t.Fatalf("err = %v, want ground-context error", err)
		}
	})
}
