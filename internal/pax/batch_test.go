package pax

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"reflect"
	"slices"
	"sync"
	"testing"
	"time"

	"paxq/internal/dist"
	"paxq/internal/fragment"
	"paxq/internal/testutil"
	"paxq/internal/xmltree"
)

// TestPreCancelledContextFailsAdmission: a query arriving with an already
// dead context must fail with the context's error before claiming a slot —
// in every admission configuration, including a full engine in shed mode,
// where the bug misreported the cancellation as ErrOverloaded.
func TestPreCancelledContextFailsAdmission(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	configs := map[string][]EngineOption{
		"unlimited": nil,
		"shed":      {WithMaxInFlight(1)},
		"queue":     {WithMaxInFlight(1), WithQueueTimeout(time.Minute)},
	}
	for name, opts := range configs {
		t.Run(name, func(t *testing.T) {
			eng := gatedCluster(t, nil, opts...)
			if _, err := eng.RunContext(ctx, `//broker/name`, Options{Algorithm: PaX2}); !errors.Is(err, context.Canceled) {
				t.Fatalf("idle engine: err = %v, want context.Canceled", err)
			}
			if eng.inflight != nil && len(eng.inflight) != 0 {
				t.Fatalf("pre-cancelled query claimed a slot (%d in flight)", len(eng.inflight))
			}
		})
	}

	// The regression case: engine FULL, shed mode. The fast path used to
	// win the select against the (never-polled) context and report
	// overload for a query that was never going to run.
	gate := make(chan struct{})
	defer close(gate)
	eng := gatedCluster(t, gate, WithMaxInFlight(1))
	go eng.Run(`//broker/name`, Options{Algorithm: PaX2})
	waitFor(t, func() bool { return len(eng.inflight) == 1 })
	if _, err := eng.RunContext(ctx, `//broker/name`, Options{Algorithm: PaX2}); !errors.Is(err, context.Canceled) {
		t.Fatalf("full engine, shed mode: err = %v, want context.Canceled (not ErrOverloaded)", err)
	}
}

// TestPlanCacheCoalescesConcurrentMisses: N concurrent first-time misses
// of one (query, annotations) key must compile exactly once — the herd
// blocks on the first misser's flight instead of racing get-then-put.
func TestPlanCacheCoalescesConcurrentMisses(t *testing.T) {
	tr := testutil.PaperTree()
	eng, _, err := cluster(tr, fragment.RandomCuts(tr, 3, 7), 2)
	if err != nil {
		t.Fatal(err)
	}
	const herd = 32
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < herd; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			if _, err := eng.plan(`//broker[//stock/code = "GOOG" and not(//stock/code = "YHOO")]/name`, true, false); err != nil {
				t.Error(err)
			}
		}()
	}
	close(start)
	wg.Wait()
	if n := eng.planCompiles.Load(); n != 1 {
		t.Fatalf("plan compiled %d times under a %d-goroutine herd, want 1", n, herd)
	}
}

// TestSiteCompileCacheCoalescesConcurrentMisses is the site-side twin: one
// compilation per query text no matter how many sessions miss at once.
func TestSiteCompileCacheCoalescesConcurrentMisses(t *testing.T) {
	tr := testutil.PaperTree()
	ft, err := fragment.Cut(tr, fragment.RandomCuts(tr, 2, 3))
	if err != nil {
		t.Fatal(err)
	}
	var frags []*fragment.Fragment
	for i := 0; i < ft.Len(); i++ {
		frags = append(frags, ft.Frag(fragment.FragID(i)))
	}
	site := NewSite(0, frags)
	const herd = 32
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < herd; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			if _, err := site.compile(`//broker[market/name = "NYSE"]/name`); err != nil {
				t.Error(err)
			}
		}()
	}
	close(start)
	wg.Wait()
	if n := site.compiles.Load(); n != 1 {
		t.Fatalf("site compiled %d times under a %d-goroutine herd, want 1", n, herd)
	}
}

// TestShedQueryNeverCompiles: admission strictly precedes planning, so a
// query shed by a full engine must not burn compile CPU or pollute the
// plan cache.
func TestShedQueryNeverCompiles(t *testing.T) {
	gate := make(chan struct{})
	eng := gatedCluster(t, gate, WithMaxInFlight(1))
	done := make(chan error, 1)
	go func() {
		_, err := eng.Run(`//broker/name`, Options{Algorithm: PaX2})
		done <- err
	}()
	waitFor(t, func() bool { return len(eng.inflight) == 1 })
	compiled := eng.planCompiles.Load()
	cached := eng.plans.len()

	// A brand-new query text against the full engine: shed, uncompiled.
	if _, err := eng.Run(`client[country = "US"]/name`, Options{Algorithm: PaX3}); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("err = %v, want ErrOverloaded", err)
	}
	if n := eng.planCompiles.Load(); n != compiled {
		t.Fatalf("shed query compiled its plan (%d -> %d compiles)", compiled, n)
	}
	if n := eng.plans.len(); n != cached {
		t.Fatalf("shed query polluted the plan cache (%d -> %d entries)", cached, n)
	}
	close(gate)
	if err := <-done; err != nil {
		t.Fatalf("slot holder failed: %v", err)
	}
}

// batchedClusters builds two engines over identical fragmentations of one
// tree — one with a batching window, one without — plus the batched
// cluster's transport and sites for ledger and counter assertions.
func batchedClusters(t *testing.T, tr *xmltree.Tree, cuts []xmltree.NodeID, numSites int, engOpts []EngineOption) (batched, direct *Engine, btr *dist.Local, bsites []*Site, ft *fragment.Fragmentation) {
	t.Helper()
	ft, err := fragment.Cut(tr, cuts)
	if err != nil {
		t.Fatal(err)
	}
	topo := RoundRobin(ft, numSites)
	btr, bsites = BuildLocalCluster(topo)
	batched = NewEngine(topo, btr, engOpts...)

	ft2, err := fragment.Cut(tr, cuts)
	if err != nil {
		t.Fatal(err)
	}
	topo2 := RoundRobin(ft2, numSites)
	local2, _ := BuildLocalCluster(topo2)
	direct = NewEngine(topo2, local2)
	return batched, direct, btr, bsites, ft
}

// TestBatchOfOneMatchesDirect: with a batching window armed but only one
// query in flight at a time, every flush is a batch of one — which must be
// wire-identical to an unbatched engine: same answers, same visit counts,
// same byte totals, query by query.
func TestBatchOfOneMatchesDirect(t *testing.T) {
	tr := testutil.PaperTree()
	batched, direct, _, _, ft := batchedClusters(t, tr, fragment.RandomCuts(tr, 4, 17), 3,
		[]EngineOption{WithBatchWindow(200 * time.Microsecond), WithMaxBatchSize(8)})
	for _, query := range fig1Queries {
		for i := range 2 * len(allOptions) {
			opts := allOptions[i/2]
			opts.ShipXML = i%2 == 1
			want, err := direct.Run(query, opts)
			if err != nil {
				t.Fatalf("%s %q direct: %v", opts.Algorithm, query, err)
			}
			got, err := batched.Run(query, opts)
			if err != nil {
				t.Fatalf("%s %q batched: %v", opts.Algorithm, query, err)
			}
			label := fmt.Sprintf("%s(XA=%v, ShipXML=%v) %q", opts.Algorithm, opts.Annotations, opts.ShipXML, query)
			if !testutil.EqualIDs(origIDs(ft, got.Answers), origIDs(ft, want.Answers)) {
				t.Errorf("%s: answers diverge between batched and direct", label)
			}
			if !slices.EqualFunc(got.Answers, want.Answers, func(a, b AnswerNode) bool { return a.XML == b.XML }) {
				t.Errorf("%s: shipped XML diverges between batched and direct", label)
			}
			if got.MaxVisits != want.MaxVisits {
				t.Errorf("%s: MaxVisits %d (batched) vs %d (direct)", label, got.MaxVisits, want.MaxVisits)
			}
			if got.BytesSent != want.BytesSent || got.BytesRecv != want.BytesRecv {
				t.Errorf("%s: bytes %d/%d (batched) vs %d/%d (direct)", label,
					got.BytesSent, got.BytesRecv, want.BytesSent, want.BytesRecv)
			}
		}
	}
}

// TestBatchSharedEvaluation: concurrent queries that compile to one
// normal form, coalesced into one envelope, share a single Stage-1 sweep
// per site — the site's qualPasses counter must come in strictly below
// one-per-query, and every member must still get the right answer and its
// visit guarantee. The second input spells one query two ways: members
// group by the compiled fingerprint, not the text, so a two-member envelope
// of both spellings costs one sweep. The envelope goes to a restarted
// site, whose Stage-1 memo holds nothing for those texts: the one sweep is
// the group's own, not a memo hit.
func TestBatchSharedEvaluation(t *testing.T) {
	inputs := []struct {
		name    string
		queries []string // member i runs queries[i%len(queries)]
	}{
		{"one spelling", []string{`//broker[//stock/code = "GOOG"]/name`}},
		{"two spellings", []string{
			`client[country/text() = "US"][broker/market/name/text() = "NASDAQ"]/broker/name`,
			`client[country/text() = "US" and broker/market/name/text() = "NASDAQ"]/broker/name`,
		}},
	}
	for _, in := range inputs {
		t.Run(in.name, func(t *testing.T) {
			tr := testutil.PaperTree()
			const concurrency = 6
			// A generous window: all members are launched together and must
			// land inside it even on a loaded race-detector host.
			batched, _, _, bsites, ft := batchedClusters(t, tr, fragment.RandomCuts(tr, 4, 17), 3,
				[]EngineOption{WithBatchWindow(150 * time.Millisecond), WithMaxBatchSize(concurrency)})
			want := oracle(t, tr, in.queries[0])

			start := make(chan struct{})
			results := make([]*Result, concurrency)
			errs := make([]error, concurrency)
			var wg sync.WaitGroup
			for i := 0; i < concurrency; i++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					<-start
					results[i], errs[i] = batched.Run(in.queries[i%len(in.queries)], Options{Algorithm: PaX3})
				}(i)
			}
			close(start)
			wg.Wait()

			for i := 0; i < concurrency; i++ {
				if errs[i] != nil {
					t.Fatalf("member %d: %v", i, errs[i])
				}
				if got := origIDs(ft, results[i].Answers); !testutil.EqualIDs(got, want) {
					t.Errorf("member %d: got %v want %v", i, got, want)
				}
				if results[i].MaxVisits > 3 {
					t.Errorf("member %d: MaxVisits = %d > 3", i, results[i].MaxVisits)
				}
			}
			var passes int64
			for _, s := range bsites {
				passes += s.qualPasses.Load()
			}
			// Unshared evaluation would run one sweep per member per site.
			if unshared := int64(concurrency * len(bsites)); passes >= unshared {
				t.Errorf("qualPasses = %d, want < %d (batch members must share Stage-1 sweeps)", passes, unshared)
			}

			// One envelope carrying every spelling, straight to one site:
			// exactly one sweep, and every member ships the same roots.
			site := bsites[0]
			site.Restart()
			var subs []BatchSub
			for i, q := range in.queries {
				b, err := (&QualStageReq{QID: QueryID(1000 + i), Query: q, NumFrags: int32(ft.Len()), Final: true}).AppendBinary(nil)
				if err != nil {
					t.Fatal(err)
				}
				subs = append(subs, BatchSub{Tag: tagQualStageReq, Body: b})
			}
			before := site.qualPasses.Load()
			resp, err := site.handleBatch(&BatchStageReq{Subs: subs})
			if err != nil {
				t.Fatal(err)
			}
			if n := site.qualPasses.Load() - before; n != 1 {
				t.Errorf("an envelope of %d spellings ran %d Stage-1 sweeps, want 1", len(in.queries), n)
			}
			for i, sub := range resp.Subs {
				if sub.Tag != tagQualStageResp || !bytes.Equal(sub.Body, resp.Subs[0].Body) {
					t.Errorf("member %d shipped a different Stage-1 response than member 0", i)
				}
			}
		})
	}
}

// TestBatchCostConservation: under concurrent batched load, the sum of the
// per-query ledgers must equal the transport's lifetime counters exactly —
// every byte and every nanosecond of a shared envelope is attributed to
// exactly one member.
func TestBatchCostConservation(t *testing.T) {
	tr := testutil.RandomTree(6, 300)
	const concurrency = 12
	batched, _, btr, _, ft := batchedClusters(t, tr, fragment.RandomCuts(tr, 7, 5), 3,
		[]EngineOption{WithBatchWindow(2 * time.Millisecond), WithMaxBatchSize(4)})
	_ = ft
	queries := []string{
		`//a[b = "x"]/c`,
		`/root//d`,
		`//*[not(b) and c/val() >= 10]`,
		`a/b//c[d or e]`,
	}
	m := btr.Metrics()
	sent0, recv0 := m.Bytes()
	comp0 := m.TotalCompute()

	results := make([]*Result, concurrency)
	errs := make([]error, concurrency)
	var wg sync.WaitGroup
	start := make(chan struct{})
	for i := 0; i < concurrency; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			opts := Options{Algorithm: []Algorithm{PaX3, PaX2}[i%2], Annotations: i%3 == 0, ShipXML: i%4 < 2}
			results[i], errs[i] = batched.Run(queries[i%len(queries)], opts)
		}(i)
	}
	close(start)
	wg.Wait()

	var sent, recv int64
	var comp time.Duration
	for i := 0; i < concurrency; i++ {
		if errs[i] != nil {
			t.Fatalf("query %d: %v", i, errs[i])
		}
		sent += results[i].BytesSent
		recv += results[i].BytesRecv
		comp += results[i].TotalCompute
	}
	sent1, recv1 := m.Bytes()
	comp1 := m.TotalCompute()
	if sent != sent1-sent0 || recv != recv1-recv0 {
		t.Errorf("byte conservation: Σ per-query = %d/%d, transport delta = %d/%d",
			sent, recv, sent1-sent0, recv1-recv0)
	}
	if comp != comp1-comp0 {
		t.Errorf("compute conservation: Σ per-query = %v, transport delta = %v", comp, comp1-comp0)
	}
}

// TestBatchInterleavedWithUnbatchedRace mixes batched and unbatched
// traffic over one tree concurrently; run under -race in the tier-1 suite.
// Every run must produce oracle answers.
func TestBatchInterleavedWithUnbatchedRace(t *testing.T) {
	tr := testutil.PaperTree()
	cuts := fragment.RandomCuts(tr, 3, 23)
	batched, direct, _, _, ft := batchedClusters(t, tr, cuts, 2,
		[]EngineOption{WithBatchWindow(500 * time.Microsecond), WithMaxBatchSize(4)})
	queries := fig1Queries[:6]
	oracles := make(map[string][]xmltree.NodeID, len(queries))
	for _, q := range queries {
		oracles[q] = oracle(t, tr, q)
	}

	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			eng := batched
			if w%2 == 1 {
				eng = direct
			}
			for i := 0; i < 6; i++ {
				q := queries[(w+i)%len(queries)]
				res, err := eng.Run(q, Options{Algorithm: []Algorithm{PaX3, PaX2}[i%2], Annotations: w%3 == 0})
				if err != nil {
					t.Errorf("worker %d %q: %v", w, q, err)
					return
				}
				if got := origIDs(ft, res.Answers); !testutil.EqualIDs(got, oracles[q]) {
					t.Errorf("worker %d %q: got %v want %v", w, q, got, oracles[q])
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestBatchEnvelopeRoundTrip exercises the hand-written batch codec the
// way wiremsg_test does for the other messages.
func TestBatchEnvelopeRoundTrip(t *testing.T) {
	req := &BatchStageReq{Subs: []BatchSub{
		{Tag: tagQualStageReq, Body: []byte{1, 2, 3}},
		{Tag: tagAnsStageReq, Body: nil},
		{Tag: tagSelStageReq, Body: []byte{0xff}},
	}}
	b, err := req.AppendBinary(nil)
	if err != nil {
		t.Fatal(err)
	}
	var gotReq BatchStageReq
	if err := gotReq.DecodeBinary(b); err != nil {
		t.Fatal(err)
	}
	if len(gotReq.Subs) != len(req.Subs) {
		t.Fatalf("got %d subs, want %d", len(gotReq.Subs), len(req.Subs))
	}
	for i := range req.Subs {
		if gotReq.Subs[i].Tag != req.Subs[i].Tag || string(gotReq.Subs[i].Body) != string(req.Subs[i].Body) {
			t.Errorf("sub %d: got %+v want %+v", i, gotReq.Subs[i], req.Subs[i])
		}
	}

	resp := &BatchStageResp{
		Subs:            []BatchSub{{Tag: tagQualStageResp, Body: []byte{9}}, {Tag: 0, Body: []byte("boom")}},
		SubComputeNanos: []int64{41, 1},
	}
	b, err = resp.AppendBinary(nil)
	if err != nil {
		t.Fatal(err)
	}
	var gotResp BatchStageResp
	if err := gotResp.DecodeBinary(b); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(&gotResp, resp) {
		t.Errorf("round trip:\n got %+v\nwant %+v", &gotResp, resp)
	}

	// Mismatched compute arity must refuse to encode, not ship a frame the
	// decoder cannot align.
	bad := &BatchStageResp{Subs: []BatchSub{{Tag: 1}}, SubComputeNanos: nil}
	if _, err := bad.AppendBinary(nil); err == nil {
		t.Error("mismatched SubComputeNanos arity encoded without error")
	}
}

// TestSplitSharesExact: shares are proportional, deterministic, and sum
// exactly to the total in every regime (weighted, unweighted, zero-total,
// overflow-prone magnitudes).
func TestSplitSharesExact(t *testing.T) {
	cases := []struct {
		total   int64
		weights []int64
		n       int
	}{
		{100, []int64{1, 2, 3}, 3},
		{7, []int64{0, 0, 0}, 3},
		{7, nil, 3},
		{0, []int64{5, 5}, 2},
		{1, []int64{1000, 1}, 2},
		{1 << 50, []int64{1 << 40, 3 << 40, 1}, 3},
		{3, []int64{-1, 2}, 2},
	}
	for _, c := range cases {
		got := splitShares(c.total, c.weights, c.n)
		var sum int64
		for i, s := range got {
			if s < 0 {
				t.Errorf("splitShares(%d, %v, %d)[%d] = %d < 0", c.total, c.weights, c.n, i, s)
			}
			sum += s
		}
		want := c.total
		if want < 0 {
			want = 0
		}
		if sum != want {
			t.Errorf("splitShares(%d, %v, %d) sums to %d", c.total, c.weights, c.n, sum)
		}
		again := splitShares(c.total, c.weights, c.n)
		if !reflect.DeepEqual(got, again) {
			t.Errorf("splitShares(%d, %v, %d) nondeterministic: %v vs %v", c.total, c.weights, c.n, got, again)
		}
	}
}
