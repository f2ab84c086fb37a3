package pax

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"paxq/internal/dist"
	"paxq/internal/fragment"
	"paxq/internal/testutil"
)

// gatedCluster builds a local cluster whose site calls park on gate until
// it is closed, so tests can hold evaluations in flight deterministically.
func gatedCluster(t *testing.T, gate chan struct{}, opts ...EngineOption) *Engine {
	t.Helper()
	tr := testutil.PaperTree()
	ft, err := fragment.Cut(tr, fragment.RandomCuts(tr, 2, 11))
	if err != nil {
		t.Fatal(err)
	}
	topo := RoundRobin(ft, 2)
	local, _ := BuildLocalCluster(topo)
	local.FaultHook = func(dist.SiteID, any) error {
		if gate != nil {
			<-gate
		}
		return nil
	}
	return NewEngine(topo, local, opts...)
}

// TestAdmissionShedsWithErrOverloaded verifies shedding: with
// MaxInFlight slots occupied, a new Run fails immediately
// and typed, and the occupants complete untouched.
func TestAdmissionShedsWithErrOverloaded(t *testing.T) {
	gate := make(chan struct{})
	eng := gatedCluster(t, gate, WithMaxInFlight(2))
	query := `//broker/name`

	var wg sync.WaitGroup
	errc := make(chan error, 2)
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := eng.Run(query, Options{Algorithm: PaX2})
			errc <- err
		}()
	}
	// Wait until both runs hold their slots (parked inside the fault hook).
	waitFor(t, func() bool { return len(eng.inflight) == 2 })

	if _, err := eng.Run(query, Options{Algorithm: PaX2}); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("third run on a full engine: err = %v, want ErrOverloaded", err)
	}
	close(gate)
	wg.Wait()
	for i := 0; i < 2; i++ {
		if err := <-errc; err != nil {
			t.Errorf("admitted run failed: %v", err)
		}
	}
	// Slots released: a new run is admitted again.
	if _, err := eng.Run(query, Options{Algorithm: PaX2}); err != nil {
		t.Fatalf("run after load dropped: %v", err)
	}
}

// TestRunContextDeadlineStopsStages: an expired context fails the next
// site round trip instead of letting the query run on.
func TestRunContextDeadlineStopsStages(t *testing.T) {
	tr := testutil.PaperTree()
	ft, err := fragment.Cut(tr, fragment.RandomCuts(tr, 3, 5))
	if err != nil {
		t.Fatal(err)
	}
	topo := RoundRobin(ft, 2)
	local, _ := BuildLocalCluster(topo)
	eng := NewEngine(topo, local)
	local.FaultHook = func(dist.SiteID, any) error {
		time.Sleep(20 * time.Millisecond) // out-sleep the deadline below
		return nil
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	// A qualified PaX3 query needs several stages; the deadline expires
	// during the first, so a later Call must fail with the context error.
	_, err = eng.RunContext(ctx, `//broker[//stock/code = "GOOG"]/name`, Options{Algorithm: PaX3})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
}

// waitFor polls cond briefly; the test fails if it never holds.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition never held")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestStageComputeConservedOnBothTransports: the transport's measured
// handler time is the only site-compute figure, so every stage of a PaX3
// or PaX2 run charges a positive compute, the stages sum to the run's
// TotalCompute, and the runs' TotalComputes sum exactly to the transport's
// lifetime compute — on the in-process and on the TCP transport.
func TestStageComputeConservedOnBothTransports(t *testing.T) {
	tr := testutil.RandomTree(7, 400)
	ft, err := fragment.Cut(tr, fragment.RandomCuts(tr, 9, 3))
	if err != nil {
		t.Fatal(err)
	}
	topo := RoundRobin(ft, 3) // 3 fragments per site
	local, _ := BuildLocalCluster(topo)
	tcp, _, shutdown, err := BuildTCPCluster(topo)
	if err != nil {
		t.Fatal(err)
	}
	defer shutdown()
	queries := []string{
		`//a[b = "x"]/c`,
		`/root//d`,
		`//*[not(b) and c/val() >= 10]`,
		`a/b//c[d or e]`,
	}
	for _, transport := range []dist.Transport{local, tcp} {
		eng := NewEngine(topo, transport)
		compute0 := transport.Metrics().TotalCompute()
		var sum time.Duration
		for _, query := range queries {
			for _, alg := range []Algorithm{PaX3, PaX2} {
				res, err := eng.Run(query, Options{Algorithm: alg})
				if err != nil {
					t.Fatalf("%T %v %q: %v", transport, alg, query, err)
				}
				label := fmt.Sprintf("%T %v %q", transport, alg, query)
				var stages time.Duration
				for i, c := range res.StageCompute {
					if c <= 0 {
						t.Errorf("%s: stage %d compute = %v, want > 0", label, i+1, c)
					}
					stages += c
				}
				if res.TotalCompute <= 0 || stages != res.TotalCompute {
					t.Errorf("%s: stages sum to %v, TotalCompute = %v, want equal and > 0", label, stages, res.TotalCompute)
				}
				sum += res.TotalCompute
			}
		}
		if got := transport.Metrics().TotalCompute() - compute0; got != sum {
			t.Errorf("%T: per-query compute sums to %v, transport saw %v", transport, sum, got)
		}
	}
}

// TestPreCancelledContextFailsAdmission: a query arriving with an already
// dead context must fail with the context's error before claiming a slot —
// with and without an admission limit, including a full engine,
// where the bug misreported the cancellation as ErrOverloaded.
func TestPreCancelledContextFailsAdmission(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	configs := map[string][]EngineOption{
		"unlimited": nil,
		"shed":      {WithMaxInFlight(1)},
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

	// The regression case: a FULL engine. The fast path used to
	// win the select against the (never-polled) context and report
	// overload for a query that was never going to run.
	gate := make(chan struct{})
	defer close(gate)
	eng := gatedCluster(t, gate, WithMaxInFlight(1))
	go eng.Run(`//broker/name`, Options{Algorithm: PaX2})
	waitFor(t, func() bool { return len(eng.inflight) == 1 })
	if _, err := eng.RunContext(ctx, `//broker/name`, Options{Algorithm: PaX2}); !errors.Is(err, context.Canceled) {
		t.Fatalf("full engine: err = %v, want context.Canceled (not ErrOverloaded)", err)
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
