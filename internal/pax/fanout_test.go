package pax

import (
	"context"
	"errors"
	"fmt"
	"regexp"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"paxq/internal/dist"
	"paxq/internal/fragment"
	"paxq/internal/testutil"
)

// fetchSites builds a Local transport whose sites answer a final-stage
// body fetch (AnsStageReq) with an empty AnsStageResp, or fail with the
// handler error named in fail.
func fetchSites(fail map[dist.SiteID]string, sites ...dist.SiteID) *dist.Local {
	l := dist.NewLocal()
	for _, id := range sites {
		msg, bad := fail[id]
		l.AddSite(id, func(any) (any, error) {
			if bad {
				return nil, errors.New(msg)
			}
			return &AnsStageResp{}, nil
		})
	}
	return l
}

// echoCall is a transport-free round trip answering each site with its
// own id, charging one unit of compute per call.
func echoCall(ctx context.Context, site dist.SiteID, req any) (any, dist.CallCost, error) {
	if msg, ok := req.(string); ok && strings.HasPrefix(msg, "fail:") {
		return nil, dist.CallCost{}, errors.New(strings.TrimPrefix(msg, "fail:"))
	}
	return site, dist.CallCost{Compute: 1}, nil
}

// callTransport is a transport whose round trip is the function itself.
type callTransport func(context.Context, dist.SiteID, any) (any, dist.CallCost, error)

func (f callTransport) Call(ctx context.Context, to dist.SiteID, req any) (any, dist.CallCost, error) {
	return f(ctx, to, req)
}

func (callTransport) Metrics() *dist.Metrics { return nil }

func (callTransport) Close() error { return nil }

// testRun is a run on a bare engine whose calls take the round trip
// call, every group routed to its primary.
func testRun(seq bool, call func(context.Context, dist.SiteID, any) (any, dist.CallCost, error)) *run {
	return &run{e: &Engine{tr: callTransport(call)}, seq: seq, usage: dist.NewMetrics()}
}

func TestFanOutRequests(t *testing.T) {
	primaries := []dist.SiteID{3, 1, 2}
	var mkOrder []dist.SiteID
	resps, costs, err := testRun(false, echoCall).fanOut(context.Background(), primaries, func(id dist.SiteID) any {
		mkOrder = append(mkOrder, id)
		if id == 1 {
			return nil // skipped site
		}
		return fmt.Sprintf("to-%d", id)
	})
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(mkOrder) != fmt.Sprint(primaries) {
		t.Errorf("mk order %v, want %v", mkOrder, primaries)
	}
	if len(resps) != 2 || len(costs) != 2 {
		t.Fatalf("got %d responses and %d costs, want 2 each: %v %v", len(resps), len(costs), resps, costs)
	}
	if _, ok := resps[1]; ok {
		t.Error("skipped site produced a response")
	}
	for _, id := range []dist.SiteID{2, 3} {
		if resps[id] != id {
			t.Errorf("site %d: response %v", id, resps[id])
		}
	}
}

func TestFanOutFirstErrorInPrimaryOrder(t *testing.T) {
	for _, seq := range []bool{false, true} {
		// Sites 2 and 7 both fail; primary order is 4, 2, 7, so the
		// reported error must deterministically be site 2's.
		_, _, err := testRun(seq, echoCall).fanOut(context.Background(), []dist.SiteID{4, 2, 7}, func(id dist.SiteID) any {
			if id == 2 || id == 7 {
				return fmt.Sprintf("fail:site %d down", id)
			}
			return "ok"
		})
		if err == nil || !strings.Contains(err.Error(), "site 2 down") {
			t.Errorf("seq=%v: err = %v, want the first failing site in primary order (2)", seq, err)
		}
		var be *dist.BroadcastError
		if !errors.As(err, &be) {
			t.Fatalf("seq=%v: err = %T, want *dist.BroadcastError", seq, err)
		}
		// The concurrent round reports every failure; the serial one stops
		// at the first.
		want := "[2 7]"
		if seq {
			want = "[2]"
		}
		if got := failedSites(be); got != want {
			t.Errorf("seq=%v: failed sites %s, want %s", seq, got, want)
		}
	}
}

func failedSites(be *dist.BroadcastError) string {
	ids := make([]dist.SiteID, len(be.Failures))
	for i, f := range be.Failures {
		ids[i] = f.Site
	}
	return fmt.Sprint(ids)
}

func TestFanOutConcurrent(t *testing.T) {
	// All calls must be in flight at once: each call blocks until every
	// site has been reached, so a serial round would deadlock.
	const n = 8
	var wg sync.WaitGroup
	wg.Add(n)
	primaries := make([]dist.SiteID, n)
	for i := range primaries {
		primaries[i] = dist.SiteID(i)
	}
	done := make(chan error, 1)
	go func() {
		_, _, err := testRun(false, func(ctx context.Context, site dist.SiteID, req any) (any, dist.CallCost, error) {
			wg.Done()
			wg.Wait()
			return site, dist.CallCost{}, nil
		}).fanOut(context.Background(), primaries, func(dist.SiteID) any { return "ok" })
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("fan-out not concurrent: calls deadlocked waiting for each other")
	}
}

func TestFanOutSequentialIsSerial(t *testing.T) {
	var inFlight atomic.Int32
	var overlapped atomic.Bool
	_, _, err := testRun(true, func(ctx context.Context, site dist.SiteID, req any) (any, dist.CallCost, error) {
		if inFlight.Add(1) != 1 {
			overlapped.Store(true)
		}
		time.Sleep(time.Millisecond)
		inFlight.Add(-1)
		return site, dist.CallCost{}, nil
	}).fanOut(context.Background(), []dist.SiteID{0, 1, 2, 3}, func(dist.SiteID) any { return "ok" })
	if err != nil {
		t.Fatal(err)
	}
	if overlapped.Load() {
		t.Fatal("calls overlapped under seq, want one at a time")
	}
}

func TestFanOutErrorAggregate(t *testing.T) {
	l := fetchSites(nil, 1, 2, 3)
	defer l.Close()
	// Sites 1 and 3 are made unavailable by a fault hook; site 2 serves.
	l.FaultHook = func(to dist.SiteID, req any) error {
		if to == 1 || to == 3 {
			return fmt.Errorf("dist: site %d %w: injected", to, dist.ErrSiteUnavailable)
		}
		return nil
	}
	r := testRun(false, l.Call)
	_, costs, err := r.fanOut(context.Background(), []dist.SiteID{1, 2, 3}, func(dist.SiteID) any { return &AnsStageReq{} })
	var be *dist.BroadcastError
	if !errors.As(err, &be) {
		t.Fatalf("err = %T %v, want *dist.BroadcastError", err, err)
	}
	if got := failedSites(be); got != "[1 3]" {
		t.Fatalf("failed sites %s, want [1 3]", got)
	}
	for _, f := range be.Failures {
		if !dist.Retriable(f.Err) {
			t.Errorf("site %d: %v not retriable, want unavailability", f.Site, f.Err)
		}
	}
	// errors.Is traverses into the member failures.
	if !errors.Is(err, dist.ErrSiteUnavailable) {
		t.Fatal("errors.Is(err, ErrSiteUnavailable) = false on the aggregate")
	}
	// The message leads with the first failing site and counts the rest.
	if msg := err.Error(); !strings.Contains(msg, "site 1") || !strings.Contains(msg, "1 more failed site") {
		t.Fatalf("Error() = %q", msg)
	}
	// Only site 2's call reached a site; the hook-failed calls cost nothing.
	if v := r.usage.Snapshot().Visits; len(costs) != 1 || len(v) != 1 || v[2] != 1 {
		t.Fatalf("costs = %+v charged to %v, want site 2's completed call only", costs, v)
	}
}

func TestFanOutErrorMixedRetriability(t *testing.T) {
	// Site 2's handler fails permanently (a handler error, site reachable).
	l := fetchSites(map[dist.SiteID]string{2: "bad request"}, 1, 2)
	defer l.Close()
	l.FaultHook = func(to dist.SiteID, req any) error {
		if to == 1 {
			return fmt.Errorf("dist: site %d %w: injected", to, dist.ErrSiteUnavailable)
		}
		return nil
	}
	_, _, err := testRun(false, l.Call).fanOut(context.Background(), []dist.SiteID{1, 2}, func(dist.SiteID) any { return &AnsStageReq{} })
	var be *dist.BroadcastError
	if !errors.As(err, &be) {
		t.Fatalf("err = %T, want *dist.BroadcastError", err)
	}
	if len(be.Failures) != 2 || !dist.Retriable(be.Failures[0].Err) || dist.Retriable(be.Failures[1].Err) {
		t.Fatalf("failures = %+v, want site 1 retriable, site 2 permanent", be.Failures)
	}
}

func TestFanOutSingleFailureKeepsPlainMessage(t *testing.T) {
	l := fetchSites(map[dist.SiteID]string{2: "no such fragment"}, 1, 2)
	defer l.Close()
	r := testRun(false, l.Call)
	_, costs, err := r.fanOut(context.Background(), []dist.SiteID{1, 2}, func(dist.SiteID) any { return &AnsStageReq{} })
	if err == nil || err.Error() != "no such fragment" {
		t.Fatalf("Error() = %v, want the bare handler message", err)
	}
	// The failed call completed at the site: its cost is still charged.
	if v := r.usage.Snapshot().Visits; v[1] != 1 || v[2] != 1 || len(costs) != 2 {
		t.Fatalf("costs = %+v charged to %v, want one entry per completed call, the failed one on site 2 included", costs, v)
	}
}

// TestStageFailureShape: a stage that loses a site fails the same way on
// every engine kind — a *dist.BroadcastError naming the dead primary
// once, with dist.ErrSiteUnavailable reachable through errors.Is.
func TestStageFailureShape(t *testing.T) {
	tree := testutil.PaperTree()
	ft, err := fragment.Cut(tree, fragment.RandomCuts(tree, 4, 31))
	if err != nil {
		t.Fatal(err)
	}
	kill := func(local *dist.Local, sites ...dist.SiteID) {
		var faults []dist.SiteFault
		for _, s := range sites {
			faults = append(faults, dist.SiteFault{Site: s, Call: 1, Action: dist.FaultKill, Down: 1 << 20})
		}
		local.FaultHook = dist.NewFaultPlan(faults...).Hook
	}
	cases := []struct {
		name string
		seq  bool
		eng  func() (*Engine, dist.SiteID)
	}{
		{"plain", false, func() (*Engine, dist.SiteID) {
			topo := RoundRobin(ft, 2)
			local, _ := BuildLocalCluster(topo)
			kill(local, 1)
			return NewEngine(topo, local), 1
		}},
		{"sequential", true, func() (*Engine, dist.SiteID) {
			topo := RoundRobin(ft, 2)
			local, _ := BuildLocalCluster(topo)
			kill(local, 1)
			return NewEngine(topo, local), 1
		}},
		{"replicated", false, func() (*Engine, dist.SiteID) {
			topo := RoundRobinReplicated(ft, 2, 2)
			local, _ := BuildLocalCluster(topo)
			primary := topo.Primaries()[1]
			kill(local, topo.ReplicasOf(primary)...)
			return NewEngine(topo, local), primary
		}},
		// An odd attempt count ends the retries on the primary itself.
		{"replicated, last attempt on the primary", false, func() (*Engine, dist.SiteID) {
			topo := RoundRobinReplicated(ft, 2, 2)
			local, _ := BuildLocalCluster(topo)
			primary := topo.Primaries()[1]
			kill(local, topo.ReplicasOf(primary)...)
			return NewEngine(topo, local, WithMaxAttempts(3)), primary
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			eng, dead := c.eng()
			_, err := eng.Run("//name", Options{Algorithm: PaX2, Sequential: c.seq})
			var be *dist.BroadcastError
			if !errors.As(err, &be) {
				t.Fatalf("err = %T %v, want *dist.BroadcastError", err, err)
			}
			if got, want := failedSites(be), fmt.Sprint([]dist.SiteID{dead}); got != want {
				t.Errorf("failed sites %s, want %s", got, want)
			}
			if !errors.Is(err, dist.ErrSiteUnavailable) {
				t.Errorf("errors.Is(err, dist.ErrSiteUnavailable) = false: %v", err)
			}
			named := regexp.MustCompile(fmt.Sprintf(`\bsite %d\b`, dead))
			if n := len(named.FindAllString(err.Error(), -1)); n != 1 {
				t.Errorf("message names site %d %d times, want once: %q", dead, n, err.Error())
			}
		})
	}
}
