package dist

import (
	"context"
	"errors"
	"net"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func TestRetriableClassification(t *testing.T) {
	cases := []struct {
		name string
		err  error
		want bool
	}{
		{"nil", nil, false},
		{"plain handler error", errors.New("no such fragment"), false},
		{"wrapped unavailable", siteUnavailable(3, errors.New("connection refused")), true},
		{"bare sentinel", ErrSiteUnavailable, true},
		{"deadline", context.DeadlineExceeded, false},
		{"canceled", context.Canceled, false},
		{"transport closed", ErrTransportClosed, false},
	}
	for _, c := range cases {
		if got := Retriable(c.err); got != c.want {
			t.Errorf("%s: Retriable(%v) = %v, want %v", c.name, c.err, got, c.want)
		}
	}
	// The wrap preserves both the sentinel and the site identity in text.
	err := siteUnavailable(7, errors.New("dial 127.0.0.1:9: refused"))
	if !errors.Is(err, ErrSiteUnavailable) {
		t.Fatalf("errors.Is(ErrSiteUnavailable) = false for %v", err)
	}
	if !strings.Contains(err.Error(), "site 7") {
		t.Fatalf("wrapped error lost site identity: %v", err)
	}
}

func TestFaultPlanDeterministicSchedule(t *testing.T) {
	run := func() (errs []string, stats FaultStats) {
		plan := NewFaultPlan(
			SiteFault{Site: 1, Call: 2, Action: FaultError},
			SiteFault{Site: 1, Call: 4, Action: FaultDrop},
			SiteFault{Site: 2, Call: 1, Action: FaultDelay, Delay: time.Millisecond},
		)
		l := localCluster(1, 2)
		l.FaultHook = plan.Hook
		for i := 0; i < 4; i++ {
			for _, id := range []SiteID{1, 2} {
				_, _, err := l.Call(context.Background(), id, &echoReq{Payload: "p"})
				if err != nil {
					errs = append(errs, err.Error())
				}
			}
		}
		return errs, plan.Stats()
	}
	errs1, stats1 := run()
	errs2, stats2 := run()
	if len(errs1) != 2 {
		t.Fatalf("injected failures = %v, want exactly 2 (call 2 error, call 4 drop)", errs1)
	}
	if stats1.Errors != 1 || stats1.Drops != 1 || stats1.Delays != 1 {
		t.Fatalf("stats = %+v", stats1)
	}
	// Same plan, same call sequence, same injections: deterministic.
	if len(errs1) != len(errs2) || stats1 != stats2 {
		t.Fatalf("two identical runs diverged: %v vs %v, %+v vs %+v", errs1, errs2, stats1, stats2)
	}
	for i := range errs1 {
		if errs1[i] != errs2[i] {
			t.Fatalf("error %d differs: %q vs %q", i, errs1[i], errs2[i])
		}
	}
}

func TestFaultPlanKillAndRestart(t *testing.T) {
	plan := NewFaultPlan(SiteFault{Site: 1, Call: 2, Action: FaultKill, Down: 2})
	var restarted atomic.Int32
	plan.OnRestart = func(to SiteID) {
		if to != 1 {
			t.Errorf("OnRestart(%d), want site 1", to)
		}
		restarted.Add(1)
	}
	l := localCluster(1)
	l.FaultHook = plan.Hook
	call := func() error {
		_, _, err := l.Call(context.Background(), 1, &echoReq{Payload: "p"})
		return err
	}
	if err := call(); err != nil { // call 1: alive
		t.Fatalf("call 1: %v", err)
	}
	for n := 2; n <= 4; n++ { // call 2 kills; 3 and 4 hit the outage
		err := call()
		if !Retriable(err) {
			t.Fatalf("call %d: err = %v, want retriable unavailability", n, err)
		}
	}
	if restarted.Load() != 0 {
		t.Fatal("restart fired during the outage")
	}
	if err := call(); err != nil { // call 5: back up, restart fires first
		t.Fatalf("call 5 after restart: %v", err)
	}
	if restarted.Load() != 1 {
		t.Fatalf("restarts = %d, want 1", restarted.Load())
	}
	st := plan.Stats()
	if st.Kills != 1 || st.DeadHits != 2 || st.Restarts != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

// countDials makes tr count its dials, refusing each one instead of
// dialing when refuse is set.
func countDials(tr *TCP, refuse bool) *atomic.Int32 {
	var n atomic.Int32
	next := tr.dial
	tr.dial = func(ctx context.Context, network, addr string) (net.Conn, error) {
		n.Add(1)
		if refuse {
			return nil, errors.New("connection refused")
		}
		return next(ctx, network, addr)
	}
	return &n
}

// TestTCPDialCount pins the transport's one-dial contract by counting
// dials, never by timing: a refused dial fails the call at once with a
// retriable error and a zero cost. It is also the pooled-connection
// regression: after a site process dies and restarts on the same
// address, the next call discards the dead pooled connection and
// succeeds on exactly one fresh dial.
func TestTCPDialCount(t *testing.T) {
	srv, err := NewTCPServer("127.0.0.1:0", echoHandler(1))
	if err != nil {
		t.Fatal(err)
	}
	addr := srv.Addr()

	refused := NewTCP(map[SiteID]string{1: addr})
	defer refused.Close()
	dials := countDials(refused, true)
	_, cost, err := refused.Call(context.Background(), 1, &echoReq{Payload: "p"})
	if !Retriable(err) {
		t.Fatalf("refused dial: err = %v, want retriable", err)
	}
	if cost != (CallCost{}) {
		t.Fatalf("refused dial: cost = %+v, want zero", cost)
	}
	if n := dials.Load(); n != 1 {
		t.Fatalf("refused call dialed %d times, want exactly 1", n)
	}

	tr := NewTCP(map[SiteID]string{1: addr})
	defer tr.Close()
	dials = countDials(tr, false)
	if _, _, err := tr.Call(context.Background(), 1, &echoReq{Payload: "q1"}); err != nil {
		t.Fatalf("first call: %v", err)
	}
	srv.Close() // the pooled connection goes stale
	srv2, err := NewTCPServer(addr, echoHandler(1))
	if err != nil {
		t.Fatalf("restart on %s: %v", addr, err)
	}
	defer srv2.Close()
	resp, _, err := tr.Call(context.Background(), 1, &echoReq{Payload: "q2"})
	if err != nil {
		t.Fatalf("call over a stale pooled connection: %v", err)
	}
	if r, ok := resp.(*echoResp); !ok || r.Payload != "q2" {
		t.Fatalf("resp = %#v", resp)
	}
	if n := dials.Load(); n != 2 {
		t.Fatalf("two calls across a restart dialed %d times, want 2 (one each)", n)
	}
}

// TestTCPDeadSiteReportsRetriable: with nothing listening, the call
// fails with a retriable unavailability error and zero cost.
func TestTCPDeadSiteReportsRetriable(t *testing.T) {
	srv, err := NewTCPServer("127.0.0.1:0", echoHandler(1))
	if err != nil {
		t.Fatal(err)
	}
	addr := srv.Addr()
	srv.Close()
	tr := NewTCP(map[SiteID]string{1: addr})
	defer tr.Close()
	_, cost, err := tr.Call(context.Background(), 1, &echoReq{Payload: "p"})
	if !Retriable(err) {
		t.Fatalf("err = %v, want retriable", err)
	}
	if cost != (CallCost{}) {
		t.Fatalf("cost = %+v, want zero (nothing reached the site)", cost)
	}
}
