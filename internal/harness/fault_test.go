package harness

import (
	"context"
	"net"
	"testing"
	"time"

	"paxq/internal/dist"
	"paxq/internal/pax"
)

// requireFaultClean fails the test with the recorded details if any
// fault-injection check tripped, and sanity-checks that the sweep
// actually injured the fleet: a sweep with no kills, no retries and no
// failovers would vacuously pass.
func requireFaultClean(t *testing.T, res *FaultResult) {
	t.Helper()
	t.Log(res)
	if !res.Ok() {
		for _, d := range res.FailureDetails {
			t.Error(d)
		}
		t.Fatalf("fault-injection checks failed: %s", res)
	}
	if res.Schedules == 0 || res.Queries == 0 {
		t.Fatal("fault sweep ran no schedules")
	}
	if res.Survived == 0 {
		t.Fatal("no query survived any schedule — the harness is not exercising failover, only aborts")
	}
	if res.Kills == 0 {
		t.Error("fault sweep injected no kills")
	}
	if res.Restarts == 0 {
		t.Error("fault sweep performed no restarts")
	}
	if res.Retries == 0 {
		t.Error("no stage-call retries observed across the sweep")
	}
	if res.Failovers == 0 {
		t.Error("no replica failovers observed across the sweep")
	}
}

// TestFaultInjectionLocal runs 200 randomized kill/restart schedules on
// the in-process transport: deterministic per-call hook faults (errors,
// drops, kills with restart windows) against replicated fleets. Every
// surviving query must answer byte-identically to the centralized
// evaluator, stay within the failover visit bound B*(1+Retries), and —
// on abort-free schedules — conserve the cost ledgers exactly.
func TestFaultInjectionLocal(t *testing.T) {
	res, err := FaultSweep(context.Background(), 1, 200, FaultOptions{Transport: DiffLocal})
	if err != nil {
		t.Fatal(err)
	}
	requireFaultClean(t, res)
}

// TestFaultInjectionTCP runs 200 randomized kill/restart schedules over
// real TCP servers on loopback: server processes are torn down
// mid-deployment (pooled connections die, later dials are refused) and
// restarted with their state wiped, exercising the stale-connection
// probe, refused dials failing over at once, dead-site failover and
// query re-runs end to end.
func TestFaultInjectionTCP(t *testing.T) {
	res, err := FaultSweep(context.Background(), 5000, 200, FaultOptions{Transport: DiffTCP})
	if err != nil {
		t.Fatal(err)
	}
	requireFaultClean(t, res)
}

// TestFaultSmoke is the quick gate behind `make fault-smoke`: a small
// fixed-seed slice of both transports' schedules, fast enough to run on
// every `make check`.
func TestFaultSmoke(t *testing.T) {
	res, err := FaultSweep(context.Background(), 1, 10, FaultOptions{Transport: DiffLocal})
	if err != nil {
		t.Fatal(err)
	}
	tcpRes, err := FaultSweep(context.Background(), 5000, 5, FaultOptions{Transport: DiffTCP})
	if err != nil {
		t.Fatal(err)
	}
	res.Merge(tcpRes)
	t.Log(res)
	if !res.Ok() {
		for _, d := range res.FailureDetails {
			t.Error(d)
		}
		t.Fatalf("fault smoke failed: %s", res)
	}
	if res.Survived == 0 || res.Kills == 0 {
		t.Fatalf("fault smoke exercised nothing: %s", res)
	}
}

// TestRestartTCPRidesOutStolenPort: a downed site's ephemeral port may be
// handed to someone else before the restart. A squatter that lets go within
// the retry budget must not fail the restart; any other listen error must
// fail it at once, without the backoff.
func TestRestartTCPRidesOutStolenPort(t *testing.T) {
	site := pax.NewSite(0, nil)
	srv, err := dist.NewTCPServer("127.0.0.1:0", site.Handler())
	if err != nil {
		t.Fatal(err)
	}
	f := &faultFleet{
		sites:   map[dist.SiteID]*pax.Site{0: site},
		servers: map[dist.SiteID]*dist.TCPServer{0: srv},
		addrs:   map[dist.SiteID]string{0: srv.Addr()},
		down:    map[dist.SiteID]bool{},
	}
	f.killTCP(0)
	squatter, err := net.Listen("tcp", f.addrs[0])
	if err != nil {
		t.Fatal(err)
	}
	released := time.AfterFunc(40*time.Millisecond, func() { squatter.Close() })
	defer released.Stop()
	if err := f.restartTCP(0); err != nil {
		t.Fatalf("restart behind a briefly held port: %v", err)
	}
	f.killTCP(0)

	f.addrs[0] = "127.0.0.1:99999" // no such port: fails for a reason other than EADDRINUSE
	start := time.Now()
	if err := f.restartTCP(0); err == nil {
		t.Fatal("restart on an invalid address succeeded")
	}
	if d := time.Since(start); d > 300*time.Millisecond {
		t.Errorf("non-EADDRINUSE failure took %v — it must not be retried", d)
	}
}
