package dist

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

// tcpCluster starts echo servers for the sites and a connected client.
func tcpCluster(t *testing.T, sites ...SiteID) (*TCP, []*TCPServer) {
	t.Helper()
	addrs := make(map[SiteID]string, len(sites))
	var servers []*TCPServer
	for _, id := range sites {
		srv, err := NewTCPServer("127.0.0.1:0", echoHandler(id))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { srv.Close() })
		servers = append(servers, srv)
		addrs[id] = srv.Addr()
	}
	tr := NewTCP(addrs)
	t.Cleanup(func() { tr.Close() })
	return tr, servers
}

func TestTCPRoundTrip(t *testing.T) {
	tr, _ := tcpCluster(t, 1, 2)
	for i := 0; i < 3; i++ { // repeated calls exercise the connection pool
		for _, id := range []SiteID{1, 2} {
			resp, _, err := tr.Call(context.Background(), id, &echoReq{Payload: "ping"})
			if err != nil {
				t.Fatal(err)
			}
			r, ok := resp.(*echoResp)
			if !ok || r.Payload != "ping" || r.Site != id {
				t.Fatalf("site %d call %d: %#v", id, i, resp)
			}
		}
	}
	tr.mu.Lock()
	pool := len(tr.idle[1])
	tr.mu.Unlock()
	if pool != 1 {
		t.Errorf("idle pool for site 1 holds %d conns, want 1 (reuse)", pool)
	}
}

func TestTCPServerErrorPropagation(t *testing.T) {
	tr, _ := tcpCluster(t, 1)
	_, _, err := tr.Call(context.Background(), 1, &echoReq{Payload: "fail:no such fragment"})
	if err == nil || !strings.Contains(err.Error(), "no such fragment") {
		t.Fatalf("err = %v", err)
	}
	// The connection survives a handler error.
	if _, _, err := tr.Call(context.Background(), 1, &echoReq{Payload: "ok"}); err != nil {
		t.Fatalf("call after handler error: %v", err)
	}
}

func TestTCPHandlerPanicBecomesError(t *testing.T) {
	srv, err := NewTCPServer("127.0.0.1:0", func(req any) (any, error) { panic("boom") })
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	tr := NewTCP(map[SiteID]string{1: srv.Addr()})
	defer tr.Close()
	if _, _, err := tr.Call(context.Background(), 1, &echoReq{}); err == nil || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("err = %v", err)
	}
}

func TestTCPUnknownSiteAndDialFailure(t *testing.T) {
	tr := NewTCP(map[SiteID]string{1: "127.0.0.1:1"}) // nothing listens on port 1
	defer tr.Close()
	if _, _, err := tr.Call(context.Background(), 5, &echoReq{}); err == nil || !strings.Contains(err.Error(), "unknown site") {
		t.Fatalf("unknown site err = %v", err)
	}
	if _, _, err := tr.Call(context.Background(), 1, &echoReq{}); err == nil || !strings.Contains(err.Error(), "site 1") {
		t.Fatalf("dial err = %v", err)
	}
}

func TestTCPWireMetrics(t *testing.T) {
	tr, _ := tcpCluster(t, 1)
	m := tr.Metrics()
	if _, _, err := tr.Call(context.Background(), 1, &echoReq{Payload: "abc"}); err != nil {
		t.Fatal(err)
	}
	sent1, recv1 := m.Bytes()
	if sent1 <= frameHeader || recv1 <= frameHeader {
		t.Fatalf("bytes = %d/%d", sent1, recv1)
	}
	// A larger payload ships more bytes; the delta reflects wire size.
	big := strings.Repeat("x", 4096)
	if _, _, err := tr.Call(context.Background(), 1, &echoReq{Payload: big}); err != nil {
		t.Fatal(err)
	}
	sent2, recv2 := m.Bytes()
	if sent2-sent1 < 4096 || recv2-recv1 < 4096 {
		t.Errorf("4KB payload grew bytes by %d/%d", sent2-sent1, recv2-recv1)
	}
	if m.MaxVisits() != 2 {
		t.Errorf("MaxVisits = %d, want 2", m.MaxVisits())
	}
}

func TestTCPComputeAtReportsServerTime(t *testing.T) {
	srv, err := NewTCPServer("127.0.0.1:0", func(req any) (any, error) {
		time.Sleep(2 * time.Millisecond)
		return &echoResp{Site: 1}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	tr := NewTCP(map[SiteID]string{1: srv.Addr()})
	defer tr.Close()
	if _, _, err := tr.Call(context.Background(), 1, &echoReq{}); err != nil {
		t.Fatal(err)
	}
	c1 := tr.Metrics().ComputeAt(1)
	if c1 < 2*time.Millisecond {
		t.Errorf("ComputeAt = %v, want >= server handler time", c1)
	}
	if _, _, err := tr.Call(context.Background(), 1, &echoReq{}); err != nil {
		t.Fatal(err)
	}
	if c2 := tr.Metrics().ComputeAt(1); c2 <= c1 {
		t.Errorf("ComputeAt not monotonic: %v -> %v", c1, c2)
	}
}

func TestTCPServerCloseWhileInflight(t *testing.T) {
	block := make(chan struct{})
	started := make(chan struct{}, 1)
	srv, err := NewTCPServer("127.0.0.1:0", func(req any) (any, error) {
		started <- struct{}{}
		<-block
		return &echoResp{}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	defer close(block)
	tr := NewTCP(map[SiteID]string{1: srv.Addr()})
	defer tr.Close()

	done := make(chan error, 1)
	go func() {
		_, _, err := tr.Call(context.Background(), 1, &echoReq{Payload: "inflight"})
		done <- err
	}()
	<-started // the request has reached the handler
	srv.Close()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("call survived server close")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("call did not fail after server close")
	}
}

func TestTCPClientCloseUnblocksInflightCall(t *testing.T) {
	block := make(chan struct{})
	started := make(chan struct{}, 1)
	srv, err := NewTCPServer("127.0.0.1:0", func(req any) (any, error) {
		started <- struct{}{}
		<-block
		return &echoResp{}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	defer close(block)
	tr := NewTCP(map[SiteID]string{1: srv.Addr()})

	done := make(chan error, 1)
	go func() {
		_, _, err := tr.Call(context.Background(), 1, &echoReq{})
		done <- err
	}()
	<-started
	tr.Close()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("in-flight call survived client Close")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("client Close did not unblock the in-flight call")
	}
}

func TestUnencodableResponseMetersVisitOnBothTransports(t *testing.T) {
	// A handler returning an unregistered type fails the call on both
	// transports, but the handler did run: the visit must be metered
	// identically so Local and TCP derive the same Stats.
	bad := func(req any) (any, error) { return &unregistered{X: 7}, nil }

	l := NewLocal()
	defer l.Close()
	l.AddSite(1, bad)
	if _, _, err := l.Call(context.Background(), 1, &echoReq{}); err == nil {
		t.Fatal("Local: unencodable response must fail the call")
	}
	if v := l.Metrics().MaxVisits(); v != 1 {
		t.Errorf("Local MaxVisits = %d, want 1", v)
	}

	srv, err := NewTCPServer("127.0.0.1:0", bad)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	tr := NewTCP(map[SiteID]string{1: srv.Addr()})
	defer tr.Close()
	if _, _, err := tr.Call(context.Background(), 1, &echoReq{}); err == nil {
		t.Fatal("TCP: unencodable response must fail the call")
	}
	if v := tr.Metrics().MaxVisits(); v != 1 {
		t.Errorf("TCP MaxVisits = %d, want 1", v)
	}
}

func TestTCPClientCloseFailsCalls(t *testing.T) {
	tr, _ := tcpCluster(t, 1)
	if _, _, err := tr.Call(context.Background(), 1, &echoReq{}); err != nil {
		t.Fatal(err)
	}
	tr.Close()
	if _, _, err := tr.Call(context.Background(), 1, &echoReq{}); err == nil || !strings.Contains(err.Error(), "closed") {
		t.Fatalf("err = %v", err)
	}
}

// callRound calls every site concurrently with req — the shape of one
// coordinator stage round — and returns responses, costs and errors
// indexed like sites.
func callRound(tr Transport, sites []SiteID, req any) ([]any, []CallCost, []error) {
	resps := make([]any, len(sites))
	costs := make([]CallCost, len(sites))
	errs := make([]error, len(sites))
	var wg sync.WaitGroup
	for i, id := range sites {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resps[i], costs[i], errs[i] = tr.Call(context.Background(), id, req)
		}()
	}
	wg.Wait()
	return resps, costs, errs
}

func TestTCPBroadcast(t *testing.T) {
	sites := []SiteID{0, 1, 2}
	tr, _ := tcpCluster(t, sites...)
	resps, _, errs := callRound(tr, sites, &echoReq{Payload: "stage"})
	for i, id := range sites {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if r := resps[i].(*echoResp); r.Site != id {
			t.Errorf("site %d answered as %d", id, r.Site)
		}
	}
}

// TestTCPConcurrentBroadcasts drives overlapping stage rounds — the shape
// of many queries in flight on one serving engine — through one pooled
// TCP client, each tagged with a distinct payload standing in for a
// QueryID. Every round must get its own responses and a complete per-site
// cost, and the per-round costs must sum exactly to the transport's
// lifetime counters (run with -race to catch pool races).
func TestTCPConcurrentBroadcasts(t *testing.T) {
	sites := []SiteID{0, 1, 2}
	tr, _ := tcpCluster(t, sites...)

	const workers = 16
	const rounds = 4
	type tally struct {
		sent, recv int64
		visits     int64
	}
	var total tally
	var mu sync.Mutex
	var wg sync.WaitGroup
	errs := make([]error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				tag := fmt.Sprintf("query-%d-round-%d", w, i)
				resps, costs, callErrs := callRound(tr, sites, &echoReq{Payload: tag})
				for j, id := range sites {
					if callErrs[j] != nil {
						errs[w] = callErrs[j]
						return
					}
					r, ok := resps[j].(*echoResp)
					if !ok || r.Payload != tag || r.Site != id {
						errs[w] = fmt.Errorf("%s: site %d answered %#v", tag, id, resps[j])
						return
					}
					c := costs[j]
					if c.Sent <= frameHeader || c.Recv <= frameHeader {
						errs[w] = fmt.Errorf("%s: site %d cost %+v", tag, id, c)
						return
					}
					mu.Lock()
					total.sent += c.Sent
					total.recv += c.Recv
					total.visits++
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	for w, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", w, err)
		}
	}
	sent, recv := tr.Metrics().Bytes()
	if sent != total.sent || recv != total.recv {
		t.Errorf("per-call costs sum to %d/%d bytes, lifetime metrics report %d/%d",
			total.sent, total.recv, sent, recv)
	}
	wantVisits := int64(workers * rounds * len(sites))
	if total.visits != wantVisits {
		t.Errorf("accounted %d visits, want %d", total.visits, wantVisits)
	}
}
