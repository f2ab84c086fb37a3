package dist

import (
	"context"
	"errors"
	"testing"
	"time"
)

// slowServer serves a handler that parks until release is closed.
func slowServer(t *testing.T, release chan struct{}) *TCP {
	t.Helper()
	srv, err := NewTCPServer("127.0.0.1:0", func(req any) (any, error) {
		<-release
		return &echoResp{Payload: "late", Site: 1}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	tr := NewTCP(map[SiteID]string{1: srv.Addr()})
	t.Cleanup(func() { tr.Close() })
	return tr
}

// TestTCPCallDeadlineUnblocksHungSite: a site that never answers must not
// wedge the caller past its deadline; the call fails with the context's
// error and a zero cost (the round trip never completed).
func TestTCPCallDeadlineUnblocksHungSite(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	tr := slowServer(t, release)

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, cost, err := tr.Call(ctx, 1, &echoReq{Payload: "ping"})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
	if waited := time.Since(start); waited > 2*time.Second {
		t.Fatalf("call blocked %v past its 30ms deadline", waited)
	}
	if cost != (CallCost{}) {
		t.Errorf("cost = %+v for an aborted round trip, want zero", cost)
	}
}

// TestTCPCallCancelMidFlight: explicit cancellation has the same effect as
// a deadline, and the transport stays usable for later calls.
func TestTCPCallCancelMidFlight(t *testing.T) {
	release := make(chan struct{})
	tr := slowServer(t, release)

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, _, err := tr.Call(ctx, 1, &echoReq{Payload: "ping"})
		done <- err
	}()
	time.Sleep(10 * time.Millisecond) // let the request reach the site
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want Canceled", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("cancellation did not unblock the call")
	}

	// The poisoned connection was dropped; a fresh call succeeds.
	close(release)
	if _, _, err := tr.Call(context.Background(), 1, &echoReq{Payload: "again"}); err != nil {
		t.Fatalf("call after cancellation: %v", err)
	}
}

// TestLocalCallExpiredContext: the in-process transport refuses calls on a
// dead context before invoking the handler.
func TestLocalCallExpiredContext(t *testing.T) {
	l := localCluster(1)
	defer l.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := l.Call(ctx, 1, &echoReq{Payload: "ping"}); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want Canceled", err)
	}
	if v := l.Metrics().MaxVisits(); v != 0 {
		t.Errorf("handler ran %d times under a dead context", v)
	}
}

// TestResponseSizeIndependentOfComputeMagnitude: the fixed-width timing
// field must make a response's wire size depend only on its payload, not
// on how long the site computed — the property that lets tests assert
// byte-identical ledgers between parallel and sequential site evaluation.
func TestResponseSizeIndependentOfComputeMagnitude(t *testing.T) {
	sizes := make([]int64, 0, 2)
	for _, compute := range []time.Duration{time.Nanosecond, 50 * time.Millisecond} {
		d := compute
		l := NewLocal()
		l.AddSite(1, func(req any) (any, error) {
			time.Sleep(d)
			return &echoResp{Payload: "fixed", Site: 1}, nil
		})
		_, cost, err := l.Call(context.Background(), 1, &echoReq{Payload: "fixed"})
		if err != nil {
			t.Fatal(err)
		}
		sizes = append(sizes, cost.Recv)
		l.Close()
	}
	if sizes[0] != sizes[1] {
		t.Errorf("response bytes vary with compute time: %d vs %d", sizes[0], sizes[1])
	}
}
