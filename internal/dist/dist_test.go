package dist

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"paxq/internal/wirefmt"
)

// echoReq/echoResp are the round-trip test messages, with hand-written
// bodies (tags chosen clear of internal/pax's 1..N block, since external
// test packages link pax into the same binary).
type echoReq struct {
	Payload string
}

type echoResp struct {
	Payload string
	Site    SiteID
}

const (
	tagEchoReq  MsgTag = 0xE1
	tagEchoResp MsgTag = 0xE2
)

func (r *echoReq) WireTag() MsgTag { return tagEchoReq }

func (r *echoReq) AppendBinary(dst []byte) ([]byte, error) {
	return wirefmt.AppendString(dst, r.Payload), nil
}

func (r *echoReq) DecodeBinary(p []byte) error {
	s, rest, err := wirefmt.String(p)
	if err != nil || len(rest) != 0 {
		return fmt.Errorf("echoReq: %d trailing bytes, err %v", len(rest), err)
	}
	r.Payload = s
	return nil
}

func (r *echoResp) WireTag() MsgTag { return tagEchoResp }

func (r *echoResp) AppendBinary(dst []byte) ([]byte, error) {
	dst = wirefmt.AppendString(dst, r.Payload)
	return wirefmt.AppendUvarint(dst, uint64(r.Site)), nil
}

func (r *echoResp) DecodeBinary(p []byte) error {
	s, rest, err := wirefmt.String(p)
	if err != nil {
		return err
	}
	site, rest, err := wirefmt.Uvarint(rest)
	if err != nil || len(rest) != 0 {
		return fmt.Errorf("echoResp: %d trailing bytes, err %v", len(rest), err)
	}
	r.Payload, r.Site = s, SiteID(site)
	return nil
}

// unregistered does not implement BinaryMessage; sending it must fail
// cleanly.
type unregistered struct {
	X int
}

func init() {
	RegisterBinary(func() BinaryMessage { return new(echoReq) })
	RegisterBinary(func() BinaryMessage { return new(echoResp) })
}

// echoHandler answers with the request payload tagged by site, failing on
// payloads prefixed "fail:".
func echoHandler(id SiteID) Handler {
	return func(req any) (any, error) {
		r, ok := req.(*echoReq)
		if !ok {
			return nil, fmt.Errorf("unknown request type %T", req)
		}
		if rest, found := strings.CutPrefix(r.Payload, "fail:"); found {
			return nil, errors.New(rest)
		}
		return &echoResp{Payload: r.Payload, Site: id}, nil
	}
}

// localCluster builds a Local transport with echo handlers on the sites.
func localCluster(sites ...SiteID) *Local {
	l := NewLocal()
	for _, id := range sites {
		l.AddSite(id, echoHandler(id))
	}
	return l
}

func TestRegisterDuplicateIsNoop(t *testing.T) {
	// The same type under its own tag again is a no-op; a panic here
	// fails the test.
	RegisterBinary(func() BinaryMessage { return new(echoReq) })
	RegisterBinary(func() BinaryMessage { return new(echoReq) })
}

func TestLocalRoundTrip(t *testing.T) {
	l := localCluster(1, 2)
	defer l.Close()
	resp, _, err := l.Call(context.Background(), 2, &echoReq{Payload: "hello"})
	if err != nil {
		t.Fatal(err)
	}
	r, ok := resp.(*echoResp)
	if !ok || r.Payload != "hello" || r.Site != 2 {
		t.Fatalf("got %#v", resp)
	}
}

func TestLocalHandlerErrorPropagates(t *testing.T) {
	l := localCluster(1)
	defer l.Close()
	if _, _, err := l.Call(context.Background(), 1, &echoReq{Payload: "fail:broken qualifier"}); err == nil || !strings.Contains(err.Error(), "broken qualifier") {
		t.Fatalf("err = %v", err)
	}
}

func TestLocalUnknownSite(t *testing.T) {
	l := localCluster(1)
	defer l.Close()
	if _, _, err := l.Call(context.Background(), 9, &echoReq{}); err == nil || !strings.Contains(err.Error(), "unknown site") {
		t.Fatalf("err = %v", err)
	}
}

func TestLocalUnregisteredTypeFails(t *testing.T) {
	l := NewLocal()
	defer l.Close()
	l.AddSite(1, func(req any) (any, error) { return req, nil })
	if _, _, err := l.Call(context.Background(), 1, &unregistered{X: 1}); err == nil {
		t.Fatal("unregistered request type must fail the call")
	}
}

func TestLocalFaultHookInjection(t *testing.T) {
	l := localCluster(1, 2)
	defer l.Close()
	l.FaultHook = func(to SiteID, req any) error {
		if to == 2 {
			return errors.New("injected: site 2 unreachable")
		}
		return nil
	}
	if _, _, err := l.Call(context.Background(), 1, &echoReq{Payload: "ok"}); err != nil {
		t.Fatalf("unaffected site failed: %v", err)
	}
	_, _, err := l.Call(context.Background(), 2, &echoReq{Payload: "ok"})
	if err == nil || !strings.Contains(err.Error(), "injected") {
		t.Fatalf("err = %v", err)
	}
	// A faulted call never reached the site: no bytes, no visit.
	sent, recv := l.Metrics().Bytes()
	if visits := l.Metrics().MaxVisits(); visits != 1 {
		t.Errorf("MaxVisits = %d, want 1 (only the successful call)", visits)
	}
	if sent <= 0 || recv <= 0 {
		t.Errorf("bytes = %d/%d after one successful call", sent, recv)
	}
	l.FaultHook = nil
	if _, _, err := l.Call(context.Background(), 2, &echoReq{Payload: "ok"}); err != nil {
		t.Fatalf("after clearing hook: %v", err)
	}
}

func TestLocalHandlerPanicBecomesError(t *testing.T) {
	l := NewLocal()
	defer l.Close()
	l.AddSite(1, func(req any) (any, error) { panic("boom") })
	// A panicking handler must fail the call, not crash the process —
	// matching the TCP transport's behavior.
	if _, _, err := l.Call(context.Background(), 1, &echoReq{}); err == nil || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("err = %v", err)
	}
}

func TestMetricsAccounting(t *testing.T) {
	l := NewLocal()
	defer l.Close()
	l.AddSite(1, func(req any) (any, error) {
		time.Sleep(time.Millisecond)
		return &echoResp{Payload: req.(*echoReq).Payload, Site: 1}, nil
	})
	m := l.Metrics()

	if s, r := m.Bytes(); s != 0 || r != 0 {
		t.Fatalf("fresh metrics: %d/%d", s, r)
	}
	if _, _, err := l.Call(context.Background(), 1, &echoReq{Payload: "a"}); err != nil {
		t.Fatal(err)
	}
	sent1, recv1 := m.Bytes()
	c1 := m.ComputeAt(1)
	if sent1 <= frameHeader || recv1 <= frameHeader {
		t.Errorf("bytes after one call: %d/%d", sent1, recv1)
	}
	if c1 < time.Millisecond {
		t.Errorf("ComputeAt = %v, want >= handler sleep", c1)
	}
	if m.TotalCompute() != c1 {
		t.Errorf("TotalCompute = %v, want %v for one site", m.TotalCompute(), c1)
	}

	// Monotonicity: a second call strictly grows bytes, compute, visits.
	if _, _, err := l.Call(context.Background(), 1, &echoReq{Payload: "a"}); err != nil {
		t.Fatal(err)
	}
	sent2, recv2 := m.Bytes()
	if sent2 <= sent1 || recv2 <= recv1 {
		t.Errorf("bytes did not grow: %d/%d -> %d/%d", sent1, recv1, sent2, recv2)
	}
	if c2 := m.ComputeAt(1); c2 <= c1 {
		t.Errorf("ComputeAt did not grow: %v -> %v", c1, c2)
	}
	if m.MaxVisits() != 2 {
		t.Errorf("MaxVisits = %d, want 2", m.MaxVisits())
	}
	if m.ComputeAt(99) != 0 {
		t.Errorf("ComputeAt(unvisited) = %v", m.ComputeAt(99))
	}

	m.Reset()
	if s, r := m.Bytes(); s != 0 || r != 0 {
		t.Errorf("bytes after Reset: %d/%d", s, r)
	}
	if m.MaxVisits() != 0 || m.TotalCompute() != 0 || m.ComputeAt(1) != 0 {
		t.Error("Reset did not clear per-site counters")
	}
}

func TestBroadcastFanOut(t *testing.T) {
	sites := []SiteID{3, 1, 2}
	l := localCluster(sites...)
	defer l.Close()

	// mk runs sequentially over sites in the given order.
	var mkOrder []SiteID
	resps, _, err := Broadcast(context.Background(), l, sites, func(id SiteID) any {
		mkOrder = append(mkOrder, id)
		if id == 1 {
			return nil // skipped site
		}
		return &echoReq{Payload: fmt.Sprintf("to-%d", id)}
	})
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(mkOrder) != fmt.Sprint(sites) {
		t.Errorf("mk order %v, want %v", mkOrder, sites)
	}
	if len(resps) != 2 {
		t.Fatalf("got %d responses, want 2: %v", len(resps), resps)
	}
	if _, ok := resps[1]; ok {
		t.Error("skipped site produced a response")
	}
	for _, id := range []SiteID{2, 3} {
		r, ok := resps[id].(*echoResp)
		if !ok || r.Site != id || r.Payload != fmt.Sprintf("to-%d", id) {
			t.Errorf("site %d: %#v", id, resps[id])
		}
	}
}

func TestBroadcastFirstErrorPropagation(t *testing.T) {
	sites := []SiteID{4, 2, 7}
	l := localCluster(sites...)
	defer l.Close()
	// Sites 2 and 7 both fail; slice order is 4, 2, 7, so the reported
	// error must deterministically be site 2's.
	_, _, err := Broadcast(context.Background(), l, sites, func(id SiteID) any {
		if id == 2 || id == 7 {
			return &echoReq{Payload: fmt.Sprintf("fail:site %d down", id)}
		}
		return &echoReq{Payload: "ok"}
	})
	if err == nil {
		t.Fatal("broadcast with failing sites must error")
	}
	if !strings.Contains(err.Error(), "site 2 down") {
		t.Errorf("err = %v, want the first failing site in slice order (2)", err)
	}
}

func TestBroadcastConcurrent(t *testing.T) {
	// All calls must be in flight at once: each handler blocks until every
	// site has been reached, so a sequential Broadcast would deadlock.
	const n = 8
	l := NewLocal()
	defer l.Close()
	var wg sync.WaitGroup
	wg.Add(n)
	sites := make([]SiteID, n)
	for i := range sites {
		sites[i] = SiteID(i)
		l.AddSite(SiteID(i), func(req any) (any, error) {
			wg.Done()
			wg.Wait()
			return &echoResp{}, nil
		})
	}
	done := make(chan error, 1)
	go func() {
		_, _, err := Broadcast(context.Background(), l, sites, func(SiteID) any { return &echoReq{} })
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("broadcast not concurrent: calls deadlocked waiting for each other")
	}
}
