package dist

import (
	"context"
	"fmt"
	"sync"
	"time"
)

// Local is the in-process transport: every site is a Handler in the same
// address space. Calls invoke the handler directly but still run request
// and response through the wire codec so byte counts match a TCP
// deployment of the same cluster.
type Local struct {
	// FaultHook, when set, runs before each call and can fail it —
	// simulating an unreachable site or a dropped message. Set it only
	// while no calls are in flight.
	FaultHook func(to SiteID, req any) error

	mu       sync.RWMutex
	handlers map[SiteID]Handler
	m        *Metrics
}

// NewLocal creates an empty in-process cluster.
func NewLocal() *Local {
	return &Local{handlers: make(map[SiteID]Handler), m: NewMetrics()}
}

// AddSite registers the handler serving a site, replacing any previous
// handler for the same ID.
func (l *Local) AddSite(id SiteID, h Handler) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.handlers[id] = h
}

// Call delivers req to the site's handler and meters the round trip. The
// returned CallCost is valid whenever the handler ran, including when it
// returned an error. A context that is already expired fails the call
// before the handler runs; the handler itself is synchronous and is not
// interrupted by a later cancellation.
func (l *Local) Call(ctx context.Context, to SiteID, req any) (any, CallCost, error) {
	if err := ctx.Err(); err != nil {
		return nil, CallCost{}, fmt.Errorf("dist: site %d: %w", to, err)
	}
	l.mu.RLock()
	h, ok := l.handlers[to]
	l.mu.RUnlock()
	if !ok {
		return nil, CallCost{}, fmt.Errorf("dist: unknown site %d", to)
	}
	if hook := l.FaultHook; hook != nil {
		if err := hook(to, req); err != nil {
			return nil, CallCost{}, err
		}
	}
	// Encode into one pooled buffer, reused for the response below: the
	// handler receives the original value, the codec runs only to meter
	// the bytes a TCP deployment would ship.
	bp := getFrame()
	defer putFrame(bp)
	buf, err := appendRequest((*bp)[:0], req)
	if err != nil {
		return nil, CallCost{}, err
	}
	reqBytes := int64(len(buf))
	start := time.Now()
	resp, herr := invokeHandler(h, req)
	compute := takeCompute(resp, time.Since(start))
	env := respEnvelope{Compute: compute}
	if herr != nil {
		env.Err = herr.Error()
	} else {
		env.Resp = resp
	}
	buf, err = appendResponse(buf[:0], env)
	if err != nil {
		// Mirror the TCP server: an unencodable response travels back as
		// an error envelope — the handler did run, so the visit and its
		// computation are still metered.
		herr = err
		env = respEnvelope{Err: err.Error(), Compute: compute}
		if buf, err = appendResponse(buf[:0], env); err != nil {
			return nil, CallCost{}, err
		}
	}
	*bp = buf
	cost := CallCost{
		Sent:    frameHeader + reqBytes,
		Recv:    frameHeader + int64(len(buf)),
		Compute: compute,
	}
	l.m.Add(to, cost)
	if herr != nil {
		return nil, cost, herr
	}
	return resp, cost, nil
}

// Metrics returns the transport's counters.
func (l *Local) Metrics() *Metrics { return l.m }

// Close is a no-op for the in-process transport.
func (l *Local) Close() error { return nil }
