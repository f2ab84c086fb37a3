package dist

import (
	"context"
	"fmt"
	"time"
)

// SiteID identifies one site of the cluster.
type SiteID int32

// Handler serves one site: it receives a request value and returns the
// response value or an error. The transport delivers the error to the
// caller; it never terminates the site.
type Handler func(req any) (any, error)

// CallCost is the measured cost of one round trip: wire bytes in each
// direction (frame header included) and the handler's wall time at the
// site. A Call reports a non-zero CallCost whenever a response envelope
// arrived — including when that envelope carries a handler error, because
// the site did the work — so a caller can attribute every completed visit
// to the query that incurred it. On a transport failure (dial error,
// severed connection) the cost is the zero value: nothing reached the site
// that can be attributed.
type CallCost struct {
	Sent    int64
	Recv    int64
	Compute time.Duration
}

// Transport is the coordinator's view of the cluster: synchronous
// request/response calls to sites with per-call cost reporting, plus
// cumulative lifetime counters.
//
// Implementations are safe for concurrent use: many goroutines — a
// stage's fan-out, or independent queries in flight at once — may Call
// concurrently. Each caller receives its own CallCost, so concurrent users
// never need to share or reset counters to attribute costs.
type Transport interface {
	// Call sends req to the site and returns its response plus the cost of
	// the round trip. A handler error is returned as-is (with a valid
	// cost); transport failures are reported with the site identified and
	// a zero cost. The context bounds the whole round trip: dialing,
	// writing, site computation and reading. A context that expires
	// mid-call fails the call with the context's error; work already
	// started at the site is not interrupted (its cost is simply not
	// observed by this caller).
	Call(ctx context.Context, to SiteID, req any) (any, CallCost, error)
	// Metrics returns the transport's cumulative lifetime counters — the
	// sum of every CallCost it ever reported. The same instance is
	// returned for the transport's lifetime. Per-query accounting derives
	// from CallCosts, never from this shared instance.
	Metrics() *Metrics
	// Close releases transport resources. The transport is unusable
	// afterwards.
	Close() error
}

// invokeHandler runs a site handler, converting a panic into an error so
// one bad request can neither take a TCP site down nor crash an
// in-process cluster — both transports degrade to a failed call.
func invokeHandler(h Handler, req any) (resp any, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("dist: handler panic: %v", r)
		}
	}()
	return h(req)
}
