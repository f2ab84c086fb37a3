package dist

import (
	"errors"
	"fmt"
	"strings"
)

// ErrSiteUnavailable marks a transport-level failure to reach a site: a
// refused or timed-out dial, a connection severed before the response
// envelope arrived, or a fault-injected outage. Calls failing with it
// carry a zero CallCost when nothing completed at the site, and callers
// holding a replica for the same fragments may retry there — the request
// either never reached the site or the site's answer never reached us,
// and site handlers are deterministic, so re-evaluation on a replica
// cannot change the answer.
//
// Errors that do NOT wrap ErrSiteUnavailable are permanent for the call:
// handler errors (the site did the work and said no), context
// cancellation/deadline (the caller's budget is spent — retrying against
// a replica would just fail again), a frame over the size limit
// (ErrMessageTooLarge), a closed transport, and an unknown site ID.
var ErrSiteUnavailable = errors.New("site unavailable")

// ErrTransportClosed is returned by calls on a transport after Close.
// It is permanent: the whole client is gone, not one site.
var ErrTransportClosed = errors.New("dist: transport closed")

// Retriable reports whether err represents a failure that a different
// replica of the same site could repair: it wraps ErrSiteUnavailable and
// does not stem from the caller's own context.
func Retriable(err error) bool {
	if err == nil {
		return false
	}
	return errors.Is(err, ErrSiteUnavailable)
}

// siteUnavailable wraps a transport failure for site to so that both the
// site identity and the retriable marker survive errors.Is/As traversal.
func siteUnavailable(to SiteID, err error) error {
	return fmt.Errorf("dist: site %d %w: %w", to, ErrSiteUnavailable, err)
}

// SiteError is one site's failure inside a BroadcastError, tagged with
// whether the failover layer may retry it on a replica.
type SiteError struct {
	Site      SiteID
	Err       error
	Retriable bool
}

func (e SiteError) Error() string { return e.Err.Error() }

// Unwrap exposes the underlying call error to errors.Is/As.
func (e SiteError) Unwrap() error { return e.Err }

// BroadcastError aggregates the per-site failures of one Broadcast.
// Failures are ordered by the broadcast's site order — deterministic
// regardless of goroutine scheduling — and the Error text leads with the
// first failing site so existing first-error expectations keep reading
// the same. errors.Is/As traverse into every member failure via Unwrap,
// so sentinel checks (context.DeadlineExceeded, ErrSiteUnavailable,
// ErrOverloaded surfaced by a handler) keep working unchanged on the
// aggregate.
type BroadcastError struct {
	Failures []SiteError
}

// Error renders the first failure, annotated with how many sites failed
// in total when more than one did.
func (e *BroadcastError) Error() string {
	if len(e.Failures) == 0 {
		return "dist: broadcast failed"
	}
	first := e.Failures[0].Err.Error()
	if len(e.Failures) == 1 {
		return first
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s (and %d more failed site", first, len(e.Failures)-1)
	if len(e.Failures) > 2 {
		b.WriteString("s")
	}
	b.WriteString(")")
	return b.String()
}

// Unwrap exposes every per-site failure to errors.Is/As.
func (e *BroadcastError) Unwrap() []error {
	errs := make([]error, len(e.Failures))
	for i, f := range e.Failures {
		errs[i] = f
	}
	return errs
}

// AllRetriable reports whether every failed site could be retried on a
// replica — the condition for the failover layer to keep the query
// alive.
func (e *BroadcastError) AllRetriable() bool {
	for _, f := range e.Failures {
		if !f.Retriable {
			return false
		}
	}
	return len(e.Failures) > 0
}

// FailedSites lists the failing sites in broadcast order.
func (e *BroadcastError) FailedSites() []SiteID {
	out := make([]SiteID, len(e.Failures))
	for i, f := range e.Failures {
		out[i] = f.Site
	}
	return out
}
