package pax

import (
	"context"
	"fmt"
	"sync"
	"time"

	"paxq/internal/dist"
)

// RetryPolicy bounds the failover layer's per-stage-call retry loop: how
// many attempts one logical site call gets across a replica group, and
// the capped exponential backoff between them. The backoff sleeps are
// context-aware — a deadline that expires mid-wait fails the call with
// the context's error, never oversleeps it.
type RetryPolicy struct {
	// MaxAttempts is the total number of attempts per stage call per
	// replica group (first try included). <= 1 disables retrying.
	MaxAttempts int
	// Backoff is the wait before the second attempt; each further attempt
	// doubles it. Zero means no wait.
	Backoff time.Duration
	// MaxBackoff caps the exponential schedule. Zero means uncapped.
	MaxBackoff time.Duration
}

// DefaultRetryPolicy is what a replicated topology gets when no explicit
// policy is configured: one attempt per replica of a doubly-replicated
// group plus two more for transient faults, starting at 2ms.
var DefaultRetryPolicy = RetryPolicy{MaxAttempts: 4, Backoff: 2 * time.Millisecond, MaxBackoff: 50 * time.Millisecond}

// sleep waits the backoff before attempt n+1 (n = 1 is the wait between
// the first and second try), or returns ctx's error if the context dies
// first. It is the one wait between retries: the failover route and
// editMember both call it, and the transports never wait.
func (p RetryPolicy) sleep(ctx context.Context, n int) error {
	if p.Backoff <= 0 || n < 1 {
		return nil
	}
	d := p.Backoff << (n - 1)
	if d <= 0 || (p.MaxBackoff > 0 && d > p.MaxBackoff) {
		d = p.MaxBackoff
	}
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-time.After(d):
		return nil
	}
}

// WithRetryPolicy sets the engine's failover retry policy. Without it, a
// replicated topology runs DefaultRetryPolicy and an unreplicated one
// runs single-attempt (errors surface exactly as without a failover
// layer). Setting MaxAttempts > 1 on an unreplicated topology is valid:
// retries then rotate back to the lone site after the backoff, which
// rides out a restart but not a site that stays dead.
//
// The failover route bypasses multi-query batching (WithBatchWindow):
// an engine with a failover layer calls its sites through the route, so
// the two features are mutually exclusive per engine today.
func WithRetryPolicy(p RetryPolicy) EngineOption {
	return func(e *Engine) { e.retry = p }
}

// FailoverStats are the engine's lifetime failover counters, surfaced
// through paxq.TransportStats and paxserve's /metrics and /statsz.
type FailoverStats struct {
	// Retries counts failed stage calls that were attempted again
	// (whatever the repair: rotation or in-place re-establishment).
	Retries int64
	// Failovers counts rotations to a different replica of a group.
	Failovers int64
	// DeadSites counts transport-level unavailability detections
	// (dist.ErrSiteUnavailable) observed by the failover layer.
	DeadSites int64
	// Reestablished counts sessions rebuilt by replaying a query's prior
	// stages onto a replica (after a rotation or an in-place session
	// loss).
	Reestablished int64
}

// FailoverStats returns a snapshot of the engine's failover counters.
func (e *Engine) FailoverStats() FailoverStats {
	return FailoverStats{
		Retries:       e.retries.Load(),
		Failovers:     e.failovers.Load(),
		DeadSites:     e.deadSites.Load(),
		Reestablished: e.reestablished.Load(),
	}
}

// runRoute is one query's routing state through a replicated fleet:
// which replica currently serves each group, the script of session-
// establishing requests already served per group, and which physical
// sites hold a live session built from that script.
//
// Re-establishment replays the script — the query's previously successful
// stage requests for that group — onto the fresh replica and discards the
// replayed responses: site evaluation is deterministic, so the replayed
// responses are byte-identical to the ones the coordinator already
// consumed, and only the final live call's response feeds the Result.
// That is the exactly-once answer rule: every answer reaches the Result
// exactly once no matter how many replicas served parts of the query.
type runRoute struct {
	e *Engine

	mu          sync.Mutex
	cur         map[dist.SiteID]int   // primary -> index into ReplicasOf
	script      map[dist.SiteID][]any // primary -> successful session-stateful requests
	established map[dist.SiteID]bool  // physical site -> session state is current
	retries     int64                 // per-query, folded into Result.Retries
	failovers   int64                 // per-query, folded into Result.Failovers
}

// newRoute returns the failover routing state for one run, or nil when
// the engine runs without a failover layer (unreplicated topology and
// single-attempt policy) — the nil route selects a direct per-site call
// (siteCallFor).
func (e *Engine) newRoute() *runRoute {
	if e.retry.MaxAttempts <= 1 && !e.topo.Replicated() {
		return nil
	}
	return &runRoute{
		e:           e,
		cur:         make(map[dist.SiteID]int),
		script:      make(map[dist.SiteID][]any),
		established: make(map[dist.SiteID]bool),
	}
}

// counters returns the per-query retry/failover totals.
func (rt *runRoute) counters() (retries, failovers int64) {
	if rt == nil {
		return 0, 0
	}
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return rt.retries, rt.failovers
}

// replica returns the physical site currently serving the primary's
// group.
func (rt *runRoute) replica(primary dist.SiteID) dist.SiteID {
	group := rt.e.topo.ReplicasOf(primary)
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return group[rt.cur[primary]%len(group)]
}

// rotate advances the group to its next replica and counts a failover
// when that is a different site: a group of one rotates back to its lone
// member, which is a retry, not a failover.
func (rt *runRoute) rotate(primary dist.SiteID) {
	group := rt.e.topo.ReplicasOf(primary)
	rt.mu.Lock()
	defer rt.mu.Unlock()
	rt.cur[primary] = (rt.cur[primary] + 1) % len(group)
	if len(group) > 1 {
		rt.failovers++
		rt.e.failovers.Add(1)
	}
}

// call performs one logical stage call against the primary's replica
// group: establish a session on the serving replica if needed (replay
// the group's script), issue the request, and on a retriable failure
// rotate or re-establish per classifyStageError, with capped exponential
// backoff, until the policy's attempts are exhausted or the context
// dies. Every completed physical call's cost — replays and
// failed-but-completed attempts included — is reported in costs.
func (rt *runRoute) call(ctx context.Context, primary dist.SiteID, req any) (resp any, costs []attrCost, err error) {
	e := rt.e
	for attempt := 1; ; attempt++ {
		target := rt.replica(primary)
		resp, err = rt.attempt(ctx, primary, target, req, &costs)
		if err == nil {
			rt.recordSuccess(primary, req)
			return resp, costs, nil
		}
		retriable, inPlace := classifyStageError(err)
		if dist.Retriable(err) {
			e.deadSites.Add(1)
		}
		if !retriable || ctx.Err() != nil || attempt >= e.retry.MaxAttempts {
			if retriable && attempt >= e.retry.MaxAttempts && e.retry.MaxAttempts > 1 {
				// A retriable error names the site it came from; name the
				// primary only when that was another replica.
				if target == primary {
					err = fmt.Errorf("pax: %d attempts exhausted: %w", attempt, err)
				} else {
					err = fmt.Errorf("pax: site %d: %d attempts exhausted: %w", primary, attempt, err)
				}
			}
			return nil, costs, err
		}
		e.retries.Add(1)
		rt.mu.Lock()
		rt.retries++
		rt.mu.Unlock()
		if inPlace {
			// The replica is alive but lost the session: replay there.
			rt.setEstablished(target, false)
		} else {
			rt.setEstablished(target, false)
			rt.rotate(primary)
		}
		if err := e.retry.sleep(ctx, attempt); err != nil {
			return nil, costs, fmt.Errorf("pax: site %d: %w", primary, err)
		}
	}
}

// attempt issues req to one physical replica, first replaying the
// group's script there when the replica holds no current session state.
// Replayed responses are discarded (see runRoute); their costs are
// charged.
func (rt *runRoute) attempt(ctx context.Context, primary, target dist.SiteID, req any, costs *[]attrCost) (any, error) {
	if !rt.isEstablished(target) {
		script := rt.scriptOf(primary)
		for _, prev := range script {
			_, cost, err := rt.e.tr.Call(ctx, target, prev)
			if cost != (dist.CallCost{}) {
				*costs = append(*costs, attrCost{site: target, cost: cost})
			}
			if err != nil {
				return nil, err
			}
		}
		if len(script) > 0 {
			rt.e.reestablished.Add(1)
		}
		rt.setEstablished(target, true)
	}
	resp, cost, err := rt.e.tr.Call(ctx, target, req)
	if cost != (dist.CallCost{}) {
		*costs = append(*costs, attrCost{site: target, cost: cost})
	}
	return resp, err
}

// recordSuccess appends a session-stateful request to the group's
// script. FetchReq is stateless (NaiveCentralized) and a final qualifier
// request leaves no session behind; neither needs a replay.
func (rt *runRoute) recordSuccess(primary dist.SiteID, req any) {
	switch r := req.(type) {
	case *FetchReq:
		return
	case *QualStageReq:
		if r.Final {
			return
		}
	}
	rt.mu.Lock()
	rt.script[primary] = append(rt.script[primary], req)
	rt.mu.Unlock()
}

func (rt *runRoute) scriptOf(primary dist.SiteID) []any {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return append([]any(nil), rt.script[primary]...)
}

func (rt *runRoute) isEstablished(site dist.SiteID) bool {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return rt.established[site]
}

func (rt *runRoute) setEstablished(site dist.SiteID, ok bool) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	rt.established[site] = ok
}
