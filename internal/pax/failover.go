package pax

import (
	"context"
	"errors"
	"fmt"
	"time"

	"paxq/internal/dist"
)

// backoffCap caps the wait between retries.
const backoffCap = 50 * time.Millisecond

// backoff is the wait before attempt n+1 (n = 1 is the wait between the
// first and second try): 2ms, doubling, capped at 50ms. Query re-runs and
// edit deliveries share this one schedule; only attempt counts vary.
func backoff(n int) time.Duration {
	d := 2 * time.Millisecond
	for ; n > 1 && d < backoffCap; n-- {
		d *= 2
	}
	return min(d, backoffCap)
}

// waitBackoff waits backoff(n), or returns ctx's error as soon as the
// context dies, so a deadline that expires mid-wait fails the query with
// the context's error and never oversleeps it. It is the one wait between
// retries: the query retry loop and editMember both call it, and the
// transports never wait.
func waitBackoff(ctx context.Context, n int) error {
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-time.After(backoff(n)):
		return nil
	}
}

// WithMaxAttempts sets the number of attempts each replica group gets in
// one query (first try included): the query runs again after a retriable
// stage failure until one group has failed n times. n = 1 disables
// retrying; n <= 0 keeps the default, which is 4 on a replicated topology
// and 1 on an unreplicated one (errors then surface exactly as without a
// failover layer). n > 1 on an unreplicated topology is valid: a re-run
// then goes back to the lone site after the backoff, which rides out a
// restart but not a site that stays dead.
func WithMaxAttempts(n int) EngineOption {
	return func(e *Engine) { e.maxAttempts = n }
}

// FailoverStats are the engine's lifetime failover counters, surfaced
// through paxq.TransportStats and paxserve's /metrics and /statsz.
type FailoverStats struct {
	// Retries counts query re-runs after a retriable stage failure.
	Retries int64
	// Failovers counts rotations of a replica group to a different member.
	Failovers int64
	// DeadSites counts transport-level unavailability detections
	// (dist.ErrSiteUnavailable) observed by the failover layer.
	DeadSites int64
}

// FailoverStats returns a snapshot of the engine's failover counters.
func (e *Engine) FailoverStats() FailoverStats {
	return FailoverStats{
		Retries:   e.retries.Load(),
		Failovers: e.failovers.Load(),
		DeadSites: e.deadSites.Load(),
	}
}

// run is one query across its attempts: the QID every attempt keeps, the
// cost ledger every attempt's completed calls are charged to, and its
// route — which replica serves each group.
type run struct {
	e     *Engine
	qid   QueryID
	seq   bool
	usage *dist.Metrics
	// cur is the route: primary -> how often the group has failed in this
	// query, whose remainder modulo the group's size indexes the replica
	// serving it; nil until a group fails. It changes only between
	// attempts, so the calls of one attempt read it without a lock.
	cur map[dist.SiteID]int
	// opened holds, after an attempt that failed in its opening stage, the
	// opening responses of the groups that answered (see stage).
	opened map[dist.SiteID]any
	// skews counts the re-runs spent on version skew alone.
	retries, failovers, skews int
}

// newRun starts a query: a fresh QID and ledger, every group routed to
// its primary.
func (e *Engine) newRun(seq bool) *run {
	return &run{e: e, qid: QueryID(e.qid.Add(1)), seq: seq, usage: dist.NewMetrics()}
}

// replica returns the physical site the route names for the primary's
// group.
func (r *run) replica(primary dist.SiteID) dist.SiteID {
	if n := r.cur[primary]; n > 0 {
		group := r.e.topo.ReplicasOf(primary)
		return group[n%len(group)]
	}
	return primary
}

// rotate advances the group to its next replica and counts a failover
// when that is a different site: a group of one rotates back to its lone
// member, which is a retry, not a failover.
func (r *run) rotate(primary dist.SiteID) {
	group := r.e.topo.ReplicasOf(primary)
	if r.cur == nil {
		r.cur = make(map[dist.SiteID]int)
	}
	r.cur[primary]++
	if len(group) > 1 {
		r.failovers++
		r.e.failovers.Add(1)
	}
}

// maxSkewReruns bounds the re-runs one query spends on version skew
// alone. The engine's own edits never skew its queries (queryGate), so a
// skew comes from another coordinator's edits or a site restart, and a
// re-run, which reads the versions current at its start, skews again only
// if that happens again while it runs.
const maxSkewReruns = 3

// retry runs attempt — one evaluation of the query, talking to one
// replica per group — until it succeeds or fails for good. An attempt
// fails for good on an error that is not a stage failure
// (*dist.BroadcastError), on a stage failure with a permanent member
// (classifyStageError), once ctx is done, or when a failed group has
// spent the engine's maxAttempts. Otherwise every failed primary's group
// rotates to its next replica and, after the backoff, the query runs
// again under the same QID. A stage failure that is version skew alone
// (ErrVersionSkew at every failed group) says nothing about the members'
// health: the query runs again at once on the same members, up to
// maxSkewReruns times, whatever the attempt count. No attempt reads
// another's results, and each visits a site at most B times:
// MaxVisits <= B·(1+Retries).
func (r *run) retry(ctx context.Context, attempt func() error) error {
	e := r.e
	for {
		err := attempt()
		var be *dist.BroadcastError
		if err == nil || !errors.As(err, &be) {
			return err
		}
		retriable := ctx.Err() == nil
		skew := true
		n := 0 // the attempts spent by the failed group that spent most
		for _, f := range be.Failures {
			if dist.Retriable(f.Err) {
				e.deadSites.Add(1)
			}
			retriable = retriable && classifyStageError(f.Err)
			skew = skew && !dist.Retriable(f.Err)
			n = max(n, r.cur[f.Site]+1)
		}
		if !retriable {
			return err
		}
		if skew && r.skews < maxSkewReruns {
			r.skews++
			r.retries++
			e.retries.Add(1)
			continue
		}
		if n >= e.maxAttempts {
			if n > 1 {
				r.exhausted(be)
			}
			return err
		}
		for _, f := range be.Failures {
			r.rotate(f.Site)
		}
		r.retries++
		e.retries.Add(1)
		if err := waitBackoff(ctx, n); err != nil {
			return err
		}
	}
}

// exhausted marks the failures of the groups that spent their attempts.
// A failure's error names the site it came from; the primary is named too
// when that was another replica of its group.
func (r *run) exhausted(be *dist.BroadcastError) {
	for i := range be.Failures {
		f := &be.Failures[i]
		n := r.cur[f.Site] + 1
		switch {
		case n < r.e.maxAttempts:
		case r.replica(f.Site) == f.Site:
			f.Err = fmt.Errorf("pax: %d attempts exhausted: %w", n, f.Err)
		default:
			f.Err = fmt.Errorf("pax: site %d: %d attempts exhausted: %w", f.Site, n, f.Err)
		}
	}
}
