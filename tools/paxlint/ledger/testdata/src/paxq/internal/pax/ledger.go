// Fixture: shared-counter access and wall-clock timing in library code.
package pax

import "time"

type Counters struct{}

func (c *Counters) Reset() {}

type transport interface {
	Metrics() *Counters
}

func bad(tr transport, start time.Time) {
	m := tr.Metrics()         // want `shared transport metrics accessed outside internal/dist`
	m.Reset()                 // want `Reset\(\) of shared counters outside internal/dist`
	_ = time.Now().Sub(start) // want `time\.Now\(\)\.Sub\(t\) re-derives a duration from a wall-clock reading`
}

func wall(a, b time.Time) int64 {
	return a.UnixNano() - b.UnixNano() // want `UnixNano\(\) difference is wall-clock arithmetic`
}

func good(start time.Time) time.Duration {
	return time.Since(start)
}

func snapshot(tr transport) *Counters {
	//paxlint:allow ledger(read-only observability snapshot)
	return tr.Metrics()
}

func conservationCheck(tr transport, perQuerySum int64) bool {
	//paxlint:allow ledger(cost-conservation check compares per-query sums against the lifetime totals read-only)
	_ = tr.Metrics()
	return perQuerySum >= 0
}

// Failover path: the aborted-call attribution rule says a replayed or
// failed-but-completed call's cost is charged to the query that caused
// it, from the CallCost the call itself returned — per-call arithmetic.
func chargeFailedAttempt(perQuery *int64, callCost int64) {
	*perQuery += callCost
}

// Reconstructing a failed attempt's cost from the shared lifetime
// counters instead would double-count it against the next conservation
// check — the analyzer rejects the read.
func badAbortedCallAttribution(tr transport, perQuery *int64) {
	m := tr.Metrics() // want `shared transport metrics accessed outside internal/dist`
	_ = m
	*perQuery++
}

// Edit path: a fragment edit rides no failover replay, so its wire cost lands directly on the transport totals — the
// edit's own ledger (EditResult.BytesSent/BytesRecv/Compute) must be
// folded from the CallCosts of the per-member calls it issued, exactly
// like a query's per-stage arithmetic.
func chargeEditCall(editSent, editRecv *int64, callSent, callRecv int64) {
	*editSent += callSent
	*editRecv += callRecv
}

// Deriving an edit's cost by diffing the shared lifetime counters around
// the broadcast races with concurrent queries' traffic — the analyzer
// rejects the read just as it does on the query path.
func badEditAttribution(tr transport, editSent *int64) {
	m := tr.Metrics() // want `shared transport metrics accessed outside internal/dist`
	_ = m
	*editSent++
}

// A retried edit attempt (replica recovering mid-broadcast) charges every
// attempt's CallCost to the edit, timed monotonically.
func timeEditRetry(start time.Time) time.Duration {
	return time.Since(start)
}

func badEditRetryTiming(start time.Time) int64 {
	return time.Now().UnixNano() - start.UnixNano() // want `UnixNano\(\) difference is wall-clock arithmetic`
}

// The mutation differential's conservation check is a reviewed read-only
// comparison: Σ (per-query ledgers + per-edit ledgers) vs the lifetime
// totals, valid only on schedules where every call completed.
func editScheduleConservation(tr transport, querySum, editSum int64, aborted int) bool {
	if aborted > 0 {
		return true
	}
	//paxlint:allow ledger(edit-differential conservation: Σ query+edit ledgers compared against the lifetime totals read-only)
	_ = tr.Metrics()
	return querySum+editSum >= 0
}

// The fault harness's conservation check is the one legitimate reader:
// Σ per-query ledgers vs the lifetime totals IS the invariant, asserted
// only on abort-free schedules (an aborted query's partial costs stay on
// the lifetime side alone).
func faultScheduleConservation(tr transport, perQuerySum int64, aborted int) bool {
	if aborted > 0 {
		return true
	}
	//paxlint:allow ledger(fault-harness conservation check: comparing per-query sums against the lifetime totals read-only)
	_ = tr.Metrics()
	return perQuerySum >= 0
}
