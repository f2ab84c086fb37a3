package dist

import (
	"sync"
	"time"
)

// Metrics accumulates cost counters: wire bytes in both directions,
// per-site handler computation time, and per-site visit counts. All
// methods are safe for concurrent use; a stage's fan-out updates the counters
// from many goroutines at once.
//
// Metrics plays two roles. Each transport owns one as its cumulative
// lifetime counters (Transport.Metrics). Independently, anything tracking
// a bounded unit of work — the pax engine creates one per query run —
// builds a private ledger by Adding the CallCosts its own calls returned,
// so concurrent users of one transport never share or reset counters.
type Metrics struct {
	mu      sync.Mutex
	sent    int64
	recv    int64
	compute map[SiteID]time.Duration
	visits  map[SiteID]int
}

// NewMetrics returns an empty counter set, ready to Add to.
func NewMetrics() *Metrics {
	return &Metrics{
		compute: make(map[SiteID]time.Duration),
		visits:  make(map[SiteID]int),
	}
}

// Bytes returns the cumulative bytes sent to and received from sites since
// the last Reset, including framing overhead.
func (m *Metrics) Bytes() (sent, recv int64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.sent, m.recv
}

// ComputeAt returns the cumulative handler wall time at one site since the
// last Reset.
func (m *Metrics) ComputeAt(site SiteID) time.Duration {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.compute[site]
}

// TotalCompute returns the handler wall time summed over all sites — the
// paper's total computation cost.
func (m *Metrics) TotalCompute() time.Duration {
	m.mu.Lock()
	defer m.mu.Unlock()
	var total time.Duration
	for _, d := range m.compute {
		total += d
	}
	return total
}

// MaxVisits returns the maximum number of calls any single site received
// since the last Reset — the paper's visit bound (≤3 for PaX3, ≤2 for
// PaX2).
func (m *Metrics) MaxVisits() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	max := 0
	for _, n := range m.visits {
		if n > max {
			max = n
		}
	}
	return max
}

// Reset zeroes every counter. Only the owner of a private ledger may call
// it; resetting a transport's shared lifetime counters while queries are
// in flight corrupts nothing per-query (queries account from CallCosts),
// but makes the lifetime totals lie.
func (m *Metrics) Reset() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.sent, m.recv = 0, 0
	clear(m.compute)
	clear(m.visits)
}

// MetricsSnapshot is a point-in-time copy of a Metrics' counters, safe to
// read without further synchronization. Compute and Visits are fresh maps
// owned by the caller.
type MetricsSnapshot struct {
	Sent    int64
	Recv    int64
	Compute map[SiteID]time.Duration
	Visits  map[SiteID]int
}

// TotalVisits sums the per-site visit counts.
func (s MetricsSnapshot) TotalVisits() int {
	n := 0
	for _, v := range s.Visits {
		n += v
	}
	return n
}

// Snapshot returns a consistent copy of every counter. It backs metrics
// endpoints that export the transport's lifetime totals.
func (m *Metrics) Snapshot() MetricsSnapshot {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := MetricsSnapshot{
		Sent:    m.sent,
		Recv:    m.recv,
		Compute: make(map[SiteID]time.Duration, len(m.compute)),
		Visits:  make(map[SiteID]int, len(m.visits)),
	}
	for site, d := range m.compute {
		out.Compute[site] = d
	}
	for site, n := range m.visits {
		out.Visits[site] = n
	}
	return out
}

// Add accounts one completed round trip to the site: its wire bytes, the
// handler time, and one visit.
func (m *Metrics) Add(site SiteID, c CallCost) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.sent += c.Sent
	m.recv += c.Recv
	m.compute[site] += c.Compute
	m.visits[site]++
}
