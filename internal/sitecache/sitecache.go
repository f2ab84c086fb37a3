// Package sitecache implements the per-site memoization cache for Stage-1
// (qualifier pass) results.
//
// The paper bounds how many times a site is *visited* per query, but a
// serving workload pays the full qualifier-evaluation cost again for every
// repeated query: Stage 1 traverses every hosted fragment bottom-up even
// when an identical query ran moments ago. Because a fragment's Stage-1
// partial answer depends only on (compiled query, fragment contents) — the
// request carries no per-query state beyond the query itself — the result
// is memoizable: the shipped residual formulas and the retained per-node
// qualifier state can be replayed verbatim for the next identical query,
// answering the stage request with zero tree traversal.
//
// # Semantics
//
// Cache is a bounded, concurrency-safe LRU map with optional TTL expiry
// and an explicit generation counter:
//
//   - Capacity. At most `size` entries are retained; inserting beyond the
//     bound evicts the least recently used entry (counted in
//     Stats.Evictions). A Get refreshes recency.
//   - TTL. With a non-zero TTL, an entry older than the TTL is dropped on
//     access (counted in Stats.Expirations) and the access is a miss. TTL
//     is a safety valve for deployments that mutate fragments out of band
//     and cannot call BumpGeneration at the right moment.
//   - Generations. Entries are valid only for the generation they were
//     inserted under. BumpGeneration invalidates every current entry at
//     once (counted in Stats.Invalidations) — the hook a future
//     update-aware site calls after mutating its fragments, so stale
//     Stage-1 results can never be replayed against new data. Callers key
//     entries by compiled-query fingerprint; the cache itself adds the
//     generation dimension.
//
// Values must be immutable once inserted: a hit is shared by every request
// that receives it, concurrently. In paxq the cached value is a set of
// wire-encoded residual formula vectors plus the per-node qualifier
// formulas (immutable DAGs), both safe to share.
//
// # Cost accounting
//
// Entries carry the computation time the original evaluation self-reported.
// A hit does NOT re-report that cost into the serving query's ledger — the
// work was not redone, and per-query cost conservation (Σ per-query ledgers
// = transport lifetime totals) must keep holding. Instead the avoided cost
// accumulates separately in Stats.SavedCompute, so operators can see what
// the cache is worth without the ledger ever lying.
package sitecache

import (
	"container/list"
	"sync"
	"time"
)

// Stats is a point-in-time snapshot of a cache's counters. Counters are
// cumulative over the cache's lifetime; Entries and Generation are gauges.
// Stats values from several caches (one per site) can be combined with
// Merge for cluster-wide totals.
type Stats struct {
	// Hits counts Gets that returned a live entry.
	Hits int64
	// Misses counts Gets that found nothing, an expired entry, or a
	// stale-generation entry.
	Misses int64
	// Evictions counts entries displaced by capacity pressure.
	Evictions int64
	// Expirations counts entries dropped because their TTL elapsed.
	Expirations int64
	// Invalidations counts entries dropped by BumpGeneration.
	Invalidations int64
	// ScopedInvalidations counts entries dropped by Invalidate because the
	// caller's predicate rejected them (the edit could have changed them).
	ScopedInvalidations int64
	// ScopedRetained counts entries that survived an Invalidate call — cached
	// Stage-1 state an edit provably could not have changed (possibly after an
	// in-place rewrite). The delta-scoped invalidation win is exactly this
	// counter staying above zero across an edit-heavy workload.
	ScopedRetained int64
	// SavedCompute sums the self-reported computation time of every hit's
	// entry — the site work the cache avoided. Reported separately from
	// any per-query ledger so cost-conservation checks still hold.
	SavedCompute time.Duration
	// Entries is the current number of live cached entries.
	Entries int
	// Generation is the current fragment generation.
	Generation uint64
}

// Merge adds other's counters into s (gauges sum too: cluster-wide entry
// totals across per-site caches; Generation keeps the maximum).
func (s *Stats) Merge(other Stats) {
	s.Hits += other.Hits
	s.Misses += other.Misses
	s.Evictions += other.Evictions
	s.Expirations += other.Expirations
	s.Invalidations += other.Invalidations
	s.ScopedInvalidations += other.ScopedInvalidations
	s.ScopedRetained += other.ScopedRetained
	s.SavedCompute += other.SavedCompute
	s.Entries += other.Entries
	if other.Generation > s.Generation {
		s.Generation = other.Generation
	}
}

// Cache is a bounded, concurrency-safe memoization cache — see the package
// comment for the eviction, TTL and generation semantics. The zero value is
// not usable; construct with New.
type Cache[K comparable, V any] struct {
	mu      sync.Mutex
	size    int
	ttl     time.Duration
	now     func() time.Time
	entries map[K]*list.Element
	order   *list.List // front = most recently used
	stats   Stats
}

// entry is one cached value with its expiry deadline and the compute its
// original evaluation reported.
type entry[K comparable, V any] struct {
	key     K
	val     V
	expires time.Time // zero = never
	cost    time.Duration
}

// New creates a cache holding at most size entries (minimum 1). A non-zero
// ttl additionally expires entries that old on access; ttl <= 0 disables
// expiry.
func New[K comparable, V any](size int, ttl time.Duration) *Cache[K, V] {
	if size < 1 {
		size = 1
	}
	if ttl < 0 {
		ttl = 0
	}
	return &Cache[K, V]{
		size:    size,
		ttl:     ttl,
		now:     time.Now,
		entries: make(map[K]*list.Element, size),
		order:   list.New(),
	}
}

// SetClock replaces the cache's time source. Only for tests that exercise
// TTL expiry without sleeping; call before the cache is shared.
func (c *Cache[K, V]) SetClock(now func() time.Time) { c.now = now }

// Get returns the cached value for key and whether it was present and
// live. A hit refreshes the entry's recency and credits its original
// compute cost to Stats.SavedCompute; an expired entry is dropped and
// reported as a miss.
func (c *Cache[K, V]) Get(key K) (V, bool) {
	var zero V
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[key]
	if !ok {
		c.stats.Misses++
		return zero, false
	}
	e := el.Value.(*entry[K, V])
	if !e.expires.IsZero() && c.now().After(e.expires) {
		c.removeLocked(el)
		c.stats.Expirations++
		c.stats.Misses++
		return zero, false
	}
	c.order.MoveToFront(el)
	c.stats.Hits++
	c.stats.SavedCompute += e.cost
	return e.val, true
}

// GetAt is Get restricted to a generation: it hits only while the cache's
// current generation still equals gen, checked under the same lock as the
// lookup so no BumpGeneration or Invalidate can slip between the check and
// the read. Callers that snapshot fragment state together with the
// generation (a query session pinned to one fragment version) use this to
// guarantee a hit was derived from exactly the snapshot they hold —
// entries always live in the cache's current generation, so equality is
// the whole test. A generation mismatch is reported as a miss.
func (c *Cache[K, V]) GetAt(key K, gen uint64) (V, bool) {
	var zero V
	c.mu.Lock()
	defer c.mu.Unlock()
	if gen != c.stats.Generation {
		c.stats.Misses++
		return zero, false
	}
	el, ok := c.entries[key]
	if !ok {
		c.stats.Misses++
		return zero, false
	}
	e := el.Value.(*entry[K, V])
	if !e.expires.IsZero() && c.now().After(e.expires) {
		c.removeLocked(el)
		c.stats.Expirations++
		c.stats.Misses++
		return zero, false
	}
	c.order.MoveToFront(el)
	c.stats.Hits++
	c.stats.SavedCompute += e.cost
	return e.val, true
}

// Put inserts or refreshes the value for key, recording the computation
// time the evaluation that produced it reported (credited to
// Stats.SavedCompute on each future hit). Beyond capacity, the least
// recently used entry is evicted.
//
// gen must be the Generation() the caller observed BEFORE computing val:
// if a BumpGeneration lands while the value is being computed, the value
// was derived from the previous fragment contents and inserting it would
// resurrect exactly the stale state the bump flushed — such a Put is
// silently dropped instead.
func (c *Cache[K, V]) Put(key K, val V, cost time.Duration, gen uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if gen != c.stats.Generation {
		return
	}
	var expires time.Time
	if c.ttl > 0 {
		expires = c.now().Add(c.ttl)
	}
	if el, ok := c.entries[key]; ok {
		// Concurrent misses may race to insert the same key; values for one
		// key are interchangeable, so last write wins.
		e := el.Value.(*entry[K, V])
		e.val, e.cost, e.expires = val, cost, expires
		c.order.MoveToFront(el)
		return
	}
	c.entries[key] = c.order.PushFront(&entry[K, V]{key: key, val: val, cost: cost, expires: expires})
	if c.order.Len() > c.size {
		c.removeLocked(c.order.Back())
		c.stats.Evictions++
	}
}

// BumpGeneration advances the fragment generation, invalidating every
// current entry: results computed against the previous fragment contents
// must never be replayed. Call after mutating the site's fragments.
func (c *Cache[K, V]) BumpGeneration() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.stats.Generation++
	c.stats.Invalidations += int64(c.order.Len())
	clear(c.entries)
	c.order.Init()
}

// Invalidate advances the fragment generation like BumpGeneration, but
// instead of flushing everything it offers each live entry to keep: entries
// for which keep returns (v, true) are rewritten to v and carried into the
// new generation (counted in Stats.ScopedRetained); the rest are dropped
// (counted in Stats.ScopedInvalidations). This is the delta-scoped hook an
// update-aware site calls after a fragment edit — keep decides, per cached
// query, whether the entry survives, and may repair the value for the
// edit before retaining it.
//
// The generation ALWAYS advances, even when every entry is retained: any
// Put still in flight was computed against the pre-edit fragment and must
// drop, exactly as after BumpGeneration. keep runs under the cache lock and
// must not call back into the cache.
func (c *Cache[K, V]) Invalidate(keep func(K, V) (V, bool)) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.stats.Generation++
	var el, next *list.Element
	for el = c.order.Front(); el != nil; el = next {
		next = el.Next()
		e := el.Value.(*entry[K, V])
		if v, ok := keep(e.key, e.val); ok {
			e.val = v
			c.stats.ScopedRetained++
			continue
		}
		c.removeLocked(el)
		c.stats.ScopedInvalidations++
	}
}

// Generation returns the current fragment generation.
func (c *Cache[K, V]) Generation() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats.Generation
}

// Len returns the number of live entries.
func (c *Cache[K, V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}

// Stats returns a snapshot of the cache's counters.
func (c *Cache[K, V]) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.stats
	s.Entries = c.order.Len()
	return s
}

func (c *Cache[K, V]) removeLocked(el *list.Element) {
	c.order.Remove(el)
	delete(c.entries, el.Value.(*entry[K, V]).key)
}
