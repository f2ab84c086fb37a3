package pax

import (
	"container/list"
	"sync"

	"paxq/internal/xpath"
)

// lru is a small mutex-guarded LRU map. It backs the compiled-query caches
// on both sides of the wire: the coordinator's plan cache and each site's
// compile cache. Values must be immutable once inserted — a hit is shared
// by every query run that holds it, concurrently.
type lru[K comparable, V any] struct {
	mu      sync.Mutex
	cap     int
	entries map[K]*list.Element
	order   *list.List // front = most recently used
	// inflight coalesces concurrent misses of one key (see do): the first
	// misser fills the entry, everyone else waits for it instead of
	// recomputing — the singleflight pattern, minus the dependency.
	inflight map[K]*flight[V]
}

type lruEntry[K comparable, V any] struct {
	key K
	val V
}

// flight is one in-progress fill of a missing key. done is closed once val
// and err are final; both are written exactly once, before the close.
type flight[V any] struct {
	done chan struct{}
	val  V
	err  error
}

func newLRU[K comparable, V any](capacity int) *lru[K, V] {
	if capacity < 1 {
		capacity = 1
	}
	return &lru[K, V]{
		cap:      capacity,
		entries:  make(map[K]*list.Element, capacity),
		order:    list.New(),
		inflight: make(map[K]*flight[V]),
	}
}

// get returns the cached value and marks it most recently used.
func (c *lru[K, V]) get(key K) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[key]
	if !ok {
		var zero V
		return zero, false
	}
	c.order.MoveToFront(el)
	return el.Value.(*lruEntry[K, V]).val, true
}

// put inserts or refreshes a value, evicting the least recently used entry
// beyond capacity. Concurrent puts of the same key keep whichever lands
// last — values for one key are interchangeable, so the race is benign.
func (c *lru[K, V]) put(key K, val V) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.putLocked(key, val)
}

func (c *lru[K, V]) putLocked(key K, val V) {
	if el, ok := c.entries[key]; ok {
		el.Value.(*lruEntry[K, V]).val = val
		c.order.MoveToFront(el)
		return
	}
	c.entries[key] = c.order.PushFront(&lruEntry[K, V]{key: key, val: val})
	if c.order.Len() > c.cap {
		oldest := c.order.Back()
		c.order.Remove(oldest)
		delete(c.entries, oldest.Value.(*lruEntry[K, V]).key)
	}
}

// do returns the cached value for key, or fills it by calling fn exactly
// once no matter how many goroutines miss concurrently: the first misser
// runs fn, later arrivals block until it finishes and share its result.
// Without this, a thundering herd of first-time requests for one query —
// concurrent clients sending a new query at once — would compile it N
// times.
// Errors are shared by the waiting herd but never cached: the next miss
// retries.
func (c *lru[K, V]) do(key K, fn func() (V, error)) (V, error) {
	c.mu.Lock()
	if el, ok := c.entries[key]; ok {
		c.order.MoveToFront(el)
		v := el.Value.(*lruEntry[K, V]).val
		c.mu.Unlock()
		return v, nil
	}
	if f, ok := c.inflight[key]; ok {
		c.mu.Unlock()
		<-f.done
		return f.val, f.err
	}
	f := &flight[V]{done: make(chan struct{})}
	c.inflight[key] = f
	c.mu.Unlock()

	f.val, f.err = fn()
	c.mu.Lock()
	delete(c.inflight, key)
	if f.err == nil {
		c.putLocked(key, f.val)
	}
	c.mu.Unlock()
	close(f.done)
	return f.val, f.err
}

// len returns the number of cached entries.
func (c *lru[K, V]) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}

// plan is one compiled, relevance-analyzed query — everything about an
// evaluation that depends only on (query text, annotations flag) and the
// engine's immutable topology. Plans are immutable and shared: any number
// of concurrent runs may evaluate off one plan.
type plan struct {
	c   *xpath.Compiled
	rel *Relevance
	// stitch is set on a ShipXML plan whose answers may hold stubs
	// (Relevance.Crossing): its selection stage reports the sub-fragments
	// below answers and candidates, whose bodies the final stage fetches.
	stitch bool
}

// planKey identifies a plan: relevance analysis depends on the Annotations
// option and the stitch analysis on ShipXML, so the same query text
// compiles to distinct plans under each.
type planKey struct {
	query       string
	annotations bool
	shipXML     bool
}

// defaultPlanCache bounds the coordinator's plan cache. Sized for a
// serving workload's hot set; recompiling a cold query costs microseconds,
// so overflow is cheap.
const defaultPlanCache = 256

// defaultSiteCompileCache bounds each site's query→Compiled cache. Sites
// see the same hot set as the coordinator.
const defaultSiteCompileCache = 256
