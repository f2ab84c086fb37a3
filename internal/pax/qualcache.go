package pax

import (
	"time"

	"paxq/internal/fragment"
	"paxq/internal/parbox"
	"paxq/internal/sitecache"
	"paxq/internal/xpath"
)

// Stage-1 memoization. A site's qualifier pass (handleQual) depends only on
// the compiled query, the fragment count (which fixes the variable scheme)
// and the site's fragment contents — never on per-query state — so its
// result can be replayed verbatim for every repetition of the same query:
// the wire-encoded root vectors ship again byte-identically, and the
// retained per-node qualifier formulas (immutable DAGs) seed the new
// session for the later stages. A hit answers the stage request with zero
// tree traversal. Fragment mutations must call BumpCacheGeneration to
// invalidate; see package sitecache for the eviction/TTL/generation story.

// qualKey identifies one memoizable Stage-1 evaluation at a site.
type qualKey struct {
	// fp is the compiled query's fingerprint: its §2.2 normal form, so
	// textual variants of one query share an entry exactly when they
	// compile identically. Computed once per compile-cache entry
	// (compiledQuery), not per request.
	fp string
	// numFrags pins the variable scheme: residual formulas mention
	// variables whose numbering depends on the fragment count.
	numFrags int32
}

// compiledQuery is what a site's compile cache holds: the immutable
// compilation plus its normal-form fingerprint, rendered once so the
// Stage-1 cache's hot path never rebuilds it.
type compiledQuery struct {
	c  *xpath.Compiled
	fp string
}

// qualEntry is the memoized Stage-1 result: the response the site shipped
// and the per-fragment qualifier state the later stages consume. roots and
// qual are immutable once cached and shared by every session that hits. An
// edit never mutates a published entry, it builds a successor (see
// retainEntry), so in-flight readers of the old entry keep a consistent
// version. The one exception is vec: the per-fragment vector states are
// owned by the edit path alone (sessions never touch them) and are patched
// in place under the cache lock.
type qualEntry struct {
	roots []WireRootVecs
	qual  map[fragment.FragID]*parbox.FragQual
	// vec holds the Stage-1 pass's retained mask state per fragment — what
	// makes ANY edit repairable by parbox's incremental Patch.
	vec map[fragment.FragID]*parbox.VectorState
}

// newQualEntry assembles the cache entry for a completed Stage-1 sweep: the
// shipped roots and qualifier state, plus the per-fragment vector states an
// edit patches later.
func newQualEntry(pr *qualPassResult) *qualEntry {
	e := &qualEntry{
		roots: pr.roots,
		qual:  make(map[fragment.FragID]*parbox.FragQual, len(pr.frags)),
		vec:   make(map[fragment.FragID]*parbox.VectorState, len(pr.frags)),
	}
	for i, fid := range pr.frags {
		e.qual[fid] = pr.quals[i]
		e.vec[fid] = pr.states[i]
	}
	return e
}

// retainEntry carries one cached Stage-1 entry through an edit of fragment
// fid (new fragment: nf; renumbering: delta): the fragment's vector state
// is advanced by parbox's incremental Patch — which repairs ANY edit by
// recomputing exactly the dirty rows — and the fragment's Stage-1 result and
// shipped root vectors are rebuilt from the patched masks, byte-identical to
// a fresh sweep (parbox's patch equivalence). The result is always a NEW
// qualEntry sharing everything else: a published entry is never mutated, so
// sessions holding it from a pre-edit hit keep a consistent version. An
// entry without state for fid returns nil and is dropped, which is always
// safe. Runs under the cache lock, from the site's serialized edit path
// only.
func (s *Site) retainEntry(old *qualEntry, fid fragment.FragID, nf *fragment.Fragment, delta fragment.EditDelta) *qualEntry {
	st := old.vec[fid]
	if st == nil {
		return nil
	}
	st.Patch(nf, delta)
	fq := st.FragQual()
	ne := &qualEntry{
		roots: make([]WireRootVecs, len(old.roots)),
		qual:  make(map[fragment.FragID]*parbox.FragQual, len(old.qual)),
		vec:   old.vec,
	}
	for k, v := range old.qual {
		ne.qual[k] = v
	}
	ne.qual[fid] = fq
	copy(ne.roots, old.roots)
	for i := range ne.roots {
		if ne.roots[i].Frag == fid {
			ne.roots[i] = shipRootVecs(fid, nf, fq)
			break
		}
	}
	return ne
}

// EnableCache equips the site with a Stage-1 memoization cache of at most
// size entries; size <= 0 disables caching. A non-zero ttl additionally
// expires entries that old (a safety valve when fragments can change
// without a BumpCacheGeneration call). Call before the site starts
// serving, like the other Set/Enable knobs.
func (s *Site) EnableCache(size int, ttl time.Duration) {
	s.cacheSize, s.cacheTTL = size, ttl
	if size <= 0 {
		s.cache = nil
		return
	}
	s.cache = sitecache.New[qualKey, *qualEntry](size, ttl)
}

// CacheStats returns a snapshot of the site's Stage-1 cache counters — the
// zero Stats when caching is disabled.
func (s *Site) CacheStats() sitecache.Stats {
	if s.cache == nil {
		return sitecache.Stats{}
	}
	return s.cache.Stats()
}

// BumpCacheGeneration advances the site's fragment generation, dropping
// every memoized Stage-1 result. Call after mutating the site's fragments
// so stale partial answers are never replayed. A no-op when caching is
// disabled.
func (s *Site) BumpCacheGeneration() {
	if s.cache != nil {
		s.cache.BumpGeneration()
	}
}
