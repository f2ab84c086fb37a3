package pax

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"paxq/internal/boolexpr"
	"paxq/internal/dist"
	"paxq/internal/fragment"
	"paxq/internal/parbox"
	"paxq/internal/sitecache"
	"paxq/internal/xmltree"
	"paxq/internal/xpath"
)

// Site is the site-side engine: it hosts one or more fragments and serves
// the stage requests of PaX3, PaX2 and NaiveCentralized. A Site is a
// dist.Handler factory, so the same instance can back the in-process or the
// TCP transport.
//
// A Site serves any number of concurrent queries: per-query state lives in
// sessions keyed by QueryID, and compiled queries are cached and shared
// across sessions. Within one stage request, independent fragments are
// evaluated concurrently by a per-session worker pool (see
// SetParallelism); the per-fragment computation times are summed and
// reported through the response, so a query's cost ledger is identical
// whether the site evaluated sequentially or in parallel. A malformed or
// out-of-order stage request fails that request with an error through the
// transport; it never takes the site down.
type Site struct {
	id       dist.SiteID
	frags    map[fragment.FragID]*fragment.Fragment
	compiled *lru[string, compiledQuery]
	par      int
	// cache, when enabled, memoizes Stage-1 (qualifier pass) results per
	// compiled query so repeated queries skip the fragment traversal
	// entirely — see qualcache.go and package sitecache. Nil = disabled.
	// cacheSize/cacheTTL remember the configuration so Restart can
	// re-create the cache the way a fresh process would start it.
	cache     *sitecache.Cache[qualKey, *qualEntry]
	cacheSize int
	cacheTTL  time.Duration
	// compiles counts compile-cache fills; qualPasses counts full Stage-1
	// fragment sweeps. Test hooks for the single-compile and shared-batch
	// evaluation guarantees.
	compiles   atomic.Int64
	qualPasses atomic.Int64

	mu       sync.Mutex
	sessions map[QueryID]*session
}

// session is the per-query state a site retains between visits.
type session struct {
	c *xpath.Compiled
	// fp is the compiled query's normal-form fingerprint — the Stage-1
	// cache key component, carried from the compile cache.
	fp string
	vs parbox.VarScheme
	// frags snapshots the site's fragment versions at session creation, and
	// fragIDs their IDs ascending. Every stage of the query evaluates this
	// snapshot, so a fragment edit landing between stages can never mix
	// versions within one query's answer — the site swaps its live map, the
	// session keeps reading the copy-on-write fragments it started with.
	// Immutable after creation.
	frags   map[fragment.FragID]*fragment.Fragment
	fragIDs []fragment.FragID
	// gen is the Stage-1 cache generation observed at the same instant the
	// snapshot was taken (both under Site.mu, which every edit holds while
	// it swaps a fragment and advances the generation). Cache reads and
	// writes for this session pin to it: GetAt(gen) can only hit while no
	// edit has landed since the snapshot, so a hit is always consistent
	// with sess.frags, and Put(gen) silently drops results that an edit
	// overtook. Zero when caching is disabled (never consulted then).
	gen uint64
	// workers is the session's private worker pool: fragment evaluation
	// within this query's stage requests is bounded by its capacity. Each
	// session owns its pool so one query's fragment fan-out cannot starve
	// the fragment workers of a concurrently served query.
	workers chan struct{}
	// lastUsed (guarded by Site.mu) drives expiry of sessions abandoned by
	// their coordinator.
	lastUsed time.Time
	// qual holds Stage-1 state per fragment until the selection stage
	// consumes it.
	qual map[fragment.FragID]*parbox.FragQual
	// cands holds candidate answers per fragment until the final stage.
	cands map[fragment.FragID][]candidate
	// shipXML records the answer-shipping mode for the final stage.
	shipXML bool
}

// maxSessions bounds retained per-query state. A new query arriving at a
// site that is already tracking maxSessions sessions is rejected with
// ErrSessionLimit after expired sessions are swept — never admitted by
// silently discarding another query's state.
const maxSessions = 256

// sessionTTL is how long a session may sit untouched before it is
// presumed abandoned (its coordinator died or gave up mid-query) and
// becomes eligible for sweeping when the site is at its session cap.
// Live queries touch their session on every stage, and stages are
// coordinator round trips, so any realistic query finishes orders of
// magnitude faster; a coordinator that stalls longer than this between
// stages at a full site loses its session. A variable only so tests can
// exercise the sweep without waiting minutes.
var sessionTTL = 2 * time.Minute

// NewSite creates a site hosting the given fragments. Fragment evaluation
// within a stage request defaults to GOMAXPROCS-way parallelism.
func NewSite(id dist.SiteID, frags []*fragment.Fragment) *Site {
	s := &Site{
		id:       id,
		frags:    make(map[fragment.FragID]*fragment.Fragment, len(frags)),
		compiled: newLRU[string, compiledQuery](defaultSiteCompileCache),
		par:      runtime.GOMAXPROCS(0),
		sessions: make(map[QueryID]*session),
	}
	for _, f := range frags {
		s.frags[f.ID] = f
	}
	return s
}

// SetParallelism bounds the per-session fragment worker pool: n fragments
// of one stage request evaluate concurrently (1 = sequential). Call before
// the site starts serving; existing sessions keep their pool size.
func (s *Site) SetParallelism(n int) {
	if n < 1 {
		n = 1
	}
	s.par = n
}

// shipVec encodes a formula vector for the wire through sim, the
// simplification pass every shipped formula takes: constant folding,
// flattening and cross-pointer dedup via interning. Semantics-preserving;
// Stage-1 vectors are already canonical, but the combined stage's
// formulas ship up to 3× the bytes without it. Each fragment's formulas
// get a fresh Simplifier, so the output is deterministic and independent
// of the site's scheduling mode.
func shipVec(sim *boolexpr.Simplifier, fs []*boolexpr.Formula) WireVec {
	return boolexpr.EncodeVec(sim.Vec(fs))
}

// shipOne encodes a single formula for the wire through sim.
func shipOne(sim *boolexpr.Simplifier, f *boolexpr.Formula) []byte {
	return boolexpr.Encode(sim.Simplify(f))
}

// ID returns the site's identifier.
func (s *Site) ID() dist.SiteID { return s.id }

// FragIDs returns the IDs of the hosted fragments, ascending.
func (s *Site) FragIDs() []fragment.FragID {
	s.mu.Lock()
	defer s.mu.Unlock()
	return sortedFragIDs(s.frags)
}

func sortedFragIDs(frags map[fragment.FragID]*fragment.Fragment) []fragment.FragID {
	out := make([]fragment.FragID, 0, len(frags))
	for id := range frags {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Handler returns the dist.Handler serving this site.
func (s *Site) Handler() dist.Handler {
	return func(req any) (any, error) {
		resp, err := s.handle(req)
		if err != nil {
			// The stage handlers return concrete response pointers; letting
			// a typed nil escape into the any-valued transport plane would
			// make resp != nil at the metering layer and crash it.
			return nil, err
		}
		return resp, nil
	}
}

func (s *Site) handle(req any) (any, error) {
	switch r := req.(type) {
	case *QualStageReq:
		return s.handleQual(r)
	case *SelStageReq:
		return s.handleSel(r)
	case *CombinedStageReq:
		return s.handleCombined(r)
	case *AnsStageReq:
		return s.handleCollect(r)
	case *FetchReq:
		return s.handleFetch()
	case *BatchStageReq:
		return s.handleBatch(r)
	case *EditReq:
		return s.handleEdit(r)
	}
	return nil, fmt.Errorf("pax: site %d: unknown request type %T", s.id, req)
}

func (s *Site) getSession(qid QueryID, query string, numFrags int32) (*session, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	now := time.Now()
	if sess, ok := s.sessions[qid]; ok {
		sess.lastUsed = now
		return sess, nil
	}
	if query == "" {
		return nil, fmt.Errorf("pax: site %d: no session for query %d", s.id, qid)
	}
	if len(s.sessions) >= maxSessions {
		// Reclaim sessions presumed abandoned: untouched for longer than
		// the TTL. A site cannot distinguish a dead coordinator from one
		// stalled for minutes between stages, so a query that idles past
		// the TTL at a full site can still lose its state — but only
		// time-based reclamation under pressure, never the arrival of new
		// load by itself, discards another query's session.
		for id, sess := range s.sessions {
			if now.Sub(sess.lastUsed) > sessionTTL {
				delete(s.sessions, id)
			}
		}
	}
	if len(s.sessions) >= maxSessions {
		return nil, fmt.Errorf("pax: site %d: %w (%d queries in flight)", s.id, ErrSessionLimit, len(s.sessions))
	}
	cq, err := s.compile(query)
	if err != nil {
		return nil, fmt.Errorf("pax: site %d: %w", s.id, err)
	}
	// Snapshot the fragment versions and the cache generation atomically
	// (both under s.mu, the lock every edit holds while it swaps a fragment
	// and invalidates): the query evaluates exactly this fragment state in
	// every stage, whatever edits land meanwhile.
	frags := make(map[fragment.FragID]*fragment.Fragment, len(s.frags))
	for id, f := range s.frags {
		frags[id] = f
	}
	var gen uint64
	if s.cache != nil {
		gen = s.cache.Generation()
	}
	sess := &session{
		c:        cq.c,
		fp:       cq.fp,
		vs:       parbox.NewVarScheme(cq.c, int(numFrags)),
		frags:    frags,
		fragIDs:  sortedFragIDs(frags),
		gen:      gen,
		workers:  make(chan struct{}, s.par),
		lastUsed: now,
		qual:     make(map[fragment.FragID]*parbox.FragQual),
		cands:    make(map[fragment.FragID][]candidate),
	}
	s.sessions[qid] = sess
	return sess, nil
}

// stageCompute folds a fragment fan-out's cost back into handler terms:
// the serial portion's wall time plus the summed per-fragment
// computation. The same formula applies to failed stages — the fragments
// already evaluated did their work, and the transport charges whatever a
// returned response reports even alongside an error — so the ledger a
// query accumulates never depends on the site's scheduling mode.
func stageCompute(start time.Time, compute, parWall time.Duration) StageCompute {
	return StageCompute{ComputeNanos: int64(time.Since(start) - parWall + compute)}
}

// evalFrags runs fn over frags — concurrently, bounded by the session's
// worker pool — and returns the per-fragment results in frags order, the
// summed per-fragment computation time, and the wall time of the whole
// fan-out. A panic inside fn degrades to that fragment's error, exactly as
// a handler panic degrades to a failed call at the transport; when several
// fragments fail, the error reported is the one earliest in frags,
// independent of goroutine scheduling. The compute sum is returned even on
// error: the work was done and must be chargeable to the query.
func evalFrags[T any](sess *session, frags []fragment.FragID, fn func(fragment.FragID) (T, error)) (out []T, compute, wall time.Duration, err error) {
	out = make([]T, len(frags))
	durs := make([]time.Duration, len(frags))
	errs := make([]error, len(frags))
	run := func(i int, fid fragment.FragID) {
		defer func() {
			if r := recover(); r != nil {
				errs[i] = fmt.Errorf("pax: fragment %d: panic: %v", fid, r)
			}
		}()
		start := time.Now()
		out[i], errs[i] = fn(fid)
		durs[i] = time.Since(start)
	}
	start := time.Now()
	if len(frags) <= 1 || cap(sess.workers) <= 1 {
		for i, fid := range frags {
			run(i, fid)
		}
	} else {
		var wg sync.WaitGroup
		for i, fid := range frags {
			sess.workers <- struct{}{}
			wg.Add(1)
			go func() {
				defer func() { <-sess.workers; wg.Done() }()
				run(i, fid)
			}()
		}
		wg.Wait()
	}
	wall = time.Since(start)
	for _, d := range durs {
		compute += d
	}
	for _, e := range errs {
		if e != nil {
			return nil, compute, wall, e
		}
	}
	return out, compute, wall, nil
}

// compile returns the site's cached compilation of query — the immutable
// Compiled plus its normal-form fingerprint, both shared by every session
// evaluating the same query text. Concurrent first-time misses of one
// query compile once and share the result (lru.do).
func (s *Site) compile(query string) (compiledQuery, error) {
	return s.compiled.do(query, func() (compiledQuery, error) {
		s.compiles.Add(1)
		c, err := xpath.Compile(query)
		if err != nil {
			return compiledQuery{}, err
		}
		return compiledQuery{c: c, fp: xpath.NormalForm(c.Query)}, nil
	})
}

func (s *Site) dropSessionIfDone(qid QueryID, sess *session) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(sess.cands) == 0 {
		delete(s.sessions, qid)
	}
}

// qualPassResult is one full Stage-1 sweep over the site's fragments: the
// wire-ready root vectors and the per-fragment qualifier state, plus the
// sweep's cost. roots and quals are immutable once built and may be shared
// by any number of sessions (exactly like a cache entry).
type qualPassResult struct {
	frags []fragment.FragID
	roots []WireRootVecs
	quals []*parbox.FragQual // frags order
	// states holds the pass's bit-packed mask state per fragment, in frags
	// order. Cached alongside the entry so an edit can Patch it instead of
	// dropping the entry.
	states  []*parbox.VectorState
	compute time.Duration
	parWall time.Duration
}

// work sums the sweep's qualifier-DAG work ledger — the batch path's
// attribution weight (each query's owned DAG nodes).
func (p *qualPassResult) work() int64 {
	var w int64
	for _, fq := range p.quals {
		w += fq.Work
	}
	return w
}

// shipRootVecs renders one fragment's Stage-1 result in wire form. One
// simplifier across the fragment's root vectors: QV and QDV entries share
// sub-structure heavily, so interning across the pair shrinks the shipped
// bytes the most. Both the fresh sweep and the patched-entry rebuild go
// through here, so a patched cache entry ships bytes identical to a fresh
// evaluation.
func shipRootVecs(fid fragment.FragID, f *fragment.Fragment, fq *parbox.FragQual) WireRootVecs {
	sim := boolexpr.NewSimplifier()
	rv := WireRootVecs{
		Frag: fid,
		QV:   shipVec(sim, fq.Root.QV),
		QDV:  shipVec(sim, fq.Root.QDV),
	}
	// The root fragment also reports its root node's selection-entry
	// qualifier values, enabling the one-visit ParBoX protocol for
	// Boolean queries.
	if fid == fragment.RootFrag && fq.SelQual != nil {
		sq := fq.SelQual[f.Tree.Root.ID]
		enc := make(WireVec, len(sq))
		for i, fm := range sq {
			if fm == nil {
				fm = boolexpr.True()
			}
			enc[i] = shipOne(sim, fm)
		}
		rv.RootSelQual = enc
	}
	return rv
}

// qualPass runs the Stage-1 qualifier sweep over every fragment of the
// session's snapshot, fragments in parallel. On error the cost fields of
// the partial result are still valid — the fragments already evaluated did
// their work.
func (s *Site) qualPass(sess *session) (*qualPassResult, error) {
	s.qualPasses.Add(1)
	type qualOut struct {
		rv WireRootVecs
		fq *parbox.FragQual
		st *parbox.VectorState
	}
	frags := sess.fragIDs
	outs, compute, parWall, err := evalFrags(sess, frags, func(fid fragment.FragID) (qualOut, error) {
		f := sess.frags[fid]
		st := parbox.NewVectorState(f, sess.c, sess.vs)
		fq := st.FragQual()
		return qualOut{rv: shipRootVecs(fid, f, fq), fq: fq, st: st}, nil
	})
	res := &qualPassResult{frags: frags, compute: compute, parWall: parWall}
	if err != nil {
		return res, err
	}
	for i := range frags {
		res.roots = append(res.roots, outs[i].rv)
		res.quals = append(res.quals, outs[i].fq)
		res.states = append(res.states, outs[i].st)
	}
	return res, nil
}

// seed installs the sweep's per-fragment qualifier state into a session,
// sharing the immutable FragQuals (the same mechanism a cache hit uses).
func (p *qualPassResult) seed(sess *session) {
	for i, fid := range p.frags {
		sess.qual[fid] = p.quals[i]
	}
}

// handleQual runs PaX3 Stage 1 over every hosted fragment, fragments in
// parallel.
func (s *Site) handleQual(req *QualStageReq) (*QualStageResp, error) {
	start := time.Now()
	sess, err := s.getSession(req.QID, req.Query, req.NumFrags)
	if err != nil {
		return nil, err
	}
	if req.Final {
		// No later stage will visit, so the session holds no candidates and
		// this always releases it.
		defer s.dropSessionIfDone(req.QID, sess)
	}
	var key qualKey
	if s.cache != nil {
		key = qualKey{fp: sess.fp, numFrags: req.NumFrags}
		// Cache reads and writes pin to the generation the session's
		// fragment snapshot was taken under: GetAt refuses entries unless
		// the generation is still current (so a hit is always consistent
		// with sess.frags), and a Put whose evaluation an edit overtook is
		// silently dropped instead of resurrecting pre-edit state.
		if e, ok := s.cache.GetAt(key, sess.gen); ok {
			// Replay the memoized pass: the shipped roots are byte-identical
			// to a fresh evaluation (deterministic simplification), and the
			// cached per-fragment qualifier state seeds this session for the
			// selection stage. The entry's original compute is credited to
			// the cache's SavedCompute counter by Get — never to this
			// query's ledger, which reports only the (tiny) work actually
			// done here, so cost conservation keeps holding.
			for fid, fq := range e.qual {
				sess.qual[fid] = fq
			}
			resp := &QualStageResp{Roots: e.roots}
			resp.StageCompute = stageCompute(start, 0, 0)
			return resp, nil
		}
	}
	pr, err := s.qualPass(sess)
	if err != nil {
		return &QualStageResp{StageCompute: stageCompute(start, pr.compute, pr.parWall)},
			fmt.Errorf("pax: site %d: %w", s.id, err)
	}
	pr.seed(sess)
	resp := &QualStageResp{Roots: pr.roots}
	if s.cache != nil {
		// The entry's cost is the fragment-evaluation time this miss paid —
		// what every future hit avoids.
		s.cache.Put(key, newQualEntry(pr), pr.compute, sess.gen)
	}
	resp.StageCompute = stageCompute(start, pr.compute, pr.parWall)
	return resp, nil
}

// virtualEnv grounds the sub-fragment qualifier variables from the wire.
func virtualEnv(vs parbox.VarScheme, vals []WireBoolVals) (*boolexpr.Env, error) {
	env := boolexpr.NewEnv()
	for _, v := range vals {
		if len(v.QV) != vs.NumPreds || len(v.QDV) != vs.NumPreds {
			return nil, fmt.Errorf("pax: qualifier values for fragment %d have arity %d/%d, want %d",
				v.Frag, len(v.QV), len(v.QDV), vs.NumPreds)
		}
		for p := 0; p < vs.NumPreds; p++ {
			if v.Known != nil && !v.Known[p] {
				continue
			}
			if err := env.BindConst(vs.QV(v.Frag, p), v.QV[p]); err != nil {
				return nil, fmt.Errorf("pax: qualifier values for fragment %d: %w", v.Frag, err)
			}
			if err := env.BindConst(vs.QDV(v.Frag, p), v.QDV[p]); err != nil {
				return nil, fmt.Errorf("pax: qualifier values for fragment %d: %w", v.Frag, err)
			}
		}
	}
	return env, nil
}

// initFor selects the stack-initialization vector for fragment fid: a
// concrete XA vector when supplied, the document vector for the root
// fragment, z variables otherwise.
func initFor(sess *session, fid fragment.FragID, inits []WireInit) ([]*boolexpr.Formula, error) {
	for _, in := range inits {
		if in.Frag == fid {
			if len(in.SV) != len(sess.c.Sel) {
				return nil, fmt.Errorf("pax: init vector for fragment %d has %d entries, want %d", fid, len(in.SV), len(sess.c.Sel))
			}
			return constInit(in.SV), nil
		}
	}
	if fid == fragment.RootFrag {
		return xpath.DocSelVector[*boolexpr.Formula](parbox.FormulaAlg{}, sess.c), nil
	}
	return zInit(sess.vs, fid, sess.c), nil
}

// handleSel runs PaX3 Stage 2 over the requested fragments, fragments in
// parallel. The unification environment is built once and only read by the
// workers (Env.Resolve is safe for concurrent reads).
func (s *Site) handleSel(req *SelStageReq) (*SelStageResp, error) {
	start := time.Now()
	sess, err := s.getSession(req.QID, req.Query, req.NumFrags)
	if err != nil {
		return nil, err
	}
	sess.shipXML = req.ShipXML
	env, err := virtualEnv(sess.vs, req.VirtualQuals)
	if err != nil {
		return nil, err
	}
	outs, compute, parWall, err := evalFrags(sess, req.Frags, func(fid fragment.FragID) (*selOutcome, error) {
		f, ok := sess.frags[fid]
		if !ok {
			return nil, fmt.Errorf("pax: site %d does not host fragment %d", s.id, fid)
		}
		init, err := initFor(sess, fid, req.Inits)
		if err != nil {
			return nil, err
		}
		fq := sess.qual[fid]
		if fq == nil && sess.c.HasQualifiers() {
			// The selection stage consumes Stage-1 state; a qualified query
			// whose qualifier stage never ran here (or already ran its
			// selection stage) is a protocol violation by the coordinator —
			// an error for this request, never a site crash.
			return nil, fmt.Errorf("pax: site %d: selection stage for fragment %d of query %d arrived out of order (no qualifier state)", s.id, fid, req.QID)
		}
		qualAt := func(n *xmltree.Node, entry int) *boolexpr.Formula {
			return env.Resolve(fq.SelQual[n.ID][entry])
		}
		return evalSelection(f, sess.c, init, req.ShipXML, qualAt), nil
	})
	if err != nil {
		return &SelStageResp{StageCompute: stageCompute(start, compute, parWall)}, err
	}
	resp := &SelStageResp{}
	for i, fid := range req.Frags {
		outc := outs[i]
		sim := boolexpr.NewSimplifier()
		for _, ctx := range outc.contexts {
			resp.Contexts = append(resp.Contexts, WireContext{Frag: ctx.frag, SV: shipVec(sim, ctx.sv)})
		}
		resp.Answers = append(resp.Answers, outc.answers...)
		if len(outc.candidates) > 0 {
			sess.cands[fid] = outc.candidates
			resp.Candidates = append(resp.Candidates, fid)
		}
		delete(sess.qual, fid) // Stage-1 state is no longer needed
	}
	s.dropSessionIfDone(req.QID, sess)
	resp.StageCompute = stageCompute(start, compute, parWall)
	return resp, nil
}

// handleCombined runs PaX2 Stage 1 over the requested fragments, fragments
// in parallel. Each fragment's combined traversal allocates its local
// qualifier placeholders from a private allocator and eliminates them
// before returning, so concurrent traversals never observe each other's
// variables.
func (s *Site) handleCombined(req *CombinedStageReq) (*CombinedStageResp, error) {
	start := time.Now()
	sess, err := s.getSession(req.QID, req.Query, req.NumFrags)
	if err != nil {
		return nil, err
	}
	sess.shipXML = req.ShipXML
	outs, compute, parWall, err := evalFrags(sess, req.Frags, func(fid fragment.FragID) (*combinedOutcome, error) {
		f, ok := sess.frags[fid]
		if !ok {
			return nil, fmt.Errorf("pax: site %d does not host fragment %d", s.id, fid)
		}
		init, err := initFor(sess, fid, req.Inits)
		if err != nil {
			return nil, err
		}
		return evalCombined(f, sess.c, sess.vs, init, req.ShipXML), nil
	})
	if err != nil {
		return &CombinedStageResp{StageCompute: stageCompute(start, compute, parWall)}, err
	}
	resp := &CombinedStageResp{}
	for i, fid := range req.Frags {
		outc := outs[i]
		sim := boolexpr.NewSimplifier()
		resp.Roots = append(resp.Roots, WireRootVecs{
			Frag: fid,
			QV:   shipVec(sim, outc.roots.QV),
			QDV:  shipVec(sim, outc.roots.QDV),
		})
		for _, ctx := range outc.contexts {
			resp.Contexts = append(resp.Contexts, WireContext{Frag: ctx.frag, SV: shipVec(sim, ctx.sv)})
		}
		resp.Answers = append(resp.Answers, outc.answers...)
		if len(outc.candidates) > 0 {
			sess.cands[fid] = outc.candidates
			resp.Candidates = append(resp.Candidates, fid)
		}
	}
	s.dropSessionIfDone(req.QID, sess)
	resp.StageCompute = stageCompute(start, compute, parWall)
	return resp, nil
}

// handleCollect runs PaX3 Stage 3 / PaX2 Stage 2: resolve retained
// candidates against the ground z and qualifier values.
func (s *Site) handleCollect(req *AnsStageReq) (*AnsStageResp, error) {
	sess, err := s.getSession(req.QID, "", 0)
	if err != nil {
		return nil, err
	}
	env, err := virtualEnv(sess.vs, req.Quals)
	if err != nil {
		return nil, err
	}
	for _, in := range req.Inits {
		if len(in.SV) != len(sess.c.Sel) {
			return nil, fmt.Errorf("pax: init vector for fragment %d has %d entries, want %d", in.Frag, len(in.SV), len(sess.c.Sel))
		}
		for i, b := range in.SV {
			if err := env.BindConst(sess.vs.SV(in.Frag, i), b); err != nil {
				return nil, fmt.Errorf("pax: init vector for fragment %d: %w", in.Frag, err)
			}
		}
	}
	resp := &AnsStageResp{}
	for _, in := range req.Inits {
		f, ok := sess.frags[in.Frag]
		if !ok {
			return nil, fmt.Errorf("pax: site %d does not host fragment %d", s.id, in.Frag)
		}
		for _, cand := range sess.cands[in.Frag] {
			val, ok := env.Resolve(cand.f).IsConst()
			if !ok {
				// The coordinator's request failed to ground a candidate —
				// missing qualifier values or an out-of-order stage. A
				// protocol error, not a site panic.
				return nil, fmt.Errorf("pax: site %d: candidate in fragment %d not ground under the supplied values", s.id, in.Frag)
			}
			if val {
				resp.Answers = append(resp.Answers, answerOf(f, f.Tree.Node(cand.node), sess.shipXML))
			}
		}
		delete(sess.cands, in.Frag)
	}
	s.dropSessionIfDone(req.QID, sess)
	return resp, nil
}

// Restart wipes every piece of state a process restart would lose: the
// per-query sessions, and nothing else that affects answers — the
// compiled-query cache and the Stage-1 memoization cache are
// rebuildable, but a fresh process starts without them, so the Stage-1
// cache is re-created empty at its configured size (generation back to
// zero, like a new process). The fault harness calls this when a
// simulated kill schedule "restarts" an in-process site; coordinators
// mid-query at this site will find their sessions gone and must
// re-establish (classifyStageError's in-place path).
func (s *Site) Restart() {
	s.mu.Lock()
	s.sessions = make(map[QueryID]*session)
	s.mu.Unlock()
	if s.cache != nil {
		s.EnableCache(s.cacheSize, s.cacheTTL)
	}
	s.compiled = newLRU[string, compiledQuery](defaultSiteCompileCache)
}

// handleFetch ships entire fragments (NaiveCentralized). The fragment set
// is snapshotted under the lock, so a concurrent edit yields either the
// pre- or the post-edit version of every fragment — never a torn read.
func (s *Site) handleFetch() (*FetchResp, error) {
	s.mu.Lock()
	frags := make(map[fragment.FragID]*fragment.Fragment, len(s.frags))
	for id, f := range s.frags {
		frags[id] = f
	}
	s.mu.Unlock()
	resp := &FetchResp{}
	for _, fid := range sortedFragIDs(frags) {
		f := frags[fid]
		resp.Frags = append(resp.Frags, WireFragment{ID: fid, Root: toWireNode(f, f.Tree.Root)})
	}
	return resp, nil
}

// handleEdit applies one fragment edit to the site's hosted copy. The whole
// operation — version check, copy-on-write apply, fragment swap, cache
// invalidation — runs under s.mu, the same lock session creation snapshots
// fragments and the cache generation under, so a query session observes
// either the pre-edit world (fragments AND cache generation) or the
// post-edit one, atomically. In-flight sessions keep evaluating their
// snapshot's copy-on-write fragments untouched.
//
// Version semantics (see EditReq): a fragment at BaseVersion applies; one
// already at BaseVersion+1 reports success without re-applying — the
// idempotent-retry case, safe because the engine serializes edits, so the
// only edit that can have moved the fragment to BaseVersion+1 is this very
// one, delivered by an earlier attempt whose response was lost; any other
// version is a conflict.
func (s *Site) handleEdit(req *EditReq) (*EditResp, error) {
	start := time.Now()
	e, err := req.toEdit()
	if err != nil {
		return nil, fmt.Errorf("pax: site %d: %w", s.id, err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	f, ok := s.frags[req.Frag]
	if !ok {
		return nil, fmt.Errorf("pax: site %d does not host fragment %d", s.id, req.Frag)
	}
	resp := &EditResp{}
	switch f.Version {
	case req.BaseVersion:
		// Fall through and apply.
	case req.BaseVersion + 1:
		resp.NewVersion = f.Version
		resp.StageCompute = stageCompute(start, 0, 0)
		return resp, nil
	default:
		return nil, fmt.Errorf("pax: site %d: fragment %d is at version %d, edit issued against base %d: %w",
			s.id, req.Frag, f.Version, req.BaseVersion, ErrEditConflict)
	}
	nf, delta, err := f.ApplyEdit(e)
	if err != nil {
		return nil, fmt.Errorf("pax: site %d: %w", s.id, err)
	}
	s.frags[req.Frag] = nf
	if s.cache != nil {
		// Patch every cached Stage-1 entry through the edit (see
		// retainEntry). The generation advances regardless, so Puts
		// computed against the pre-edit fragments can never land afterwards.
		s.cache.Invalidate(func(_ qualKey, old *qualEntry) (*qualEntry, bool) {
			ne := s.retainEntry(old, req.Frag, nf, delta)
			if ne != nil {
				resp.Patched++
			} else {
				resp.Dropped++
			}
			return ne, ne != nil
		})
	}
	resp.NewVersion = nf.Version
	resp.Applied = true
	resp.StageCompute = stageCompute(start, 0, 0)
	return resp, nil
}
