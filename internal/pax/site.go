package pax

import (
	"fmt"
	"maps"
	"slices"
	"sync"
	"sync/atomic"
	"weak"

	"paxq/internal/boolexpr"
	"paxq/internal/dist"
	"paxq/internal/fragment"
	"paxq/internal/parbox"
	"paxq/internal/xpath"
)

// Site is the site-side engine: it hosts one or more fragments and serves
// the stage requests of PaX3, PaX2 and NaiveCentralized. A Site is a
// dist.Handler factory, so the same instance can back the in-process or the
// TCP transport.
//
// A Site keeps no per-query state. Every stage request is self-contained:
// it carries the query text, and each request after a query's first names
// the versions of the fragments it reads, which an earlier stage reported.
// A site keeps the current and the previous version of each fragment, and
// compiled queries with their Stage-1 results, cached and shared across
// queries. One stage request evaluates its fragments one after another, in
// the handler's own goroutine: the site is the unit of parallelism, and
// the transport's measured handler time is the request's computation cost.
// A malformed stage request fails that request with an error through the
// transport; it never takes the site down.
type Site struct {
	id dist.SiteID
	// compiled is the compile cache, which Restart swaps while handlers
	// read it.
	compiled atomic.Pointer[lru[string, *compiledQuery]]
	// compiles counts compile-cache fills, a test hook for the
	// single-compile guarantee.
	compiles atomic.Int64
	// memoHits and memoMisses count the Stage-1 memo's lookups, one per
	// fragment a request reads the Stage-1 result of; memoReplaced counts
	// the entries a miss overwrote because they held another version of
	// their fragment. Lifetime counters: Restart keeps them.
	memoHits, memoMisses, memoReplaced atomic.Int64

	mu sync.Mutex
	// frags is the site's current fragment set (guarded by mu). It is
	// immutable: an edit swaps in a new set, so a request holding the
	// pointer reads one consistent snapshot.
	frags *fragSet
}

// fragSet is one immutable snapshot of a site's hosted fragments: the
// current version of each by ID, the previous version of each one an edit
// replaced, and the IDs ascending. Two holders of the same pointer see the
// same fragment versions.
type fragSet struct {
	byID map[fragment.FragID]*fragment.Fragment
	prev map[fragment.FragID]*fragment.Fragment
	ids  []fragment.FragID
}

// with returns a copy of fs in which nf replaces the fragment of its ID,
// which becomes that fragment's previous version. The ID set is
// unchanged, so the copy shares fs's ID slice.
func (fs *fragSet) with(nf *fragment.Fragment) *fragSet {
	byID, prev := maps.Clone(fs.byID), maps.Clone(fs.prev)
	if prev == nil {
		prev = make(map[fragment.FragID]*fragment.Fragment, 1)
	}
	prev[nf.ID] = byID[nf.ID]
	byID[nf.ID] = nf
	return &fragSet{byID: byID, prev: prev, ids: fs.ids}
}

// current returns the current version of fragment fid.
func (fs *fragSet) current(fid fragment.FragID) (*fragment.Fragment, error) {
	f, ok := fs.byID[fid]
	if !ok {
		return nil, fmt.Errorf("does not host fragment %d: %w", fid, ErrBadStageRequest)
	}
	return f, nil
}

// at returns fragment fid at version v, the current or the previous one,
// or ErrVersionSkew when the set holds neither at v.
func (fs *fragSet) at(fid fragment.FragID, v uint64) (*fragment.Fragment, error) {
	f, err := fs.current(fid)
	if err != nil {
		return nil, err
	}
	if f.Version == v {
		return f, nil
	}
	if p := fs.prev[fid]; p != nil && p.Version == v {
		return p, nil
	}
	return nil, fmt.Errorf("fragment %d is at version %d, not %d: %w", fid, f.Version, v, ErrVersionSkew)
}

// pinned returns fragment fid at the version pins names for it, or at its
// current version when pins names none.
func (fs *fragSet) pinned(fid fragment.FragID, pins []WireVersion) (*fragment.Fragment, error) {
	for _, p := range pins {
		if p.Frag == fid {
			return fs.at(fid, p.Version)
		}
	}
	return fs.current(fid)
}

// compiledQuery is what a site's compile cache holds: the immutable
// compilation of a query text and the text's Stage-1 memo.
//
// The memo holds, per hosted fragment, the Stage-1 result of the query: a
// pure function of the compilation, the fragment count (which names the
// variables) and the fragment version. An entry is valid only for the
// exact *fragment.Fragment it was computed from; an edit swaps in a new
// fragment object, so the edited fragment's entry stops matching and the
// next miss overwrites it. The entry holds that object weakly, so it
// never keeps an edited-away version alive. Admission is on first use: a
// PaX3 query's later stages read the result its qualifier stage stored.
// The memo lives and dies with its cache entry, which bounds it by the
// compile cache's 256 texts per site.
type compiledQuery struct {
	c    *xpath.Compiled
	mu   sync.Mutex
	memo []stage1Result // guarded by mu; one per hosted fragment at most
}

// slot returns the index of fragment fid's entry in q.memo, or -1. The
// caller holds q.mu.
func (q *compiledQuery) slot(fid fragment.FragID) int {
	for i := range q.memo {
		if q.memo[i].rv.Frag == fid {
			return i
		}
	}
	return -1
}

// stage1Result is one fragment's Stage-1 result, immutable once built and
// shared by every request that reads it: the qualifier state the selection
// walk reads and the root vectors in wire form (with the root fragment's
// RootSelQual, which only PaX3 ships). f and numFrags are what it was
// computed for.
type stage1Result struct {
	f        weak.Pointer[fragment.Fragment]
	numFrags int
	fq       *parbox.FragQual
	rv       WireRootVecs
}

// stageQuery is the query one stage request evaluates: its compile-cache
// entry and the variables its fragment count names.
type stageQuery struct {
	*compiledQuery
	vs parbox.VarScheme
}

// NewSite creates a site hosting the given fragments.
func NewSite(id dist.SiteID, frags []*fragment.Fragment) *Site {
	fs := &fragSet{byID: make(map[fragment.FragID]*fragment.Fragment, len(frags))}
	for _, f := range frags {
		fs.byID[f.ID] = f
	}
	fs.ids = slices.Sorted(maps.Keys(fs.byID))
	s := &Site{id: id, frags: fs}
	s.compiled.Store(newLRU[string, *compiledQuery](defaultSiteCompileCache))
	return s
}

// snapshot returns the site's current fragment set.
func (s *Site) snapshot() *fragSet {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.frags
}

// shipVec encodes a formula vector for the wire as it was built. Every
// formula a site ships comes from the one boolexpr.Builder of the pass
// that built it — a fragment's Stage-1 sweep or its selection visit —
// which hash-conses as it builds, so the vectors are canonical by
// construction: the constructors' dedup, complement and absorption rules
// have already fired across every subtree the pass built twice, and no
// pass rebuilds them before shipping. A Builder per pass also keeps the
// output deterministic. A Stage-1 result always has a Builder of its own,
// so a memoized one ships the bytes a fresh pass does.
func shipVec(fs []*boolexpr.Formula) WireVec {
	return boolexpr.EncodeVec(fs)
}

// ID returns the site's identifier.
func (s *Site) ID() dist.SiteID { return s.id }

// MemoStats are a site's lifetime Stage-1 memo counters: lookups that
// found a result for the fragment version asked about, lookups that did
// not, and entries a miss overwrote because they held another version.
type MemoStats struct {
	Hits, Misses, Replaced int64
}

// MemoStats returns the site's Stage-1 memo counters.
func (s *Site) MemoStats() MemoStats {
	return MemoStats{Hits: s.memoHits.Load(), Misses: s.memoMisses.Load(), Replaced: s.memoReplaced.Load()}
}

// FragIDs returns the IDs of the hosted fragments, ascending.
func (s *Site) FragIDs() []fragment.FragID {
	return slices.Clone(s.snapshot().ids)
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
	case *EditReq:
		return s.handleEdit(r)
	}
	return nil, fmt.Errorf("pax: site %d: unknown request type %T: %w", s.id, req, ErrBadStageRequest)
}

// query returns what a stage request of text over numFrags fragments
// evaluates.
func (s *Site) query(text string, numFrags int32) (stageQuery, error) {
	cq, err := s.compile(text)
	if err != nil {
		return stageQuery{}, fmt.Errorf("pax: site %d: %w", s.id, err)
	}
	return stageQuery{compiledQuery: cq, vs: parbox.NewVarScheme(cq.c, int(numFrags))}, nil
}

// read returns the fragments frags names, in order, each at the version
// pins names for it or at its current version.
func (s *Site) read(frags []fragment.FragID, pins []WireVersion) ([]*fragment.Fragment, error) {
	fs := s.snapshot()
	out := make([]*fragment.Fragment, len(frags))
	for i, fid := range frags {
		var err error
		if out[i], err = fs.pinned(fid, pins); err != nil {
			return nil, fmt.Errorf("pax: site %d: %w", s.id, err)
		}
	}
	return out, nil
}

// evalFrags runs fn over frags one after another, in the caller's
// goroutine, passing each fragment's index in frags. The first failing
// fragment stops the walk. A panic inside fn degrades to that fragment's
// error, exactly as a handler panic degrades to a failed call at the
// transport.
func evalFrags(frags []*fragment.Fragment, fn func(i int, f *fragment.Fragment) error) (err error) {
	var cur fragment.FragID
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("pax: fragment %d: panic: %v", cur, r)
		}
	}()
	for i, f := range frags {
		cur = f.ID
		if err := fn(i, f); err != nil {
			return err
		}
	}
	return nil
}

// compile returns the site's cache entry for query — the immutable
// Compiled and its Stage-1 memo, shared by every request evaluating the
// same query text. Concurrent first-time misses of one query compile once
// and share the result (lru.do).
func (s *Site) compile(query string) (*compiledQuery, error) {
	return s.compiled.Load().do(query, func() (*compiledQuery, error) {
		s.compiles.Add(1)
		c, err := xpath.Compile(query)
		if err != nil {
			return nil, err
		}
		return &compiledQuery{c: c}, nil
	})
}

// shipRootVecs renders one fragment's Stage-1 result in wire form.
func shipRootVecs(f *fragment.Fragment, c *xpath.Compiled, fq *parbox.FragQual) WireRootVecs {
	rv := WireRootVecs{Frag: f.ID, Version: f.Version, QV: shipVec(fq.Root.QV), QDV: shipVec(fq.Root.QDV)}
	// The root fragment also reports its root node's selection-entry
	// qualifier values, enabling the one-visit ParBoX protocol for
	// Boolean queries.
	if f.ID == fragment.RootFrag && c.HasQualifiers() {
		sel := make([]*boolexpr.Formula, len(c.Sel))
		for i := range sel {
			if sel[i] = fq.QualAt(fragment.RootNode, i); sel[i] == nil {
				sel[i] = boolexpr.True()
			}
		}
		rv.RootSelQual = shipVec(sel)
	}
	return rv
}

// stage1 returns fragment f's Stage-1 result for query q: the memoized
// result when q's memo holds one for exactly f and q's fragment count,
// else a fresh sweep with a Builder of its own, which it memoizes. Each
// lookup counts as a memo hit or miss.
func (s *Site) stage1(q stageQuery, f *fragment.Fragment) stage1Result {
	var r stage1Result
	q.mu.Lock()
	i := q.slot(f.ID)
	if i >= 0 {
		r = q.memo[i]
	}
	q.mu.Unlock()
	// Comparing handles reads no weak pointer: Value may park until the
	// collector's mark termination, and every lookup would risk it.
	id := weak.Make(f)
	if i >= 0 && r.f == id && r.numFrags == q.vs.NumFrags {
		s.memoHits.Add(1)
		return r
	}
	s.memoMisses.Add(1)
	fq := parbox.Qualify(f, q.c, q.vs, &boolexpr.Builder{})
	r = stage1Result{f: id, numFrags: q.vs.NumFrags, fq: fq, rv: shipRootVecs(f, q.c, fq)}
	q.mu.Lock()
	defer q.mu.Unlock()
	if i := q.slot(f.ID); i >= 0 {
		if old := q.memo[i]; old.f != r.f || old.numFrags != r.numFrags {
			s.memoReplaced.Add(1)
		}
		q.memo[i] = r
		return r
	}
	if q.memo == nil {
		q.memo = make([]stage1Result, 0, len(s.snapshot().ids))
	}
	q.memo = append(q.memo, r)
	return r
}

// qualPass runs Stage 1 over the current version of every fragment of fs,
// reading each fragment's result from q's memo where it holds one, and
// returns the root vectors in fs's ID order.
func (s *Site) qualPass(q stageQuery, fs *fragSet) ([]WireRootVecs, error) {
	frags := make([]*fragment.Fragment, len(fs.ids))
	for i, fid := range fs.ids {
		frags[i] = fs.byID[fid]
	}
	roots := make([]WireRootVecs, len(frags))
	err := evalFrags(frags, func(i int, f *fragment.Fragment) error {
		roots[i] = s.stage1(q, f).rv
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("pax: site %d: %w", s.id, err)
	}
	return roots, nil
}

// handleQual runs PaX3 Stage 1 over every hosted fragment.
func (s *Site) handleQual(req *QualStageReq) (*QualStageResp, error) {
	q, err := s.query(req.Query, req.NumFrags)
	if err != nil {
		return nil, err
	}
	roots, err := s.qualPass(q, s.snapshot())
	if err != nil {
		return nil, err
	}
	return &QualStageResp{Roots: roots}, nil
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

// initFor selects the stack-initialization vector for fragment fid, built
// with b: a concrete vector when supplied (an XA vector, or the ground
// init of the final stage), the document vector for the root fragment, z
// variables otherwise.
func initFor(b *boolexpr.Builder, q stageQuery, fid fragment.FragID, inits []WireInit) ([]*boolexpr.Formula, error) {
	for _, in := range inits {
		if in.Frag == fid {
			if len(in.SV) != len(q.c.Sel) {
				return nil, fmt.Errorf("pax: init vector for fragment %d has %d entries, want %d", fid, len(in.SV), len(q.c.Sel))
			}
			return constInit(in.SV), nil
		}
	}
	if fid == fragment.RootFrag {
		return xpath.DocSelVector[*boolexpr.Formula](b, q.c), nil
	}
	return zInit(b, q.vs, fid, q.c), nil
}

// selectFrags is the one selection path of both algorithms — PaX3 Stage 2,
// PaX2 Stage 1 and the final stage of both. It runs the selection
// traversal over frags in two passes: the first computes every fragment's
// walk set, the second sweeps them in frags order, writing every answer
// straight into the response's one answers slice, sized beforehand from
// the walk sets' reach (at most reach answers from a ground init, none
// from a symbolic one). Once every fragment succeeded it folds the other
// outcomes into response sections in frags order. A fragment that holds a
// candidate keeps no answers in the response: the final stage walks it
// again, under ground inits and qualifier values, and ships every answer
// of it. With env, the traversal reads each fragment's Stage-1 result,
// from stage1, grounded under env. With env nil it is PaX2's combined
// visit: the qualifier values stay symbolic in the sub-fragment variables,
// and each fragment's root vectors ship beside its contexts. The sections
// come back in a CombinedStageResp, whose Roots only PaX2 ships. Under
// stitch it lists the sub-fragments below answers and candidates in Below.
func (s *Site) selectFrags(q stageQuery, frags []*fragment.Fragment, inits []WireInit, shipXML, stitch bool, env *boolexpr.Env) (*CombinedStageResp, error) {
	resp := &CombinedStageResp{}
	visits := make([]selVisit, len(frags))
	// One Builder per (query, fragment) selection visit.
	builders := make([]boolexpr.Builder, len(frags))
	defer func() {
		for i := range visits {
			visits[i].release()
		}
	}()
	n := 0
	err := evalFrags(frags, func(i int, f *fragment.Fragment) error {
		b := &builders[i]
		init, err := initFor(b, q, f.ID, inits)
		if err != nil {
			return err
		}
		var fq *parbox.FragQual
		if env == nil || q.c.HasQualifiers() {
			r := s.stage1(q, f)
			fq = r.fq
			if env == nil {
				// PaX2 ships the root vectors alone: its coordinator never
				// reads the root's selection qualifiers.
				resp.Roots = append(resp.Roots, WireRootVecs{Frag: f.ID, Version: f.Version, QV: r.rv.QV, QDV: r.rv.QDV})
			}
		}
		visits[i] = startSelection(b, f, q.c, init, fq)
		n += visits[i].maxAnswers()
		return nil
	})
	if err != nil {
		return nil, err
	}
	if n > 0 {
		resp.Answers = make([]AnswerNode, 0, n)
	}
	err = evalFrags(frags, func(i int, _ *fragment.Fragment) error {
		start := len(resp.Answers)
		resp.Answers = visits[i].sweep(q.c, shipXML, env, resp.Answers).answers
		if visits[i].hasCandidates() {
			resp.Answers = resp.Answers[:start]
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for i, f := range frags {
		outc := &visits[i].out
		for _, ctx := range outc.contexts {
			resp.Contexts = append(resp.Contexts, WireContext{Frag: ctx.frag, SV: shipVec(ctx.sv)})
		}
		if stitch {
			resp.Below = append(resp.Below, outc.below...)
		}
		if visits[i].hasCandidates() {
			resp.Candidates = append(resp.Candidates, f.ID)
		}
	}
	return resp, nil
}

// handleSel runs PaX3 Stage 2 over the requested fragments, at the
// versions the request names or, when the qualifier stage did not run,
// at the current ones, which the response reports.
func (s *Site) handleSel(req *SelStageReq) (*SelStageResp, error) {
	q, err := s.query(req.Query, req.NumFrags)
	if err != nil {
		return nil, err
	}
	frags, err := s.read(req.Frags, req.Versions)
	if err != nil {
		return nil, err
	}
	env, err := virtualEnv(q.vs, req.VirtualQuals)
	if err != nil {
		return nil, err
	}
	cr, err := s.selectFrags(q, frags, req.Inits, req.ShipXML, req.Stitch, env)
	if err != nil {
		return nil, err
	}
	resp := &SelStageResp{Contexts: cr.Contexts, Answers: cr.Answers, Candidates: cr.Candidates, Below: cr.Below}
	if len(req.Versions) == 0 {
		resp.Versions = make([]WireVersion, len(frags))
		for i, f := range frags {
			resp.Versions[i] = WireVersion{Frag: f.ID, Version: f.Version}
		}
	}
	return resp, nil
}

// handleCombined runs PaX2 Stage 1 over the current version of each
// requested fragment: per fragment, the Stage-1 mask pass and the
// selection traversal in one visit.
func (s *Site) handleCombined(req *CombinedStageReq) (*CombinedStageResp, error) {
	q, err := s.query(req.Query, req.NumFrags)
	if err != nil {
		return nil, err
	}
	frags, err := s.read(req.Frags, nil)
	if err != nil {
		return nil, err
	}
	return s.selectFrags(q, frags, req.Inits, req.ShipXML, req.Stitch, nil)
}

// handleCollect runs PaX3 Stage 3 / PaX2 Stage 2: walk the
// candidate-bearing fragments again under their ground inits and the
// ground qualifier values of their sub-fragments, shipping their answers,
// and ship the requested fragment bodies in their cached file form, each
// fragment read at the version the request names for it.
func (s *Site) handleCollect(req *AnsStageReq) (*AnsStageResp, error) {
	fs := s.snapshot()
	resp := &AnsStageResp{}
	if len(req.Inits) > 0 {
		q, err := s.query(req.Query, req.NumFrags)
		if err != nil {
			return nil, err
		}
		frags := make([]*fragment.Fragment, len(req.Inits))
		for i, in := range req.Inits {
			if slices.ContainsFunc(req.Inits[:i], func(prev WireInit) bool { return prev.Frag == in.Frag }) {
				return nil, fmt.Errorf("pax: site %d: two init vectors for fragment %d: %w", s.id, in.Frag, boolexpr.ErrInconsistent)
			}
			if frags[i], err = fs.pinned(in.Frag, req.Versions); err != nil {
				return nil, fmt.Errorf("pax: site %d: %w", s.id, err)
			}
		}
		env, err := virtualEnv(q.vs, req.Quals)
		if err != nil {
			return nil, err
		}
		sel, err := s.selectFrags(q, frags, req.Inits, req.ShipXML, false, env)
		if err != nil {
			return nil, err
		}
		if len(sel.Candidates) > 0 {
			// The coordinator's request failed to ground an answer —
			// missing qualifier values. A protocol error, not a site panic.
			return nil, fmt.Errorf("pax: site %d: an answer in fragment %d is not ground under the supplied values", s.id, sel.Candidates[0])
		}
		resp.Answers = sel.Answers
	}
	for _, id := range req.Bodies {
		f, err := fs.pinned(id, req.Versions)
		if err != nil {
			return nil, fmt.Errorf("pax: site %d: %w", s.id, err)
		}
		resp.Bodies = append(resp.Bodies, WireFragment{ID: id, XML: f.XML()})
	}
	return resp, nil
}

// Restart wipes every piece of state a process restart would lose: the
// compiled-query cache, Stage-1 memos included, and the previous version
// of each fragment — a fresh process loads only the current ones. The
// fault harness calls this when a simulated kill schedule "restarts" an
// in-process site; a query whose later stage names a version the site
// lost fails with ErrVersionSkew, and its coordinator runs it again.
func (s *Site) Restart() {
	s.mu.Lock()
	s.frags = &fragSet{byID: s.frags.byID, ids: s.frags.ids}
	s.mu.Unlock()
	s.compiled.Store(newLRU[string, *compiledQuery](defaultSiteCompileCache))
}

// handleFetch ships entire fragments (NaiveCentralized) from one fragment
// set, so a concurrent edit yields either the pre- or the post-edit version
// of every fragment — never a torn read.
func (s *Site) handleFetch() (*FetchResp, error) {
	fs := s.snapshot()
	resp := &FetchResp{}
	for _, fid := range fs.ids {
		resp.Frags = append(resp.Frags, WireFragment{ID: fid, XML: fs.byID[fid].XML()})
	}
	return resp, nil
}

// handleEdit applies one fragment edit to the site's hosted copy. The new
// fragment set, in which the edited version becomes the fragment's
// previous one, is swapped in under s.mu, the lock every request reads the
// set under, so a request observes either the pre-edit set or the
// post-edit one, atomically. The copy-on-write apply itself, and the parse
// of an inserted subtree, run outside the lock, so requests never wait
// behind them; a request already running keeps evaluating its snapshot's
// fragments untouched.
//
// Version semantics (see EditReq): a fragment at BaseVersion applies; one
// already at BaseVersion+1 reports success without re-applying — the
// idempotent-retry case, safe because the engine serializes edits, so the
// only edit that can have moved the fragment to BaseVersion+1 is this very
// one, delivered by an earlier attempt whose response was lost; any other
// version is a conflict. The switch runs on the fragment read before the
// apply and, when the fragment was swapped while the apply ran (a
// concurrent delivery of the same edit won), again on the one that
// replaced it.
func (s *Site) handleEdit(req *EditReq) (*EditResp, error) {
	f, err := s.snapshot().current(req.Frag)
	if err != nil {
		return nil, fmt.Errorf("pax: site %d: %w", s.id, err)
	}
	if f.Version != req.BaseVersion {
		return s.editNotApplied(req, f)
	}
	e, err := req.toEdit()
	if err != nil {
		return nil, fmt.Errorf("pax: site %d: %w", s.id, err)
	}
	nf, err := f.ApplyEdit(e)
	if err != nil {
		return nil, fmt.Errorf("pax: site %d: %w", s.id, err)
	}
	s.mu.Lock()
	if cur := s.frags.byID[req.Frag]; cur != f {
		s.mu.Unlock()
		return s.editNotApplied(req, cur)
	}
	s.frags = s.frags.with(nf)
	s.mu.Unlock()
	return &EditResp{NewVersion: nf.Version, Applied: true}, nil
}

// editNotApplied answers an edit that found fragment f at a version other
// than its BaseVersion: the idempotent ack when f is at BaseVersion+1,
// ErrEditConflict otherwise.
func (s *Site) editNotApplied(req *EditReq, f *fragment.Fragment) (*EditResp, error) {
	if f.Version != req.BaseVersion+1 {
		return nil, fmt.Errorf("pax: site %d: fragment %d is at version %d, edit issued against base %d: %w",
			s.id, req.Frag, f.Version, req.BaseVersion, ErrEditConflict)
	}
	return &EditResp{NewVersion: f.Version}, nil
}
