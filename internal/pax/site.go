package pax

import (
	"fmt"
	"maps"
	"slices"
	"sync"
	"sync/atomic"
	"time"

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
// A Site serves any number of concurrent queries: per-query state lives in
// sessions keyed by QueryID, and compiled queries are cached and shared
// across sessions. One stage request evaluates its fragments one after
// another, in the handler's own goroutine: the site is the unit of
// parallelism, and the transport's measured handler time is the request's
// computation cost. A malformed or out-of-order stage request fails that
// request with an error through the transport; it never takes the site
// down.
type Site struct {
	id       dist.SiteID
	compiled *lru[string, compiledQuery]
	// compiles counts compile-cache fills; qualPasses counts full Stage-1
	// fragment sweeps. Test hooks for the single-compile and shared-batch
	// evaluation guarantees.
	compiles   atomic.Int64
	qualPasses atomic.Int64

	mu       sync.Mutex
	sessions map[QueryID]*session
	// frags is the site's current fragment set (guarded by mu). It is
	// immutable: an edit swaps in a new set, so a reader holding the
	// pointer keeps one consistent snapshot.
	frags *fragSet
}

// fragSet is one immutable snapshot of a site's hosted fragments: the
// fragments by ID and their IDs ascending. Two holders of the same pointer
// see the same fragment versions.
type fragSet struct {
	byID map[fragment.FragID]*fragment.Fragment
	ids  []fragment.FragID
}

// with returns a copy of fs in which nf replaces the fragment of its ID.
// The ID set is unchanged, so the copy shares fs's ID slice.
func (fs *fragSet) with(nf *fragment.Fragment) *fragSet {
	byID := maps.Clone(fs.byID)
	byID[nf.ID] = nf
	return &fragSet{byID: byID, ids: fs.ids}
}

// compiledQuery is what a site's compile cache holds: the immutable
// compilation plus its normal-form fingerprint, rendered once per query
// text. batchQuals groups batch members by the fingerprint, so textual
// variants of one query share one Stage-1 sweep.
type compiledQuery struct {
	c  *xpath.Compiled
	fp string
}

// session is the per-query state a site retains between visits.
type session struct {
	c *xpath.Compiled
	// fp is the compiled query's normal-form fingerprint, carried from
	// the compile cache: batched Stage-1 members group by it.
	fp string
	vs parbox.VarScheme
	// frags is the site's fragment set at session creation. Every stage of
	// the query evaluates it, so a fragment edit landing between stages can
	// never mix versions within one query's answer: the edit swaps the
	// site's set, the session keeps the one it started with. Sessions
	// holding the same set evaluate the same fragment versions, so batched
	// Stage-1 members may share one sweep only when their sets match.
	frags *fragSet
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

// NewSite creates a site hosting the given fragments.
func NewSite(id dist.SiteID, frags []*fragment.Fragment) *Site {
	fs := &fragSet{byID: make(map[fragment.FragID]*fragment.Fragment, len(frags))}
	for _, f := range frags {
		fs.byID[f.ID] = f
	}
	fs.ids = slices.Sorted(maps.Keys(fs.byID))
	return &Site{
		id:       id,
		compiled: newLRU[string, compiledQuery](defaultSiteCompileCache),
		sessions: make(map[QueryID]*session),
		frags:    fs,
	}
}

// snapshot returns the site's current fragment set.
func (s *Site) snapshot() *fragSet {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.frags
}

// shipVec encodes a formula vector for the wire as it was built. Every
// formula a site ships comes from the one boolexpr.Builder of its (query,
// fragment) visit, which hash-conses as it builds, so the vectors are
// canonical by construction: the constructors' dedup, complement and
// absorption rules have already fired across every subtree the visit
// built twice, and no pass rebuilds them before shipping. A Builder per
// visit also keeps the output deterministic.
func shipVec(fs []*boolexpr.Formula) WireVec {
	return boolexpr.EncodeVec(fs)
}

// ID returns the site's identifier.
func (s *Site) ID() dist.SiteID { return s.id }

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
	// The query evaluates exactly the fragment set current now (read under
	// s.mu, the lock every edit swaps it under) in every stage, whatever
	// edits land meanwhile.
	sess := &session{
		c:        cq.c,
		fp:       cq.fp,
		vs:       parbox.NewVarScheme(cq.c, int(numFrags)),
		frags:    s.frags,
		lastUsed: now,
		qual:     make(map[fragment.FragID]*parbox.FragQual),
		cands:    make(map[fragment.FragID][]candidate),
	}
	s.sessions[qid] = sess
	return sess, nil
}

// evalFrags runs fn over frags one after another, in the caller's
// goroutine, passing each fragment's index in frags. The first failing
// fragment stops the walk. A panic inside fn degrades to that fragment's
// error, exactly as a handler panic degrades to a failed call at the
// transport, so inside a batch envelope it fails only its member.
func evalFrags(frags []fragment.FragID, fn func(i int, fid fragment.FragID) error) (err error) {
	var cur fragment.FragID
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("pax: fragment %d: panic: %v", cur, r)
		}
	}()
	for i, fid := range frags {
		cur = fid
		if err := fn(i, fid); err != nil {
			return err
		}
	}
	return nil
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
// wire-ready root vectors and the per-fragment qualifier state. roots and
// quals are immutable once built and may be shared by every session of one
// batch group.
type qualPassResult struct {
	frags []fragment.FragID
	roots []WireRootVecs
	quals []*parbox.FragQual // frags order
}

// shipRootVecs renders one fragment's Stage-1 result in wire form.
func shipRootVecs(fid fragment.FragID, f *fragment.Fragment, c *xpath.Compiled, fq *parbox.FragQual) WireRootVecs {
	rv := WireRootVecs{Frag: fid, QV: shipVec(fq.Root.QV), QDV: shipVec(fq.Root.QDV)}
	// The root fragment also reports its root node's selection-entry
	// qualifier values, enabling the one-visit ParBoX protocol for
	// Boolean queries.
	if fid == fragment.RootFrag && c.HasQualifiers() {
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

// qualPass runs the Stage-1 qualifier sweep over every fragment of the
// session's snapshot.
func (s *Site) qualPass(sess *session) (*qualPassResult, error) {
	s.qualPasses.Add(1)
	fs := sess.frags
	res := &qualPassResult{
		frags: fs.ids,
		roots: make([]WireRootVecs, len(fs.ids)),
		quals: make([]*parbox.FragQual, len(fs.ids)),
	}
	err := evalFrags(fs.ids, func(i int, fid fragment.FragID) error {
		f := fs.byID[fid]
		fq := parbox.Qualify(f, sess.c, sess.vs, &boolexpr.Builder{})
		res.roots[i], res.quals[i] = shipRootVecs(fid, f, sess.c, fq), fq
		return nil
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

// seed installs the sweep's per-fragment qualifier state into a session,
// sharing the immutable FragQuals.
func (p *qualPassResult) seed(sess *session) {
	for i, fid := range p.frags {
		sess.qual[fid] = p.quals[i]
	}
}

// handleQual runs PaX3 Stage 1 over every hosted fragment.
func (s *Site) handleQual(req *QualStageReq) (*QualStageResp, error) {
	sess, err := s.getSession(req.QID, req.Query, req.NumFrags)
	if err != nil {
		return nil, err
	}
	if req.Final {
		// No later stage will visit, so the session holds no candidates and
		// this always releases it.
		defer s.dropSessionIfDone(req.QID, sess)
	}
	pr, err := s.qualPass(sess)
	if err != nil {
		return nil, fmt.Errorf("pax: site %d: %w", s.id, err)
	}
	pr.seed(sess)
	return &QualStageResp{Roots: pr.roots}, nil
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
// with b: a concrete XA vector when supplied, the document vector for the
// root fragment, z variables otherwise.
func initFor(b *boolexpr.Builder, sess *session, fid fragment.FragID, inits []WireInit) ([]*boolexpr.Formula, error) {
	for _, in := range inits {
		if in.Frag == fid {
			if len(in.SV) != len(sess.c.Sel) {
				return nil, fmt.Errorf("pax: init vector for fragment %d has %d entries, want %d", fid, len(in.SV), len(sess.c.Sel))
			}
			return constInit(in.SV), nil
		}
	}
	if fid == fragment.RootFrag {
		return xpath.DocSelVector[*boolexpr.Formula](b, sess.c), nil
	}
	return zInit(b, sess.vs, fid, sess.c), nil
}

// selectFrags is the one selection path of both algorithms — PaX3 Stage 2
// and PaX2 Stage 1. It runs the selection traversal over frags and, once
// every fragment succeeded, folds the outcomes into response sections in
// frags order, keeping each fragment's candidates in the session for the final
// stage. With env, the traversal reads the Stage-1 state the session kept
// from PaX3 Stage 1, grounded under env, and releases it. With env nil it
// is PaX2's combined visit: each fragment's Stage-1 mask pass runs here,
// its qualifier values stay symbolic in the sub-fragment variables, and its
// root vectors ship beside its contexts. The sections come back in a
// CombinedStageResp, whose Roots only PaX2 ships. Under stitch it lists
// the sub-fragments below answers and candidates in Below.
func (s *Site) selectFrags(qid QueryID, sess *session, frags []fragment.FragID, inits []WireInit, shipXML, stitch bool, env *boolexpr.Env) (*CombinedStageResp, error) {
	outs := make([]combinedOutcome, len(frags))
	err := evalFrags(frags, func(i int, fid fragment.FragID) error {
		f, ok := sess.frags.byID[fid]
		if !ok {
			return fmt.Errorf("pax: site %d does not host fragment %d", s.id, fid)
		}
		// One Builder per (query, fragment) visit.
		b := &boolexpr.Builder{}
		init, err := initFor(b, sess, fid, inits)
		if err != nil {
			return err
		}
		if env == nil {
			outs[i] = *evalCombined(b, f, sess.c, sess.vs, init, shipXML)
			return nil
		}
		fq := sess.qual[fid]
		if fq == nil && sess.c.HasQualifiers() {
			// The selection stage consumes Stage-1 state; a qualified query
			// whose qualifier stage never ran here (or already ran its
			// selection stage) is a protocol violation by the coordinator —
			// an error for this request, never a site crash.
			return fmt.Errorf("pax: site %d: selection stage for fragment %d of query %d arrived out of order (no qualifier state)", s.id, fid, qid)
		}
		outs[i] = combinedOutcome{selOutcome: evalSelection(b, f, sess.c, init, shipXML, fq, env)}
		return nil
	})
	if err != nil {
		return nil, err
	}
	resp := &CombinedStageResp{}
	n := 0
	for i := range outs {
		n += len(outs[i].answers)
	}
	if n > 0 {
		resp.Answers = make([]AnswerNode, 0, n)
	}
	for i, fid := range frags {
		outc := outs[i]
		if env == nil {
			resp.Roots = append(resp.Roots, WireRootVecs{Frag: fid, QV: shipVec(outc.roots.QV), QDV: shipVec(outc.roots.QDV)})
		}
		for _, ctx := range outc.contexts {
			resp.Contexts = append(resp.Contexts, WireContext{Frag: ctx.frag, SV: shipVec(ctx.sv)})
		}
		resp.Answers = append(resp.Answers, outc.answers...)
		if stitch {
			resp.Below = append(resp.Below, outc.below...)
		}
		if len(outc.candidates) > 0 {
			sess.cands[fid] = outc.candidates
			resp.Candidates = append(resp.Candidates, fid)
		}
		delete(sess.qual, fid) // Stage-1 state is no longer needed
	}
	return resp, nil
}

// handleSel runs PaX3 Stage 2 over the requested fragments. The session
// outlives the stage if a candidate needs Stage 3 or, under Stitch, the
// final stage may ask for bodies from its snapshot.
func (s *Site) handleSel(req *SelStageReq) (*SelStageResp, error) {
	sess, err := s.getSession(req.QID, req.Query, req.NumFrags)
	if err != nil {
		return nil, err
	}
	sess.shipXML = req.ShipXML
	env, err := virtualEnv(sess.vs, req.VirtualQuals)
	if err != nil {
		return nil, err
	}
	cr, err := s.selectFrags(req.QID, sess, req.Frags, req.Inits, req.ShipXML, req.Stitch, env)
	if err != nil {
		return nil, err
	}
	if !req.Stitch {
		s.dropSessionIfDone(req.QID, sess)
	}
	return &SelStageResp{Contexts: cr.Contexts, Answers: cr.Answers, Candidates: cr.Candidates, Below: cr.Below}, nil
}

// handleCombined runs PaX2 Stage 1 over the requested fragments: per
// fragment, the Stage-1 mask pass and the selection traversal in one
// visit. The session outlives it as handleSel's does.
func (s *Site) handleCombined(req *CombinedStageReq) (*CombinedStageResp, error) {
	sess, err := s.getSession(req.QID, req.Query, req.NumFrags)
	if err != nil {
		return nil, err
	}
	sess.shipXML = req.ShipXML
	resp, err := s.selectFrags(req.QID, sess, req.Frags, req.Inits, req.ShipXML, req.Stitch, nil)
	if err != nil {
		return nil, err
	}
	if !req.Stitch {
		s.dropSessionIfDone(req.QID, sess)
	}
	return resp, nil
}

// handleCollect runs PaX3 Stage 3 / PaX2 Stage 2: resolve retained
// candidates against the ground z and qualifier values, and ship the
// requested fragment bodies in their cached file form, read from the
// query's snapshot. It is the query's last visit, so it releases the
// session.
func (s *Site) handleCollect(req *AnsStageReq) (*AnsStageResp, error) {
	sess, err := s.getSession(req.QID, req.Query, req.NumFrags)
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
	// Size the answers for every candidate resolving true: one allocation
	// instead of the doubling appends of thousands of answers.
	n := 0
	for _, in := range req.Inits {
		n += len(sess.cands[in.Frag])
	}
	resp := &AnsStageResp{Answers: make([]AnswerNode, 0, n)}
	for _, in := range req.Inits {
		f, ok := sess.frags.byID[in.Frag]
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
				resp.Answers = append(resp.Answers, answerOf(f, cand.node, sess.shipXML))
			}
		}
		delete(sess.cands, in.Frag)
	}
	for _, id := range req.Bodies {
		f, ok := sess.frags.byID[id]
		if !ok {
			return nil, fmt.Errorf("pax: site %d does not host fragment %d", s.id, id)
		}
		resp.Bodies = append(resp.Bodies, WireFragment{ID: id, XML: f.XML()})
	}
	s.dropSessionIfDone(req.QID, sess)
	return resp, nil
}

// Restart wipes every piece of state a process restart would lose: the
// per-query sessions, and nothing else that affects answers — the
// compiled-query cache is rebuildable, but a fresh process starts without
// it. The fault harness calls this when a simulated kill schedule
// "restarts" an in-process site; coordinators mid-query at this site will
// find their sessions gone and must re-establish (classifyStageError's
// in-place path).
func (s *Site) Restart() {
	s.mu.Lock()
	s.sessions = make(map[QueryID]*session)
	s.mu.Unlock()
	s.compiled = newLRU[string, compiledQuery](defaultSiteCompileCache)
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
// fragment set is swapped in under s.mu, the lock session creation reads
// the set under, so a query session observes either the pre-edit set or
// the post-edit one, atomically. The copy-on-write apply itself, and the
// parse of an inserted subtree, run outside the lock, so new sessions
// never wait behind them; in-flight sessions keep evaluating their
// snapshot's fragments untouched.
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
	f, ok := s.snapshot().byID[req.Frag]
	if !ok {
		return nil, fmt.Errorf("pax: site %d does not host fragment %d", s.id, req.Frag)
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
