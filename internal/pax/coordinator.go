package pax

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"paxq/internal/boolexpr"
	"paxq/internal/dist"
	"paxq/internal/fragment"
	"paxq/internal/parbox"
	"paxq/internal/xpath"
)

// Algorithm selects the evaluation strategy.
type Algorithm int

// Available algorithms.
const (
	PaX3 Algorithm = iota
	PaX2
	Naive
)

func (a Algorithm) String() string {
	switch a {
	case PaX3:
		return "PaX3"
	case PaX2:
		return "PaX2"
	case Naive:
		return "NaiveCentralized"
	}
	return fmt.Sprintf("Algorithm(%d)", int(a))
}

// Options tune an evaluation.
type Options struct {
	Algorithm   Algorithm
	Annotations bool // the §5 XA optimization
	ShipXML     bool // ship serialized answer subtrees, not just values

	// Sequential issues each stage's site calls one at a time instead of
	// concurrently. Per-site computation times then do not overlap, so the
	// ParallelCompute metric (max per-site computation per stage — the
	// paper's parallel computation cost) is measured cleanly even on a
	// single-core host. Wall time stops being meaningful as a parallel
	// cost in this mode; use ParallelCompute.
	Sequential bool
}

// Result reports the answer and the cost profile of one evaluation. Every
// cost field is attributed strictly to this evaluation's own site calls —
// concurrent evaluations on the same engine never bleed into each other's
// Results.
type Result struct {
	Answers []AnswerNode

	Stages     int             // coordinator→sites stage rounds executed
	StageWall  []time.Duration // wall time of each stage
	StageBytes []int64         // wire bytes (both directions) per stage
	// StageCompute is the summed per-site computation time of each stage —
	// the site-side cost of that stage alone, independent of coordinator
	// wall time and transport latency.
	StageCompute []time.Duration
	Wall         time.Duration // total wall time at the coordinator
	TotalCompute time.Duration // Σ per-site computation (total cost)
	// ParallelCompute is the paper's parallel computation cost: the sum
	// over stages of the maximum per-site computation in that stage — the
	// perceived evaluation time on a cluster with one machine per site.
	// Measured cleanly when Options.Sequential is set.
	ParallelCompute time.Duration
	MaxVisits       int   // max per-site visits (≤3 PaX3, ≤2 PaX2; see the failover bound below)
	BytesSent       int64 // coordinator → sites
	BytesRecv       int64 // sites → coordinator
	RelevantFrags   int   // fragments that participated
	TotalFrags      int
	// Retries counts stage calls of this query that the failover layer
	// attempted again after a retriable failure; Failovers counts how many
	// of those rotated to a different replica. Both are 0 on a fault-free
	// run, where MaxVisits obeys the paper's exact bound B (3 for PaX3, 2
	// for PaX2, 1 for Boolean/Naive). Each retry re-establishes at most
	// one site by replaying at most B-1 prior stages plus the retried
	// call, so under faults MaxVisits ≤ B·(1 + Retries) — the documented
	// replica visit bound the fault harness asserts.
	Retries   int
	Failovers int
}

// Engine is the coordinator (the querying site S_Q of the paper).
//
// An Engine is safe for concurrent use: any number of Runs (and
// RunBooleans) may be in flight at once over one cluster. Each run carries
// a private cost ledger fed by the per-call costs the transport reports,
// so the guarantees the Result asserts — visit counts, byte totals,
// computation times — hold per query even under concurrent load. Compiled
// plans are cached per (query, annotations) and shared between runs.
//
// An Engine optionally enforces admission control (WithMaxInFlight): when
// the in-flight limit is reached, new evaluations are shed immediately
// with ErrOverloaded, or — with WithQueueTimeout — queue for a bounded
// time before being shed. Either way the outcome under overload is
// deterministic and explicit; no site ever discards another query's state
// to make room.
type Engine struct {
	topo  *Topology
	tr    dist.Transport
	qid   atomic.Uint64
	plans *lru[planKey, *plan]
	// planCompiles counts plan-cache fills — a test hook for the
	// single-compile-under-concurrent-miss and shed-before-plan guarantees.
	planCompiles atomic.Int64

	inflight     chan struct{} // admission slots; nil = unlimited
	queueTimeout time.Duration

	// batch, when non-nil, coalesces concurrent stage calls to one site
	// into batch envelopes (WithBatchWindow). Nil = batching off.
	batch       *batcher
	batchWindow time.Duration
	maxBatch    int

	// retry is the failover policy (WithRetryPolicy); the lifetime
	// counters below feed FailoverStats.
	retry         RetryPolicy
	retries       atomic.Int64
	failovers     atomic.Int64
	deadSites     atomic.Int64
	reestablished atomic.Int64

	// editMu serializes ApplyEdit calls engine-wide — the version protocol
	// (BaseVersion applies, BaseVersion+1 acks idempotently) is only sound
	// for a serial edit history. editVersions tracks each fragment's current
	// version as this engine has advanced it, seeded lazily from the
	// topology's fragmentation; both are guarded by editMu.
	editMu       sync.Mutex
	editVersions map[fragment.FragID]uint64
}

// EngineOption configures an Engine at construction.
type EngineOption func(*Engine)

// WithMaxInFlight bounds the number of concurrently admitted evaluations.
// Beyond the bound, Run sheds with ErrOverloaded (or queues, see
// WithQueueTimeout). n <= 0 means unlimited.
func WithMaxInFlight(n int) EngineOption {
	return func(e *Engine) {
		if n > 0 {
			e.inflight = make(chan struct{}, n)
		} else {
			e.inflight = nil
		}
	}
}

// WithQueueTimeout switches admission from immediate shedding to
// queue-with-deadline: an evaluation arriving at a full engine waits up to
// d for a slot, then fails with ErrOverloaded. The run's own context
// deadline still applies while queued. Meaningful only together with
// WithMaxInFlight.
func WithQueueTimeout(d time.Duration) EngineOption {
	return func(e *Engine) { e.queueTimeout = d }
}

// NewEngine creates a coordinator over a topology and a transport.
func NewEngine(topo *Topology, tr dist.Transport, opts ...EngineOption) *Engine {
	e := &Engine{topo: topo, tr: tr, plans: newLRU[planKey, *plan](defaultPlanCache)}
	for _, o := range opts {
		o(e)
	}
	if e.retry.MaxAttempts == 0 {
		// No explicit policy: replicated fleets fail over by default;
		// unreplicated ones keep the exact single-attempt semantics they
		// had before the failover layer existed.
		if topo.Replicated() {
			e.retry = DefaultRetryPolicy
		} else {
			e.retry = RetryPolicy{MaxAttempts: 1}
		}
	}
	if e.batchWindow > 0 {
		e.batch = newBatcher(tr, e.batchWindow, e.maxBatch)
	}
	return e
}

// admit claims an in-flight slot, shedding or queueing per configuration.
// It returns the release function, or an error that already identifies
// why admission failed (ErrOverloaded or the context's error). A context
// that is already dead fails admission with the context's error before a
// slot is claimed — an abandoned query must neither occupy a slot another
// query could use nor be misreported as overload.
func (e *Engine) admit(ctx context.Context) (func(), error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if e.inflight == nil {
		return func() {}, nil
	}
	select {
	case e.inflight <- struct{}{}:
		return func() { <-e.inflight }, nil
	default:
	}
	if e.queueTimeout <= 0 {
		return nil, fmt.Errorf("%w: %d evaluations in flight, shedding", ErrOverloaded, cap(e.inflight))
	}
	timer := time.NewTimer(e.queueTimeout)
	defer timer.Stop()
	select {
	case e.inflight <- struct{}{}:
		return func() { <-e.inflight }, nil
	case <-timer.C:
		return nil, fmt.Errorf("%w: no slot within the %v queue deadline", ErrOverloaded, e.queueTimeout)
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// plan returns the cached compiled plan for (query, annotations),
// compiling and analyzing on a miss. Concurrent first-time misses of one
// key compile once and share the result (lru.do).
func (e *Engine) plan(query string, annotations bool) (*plan, error) {
	key := planKey{query: query, annotations: annotations}
	return e.plans.do(key, func() (*plan, error) {
		e.planCompiles.Add(1)
		c, err := xpath.Compile(query)
		if err != nil {
			return nil, err
		}
		p := &plan{c: c}
		if annotations {
			p.rel = AnalyzeRelevance(e.topo.FT, c)
		} else {
			p.rel = allRelevant(e.topo.FT)
		}
		return p, nil
	})
}

// RunContext evaluates query under the given options, bounded by ctx: the
// deadline (or cancellation) covers admission queueing and every site
// round trip, and is propagated through the transport so a slow or hung
// site fails the query instead of wedging the caller. Runs may be issued
// concurrently; each Result's cost profile is attributed to its own query
// alone. Malformed or inconsistent site responses surface as errors, never
// as coordinator panics. Under admission control, a full engine sheds or
// queues per configuration; both outcomes surface as ErrOverloaded.
func (e *Engine) RunContext(ctx context.Context, query string, opts Options) (res *Result, err error) {
	// Admission strictly precedes planning: a query the overload controller
	// sheds must cost nothing — no compilation, no relevance analysis, no
	// plan-cache churn — under exactly the load admission control exists for.
	release, aerr := e.admit(ctx)
	if aerr != nil {
		return nil, aerr
	}
	defer release()
	p, perr := e.plan(query, opts.Annotations)
	if perr != nil {
		return nil, perr
	}
	// Resolution panics on invariant violations that only corrupt remote
	// data can produce (cyclic binding chains). A serving coordinator must
	// degrade them to a failed query, not die.
	defer func() {
		if r := recover(); r != nil {
			res, err = nil, inconsistentError(query, r)
		}
	}()
	usage := dist.NewMetrics()
	rt := e.newRoute()
	start := time.Now()
	switch opts.Algorithm {
	case PaX3:
		res, err = e.runPaX3(ctx, query, p, opts, usage, rt)
	case PaX2:
		res, err = e.runPaX2(ctx, query, p, opts, usage, rt)
	case Naive:
		res, err = e.runNaive(ctx, p.c, opts, usage, rt)
	default:
		return nil, fmt.Errorf("pax: unknown algorithm %v", opts.Algorithm)
	}
	if err != nil {
		return nil, err
	}
	res.Wall = time.Since(start)
	retries, failovers := rt.counters()
	res.Retries, res.Failovers = int(retries), int(failovers)
	e.finishResult(res, usage)
	sortAnswers(res.Answers)
	return res, nil
}

// finishResult folds the run's private ledger into its Result.
func (e *Engine) finishResult(res *Result, usage *dist.Metrics) {
	res.TotalCompute = usage.TotalCompute()
	res.MaxVisits = usage.MaxVisits()
	res.BytesSent, res.BytesRecv = usage.Bytes()
	res.TotalFrags = e.topo.FT.Len()
}

func sortAnswers(ans []AnswerNode) {
	sort.Slice(ans, func(i, j int) bool {
		if ans[i].Frag != ans[j].Frag {
			return ans[i].Frag < ans[j].Frag
		}
		return ans[i].Node < ans[j].Node
	})
}

// relevantFragsBySite groups the relevant fragments by hosting site.
func (e *Engine) relevantFragsBySite(rel *Relevance) map[dist.SiteID][]fragment.FragID {
	out := make(map[dist.SiteID][]fragment.FragID)
	for i, ok := range rel.Relevant {
		if !ok {
			continue
		}
		fid := fragment.FragID(i)
		site := e.topo.SiteOf[fid]
		out[site] = append(out[site], fid)
	}
	return out
}

// stage runs one round against the sites with non-nil requests — in
// parallel normally, one at a time in Sequential mode — charging every
// completed call to the run's private usage ledger and recording the
// stage's wall time, wire bytes and parallel computation cost (the
// maximum per-site computation, §3.4) in res.
//
// With a non-nil route the round fans out over the topology's primaries
// through the failover layer: each logical call may retry against the
// group's replicas, and every completed physical call — replays and
// failed attempts included — is charged to the query's ledger. That is
// the ledger attribution rule for aborted calls: an aborted call's bytes
// and compute belong to the query that caused them, so Σ per-query stays
// equal to the transport lifetime totals even when queries fail over
// (paxlint's ledger analyzer keeps shared-counter reads out of this
// path, and the fault harness checks the sum exactly).
func (e *Engine) stage(ctx context.Context, res *Result, usage *dist.Metrics, seq bool, rt *runRoute, mk func(dist.SiteID) any) (map[dist.SiteID]any, error) {
	sites := e.topo.Sites()
	t0 := time.Now()
	var resps map[dist.SiteID]any
	var charged []attrCost
	var err error
	if rt != nil {
		resps, charged, err = rt.broadcast(ctx, seq, mk)
	} else if seq {
		resps = make(map[dist.SiteID]any)
		for _, id := range sites {
			req := mk(id)
			if req == nil {
				continue
			}
			r, cost, cerr := e.tr.Call(ctx, id, req)
			if cost != (dist.CallCost{}) {
				charged = append(charged, attrCost{site: id, cost: cost})
			}
			if cerr != nil {
				err = fmt.Errorf("pax: site %d: %w", id, cerr)
				break
			}
			resps[id] = r
		}
	} else {
		var costs map[dist.SiteID]dist.CallCost
		if e.batch != nil {
			// Batching engines route concurrent stage rounds through the
			// per-site coalescing window; semantics (request construction,
			// error selection, cost charging) mirror dist.Broadcast exactly.
			resps, costs, err = e.batch.broadcast(ctx, sites, mk)
		} else {
			resps, costs, err = dist.Broadcast(ctx, e.tr, sites, mk)
		}
		for site, c := range costs {
			charged = append(charged, attrCost{site: site, cost: c})
		}
	}
	// Even a failed stage's completed calls are this query's cost.
	var maxCompute, sumCompute time.Duration
	var stageBytes int64
	for _, ac := range charged {
		usage.Add(ac.site, ac.cost)
		if ac.cost.Compute > maxCompute {
			maxCompute = ac.cost.Compute
		}
		sumCompute += ac.cost.Compute
		stageBytes += ac.cost.Sent + ac.cost.Recv
	}
	if err != nil {
		return nil, err
	}
	res.ParallelCompute += maxCompute
	res.Stages++
	res.StageWall = append(res.StageWall, time.Since(t0))
	res.StageBytes = append(res.StageBytes, stageBytes)
	res.StageCompute = append(res.StageCompute, sumCompute)
	return resps, nil
}

// decodeRoots collects root vectors from stage responses.
func decodeRoots(wire []WireRootVecs, into map[fragment.FragID]parbox.RootVecs) error {
	for _, rv := range wire {
		qv, err := boolexpr.DecodeVec(rv.QV)
		if err != nil {
			return fmt.Errorf("pax: fragment %d QV: %w", rv.Frag, err)
		}
		qdv, err := boolexpr.DecodeVec(rv.QDV)
		if err != nil {
			return fmt.Errorf("pax: fragment %d QDV: %w", rv.Frag, err)
		}
		into[rv.Frag] = parbox.RootVecs{QV: qv, QDV: qdv}
	}
	return nil
}

// groundQualsFor extracts, for each fragment in frags, the ground qualifier
// values of its sub-fragments from the unification environment. A
// non-ground value means a site's Stage-1 report was incomplete; that is
// the site's fault and becomes the query's error, not a coordinator panic.
func groundQualsFor(env *boolexpr.Env, vs parbox.VarScheme, ft *fragment.Fragmentation, frags []fragment.FragID) ([]WireBoolVals, error) {
	var out []WireBoolVals
	seen := make(map[fragment.FragID]bool)
	for _, fid := range frags {
		for _, child := range ft.Frag(fid).Virtuals() {
			if seen[child] {
				continue
			}
			seen[child] = true
			v := WireBoolVals{Frag: child, QV: make([]bool, vs.NumPreds), QDV: make([]bool, vs.NumPreds)}
			for p := 0; p < vs.NumPreds; p++ {
				qv, ok1 := env.Resolve(boolexpr.V(vs.QV(child, p))).IsConst()
				qdv, ok2 := env.Resolve(boolexpr.V(vs.QDV(child, p))).IsConst()
				if !ok1 || !ok2 {
					return nil, fmt.Errorf("pax: qualifier values of fragment %d not ground after unification", child)
				}
				v.QV[p], v.QDV[p] = qv, qdv
			}
			out = append(out, v)
		}
	}
	return out, nil
}

// resolveContexts performs the top-down half of Procedure evalFT: walk the
// fragment tree in ascending fragment order, grounding each sub-fragment's
// z variables from the context vector its parent fragment reported.
// Returns the ground init vector per fragment that has one.
func resolveContexts(env *boolexpr.Env, vs parbox.VarScheme, contexts []WireContext) (map[fragment.FragID][]bool, error) {
	decoded := make(map[fragment.FragID][]*boolexpr.Formula, len(contexts))
	for _, ctx := range contexts {
		sv, err := boolexpr.DecodeVec(ctx.SV)
		if err != nil {
			return nil, fmt.Errorf("pax: context for fragment %d: %w", ctx.Frag, err)
		}
		decoded[ctx.Frag] = sv
	}
	order := make([]fragment.FragID, 0, len(decoded))
	for fid := range decoded {
		order = append(order, fid)
	}
	sort.Slice(order, func(i, j int) bool { return order[i] < order[j] })
	out := make(map[fragment.FragID][]bool, len(order))
	for _, fid := range order {
		sv := decoded[fid]
		ground := make([]bool, len(sv))
		for i, f := range sv {
			r := env.Resolve(f)
			val, ok := r.IsConst()
			if !ok {
				return nil, fmt.Errorf("pax: context entry %d of fragment %d not ground: %v", i, fid, r)
			}
			ground[i] = val
			if err := env.BindConst(vs.SV(fid, i), val); err != nil {
				return nil, fmt.Errorf("pax: context entry %d of fragment %d: %w", i, fid, err)
			}
		}
		out[fid] = ground
	}
	return out, nil
}

// inconsistentError converts a recovered unification panic into a typed
// query error. boolexpr panics with error values wrapping
// boolexpr.ErrInconsistent; preserving their chain here lets callers
// classify corrupt-site failures with errors.Is.
func inconsistentError(query string, r any) error {
	if e, ok := r.(error); ok {
		return fmt.Errorf("pax: inconsistent site data for %q: %w", query, e)
	}
	return fmt.Errorf("pax: inconsistent site data for %q: %v", query, r)
}

// respAs asserts the response type of one site, degrading a mismatch — a
// confused or hostile site — to a query error.
func respAs[T any](site dist.SiteID, r any, stage string) (T, error) {
	v, ok := r.(T)
	if !ok {
		var zero T
		return zero, fmt.Errorf("pax: site %d: unexpected %T response to %s stage", site, r, stage)
	}
	return v, nil
}

// runPaX3 is Procedure PaX3 of Fig. 4(a).
func (e *Engine) runPaX3(ctx context.Context, query string, p *plan, opts Options, usage *dist.Metrics, rt *runRoute) (*Result, error) {
	res := &Result{}
	c := p.c
	ft := e.topo.FT
	vs := parbox.NewVarScheme(c, ft.Len())
	rel := p.rel
	res.RelevantFrags = rel.NumRelevant()
	if res.RelevantFrags == 0 {
		return res, nil // nothing can match anywhere
	}
	relBySite := e.relevantFragsBySite(rel)
	hasQual := c.HasQualifiers()
	qid := QueryID(e.qid.Add(1))

	// Stage 1: qualifier evaluation over ALL fragments (qualifier data may
	// live anywhere), skipped entirely for qualifier-free queries.
	var env *boolexpr.Env
	if hasQual {
		resps, err := e.stage(ctx, res, usage, opts.Sequential, rt, func(site dist.SiteID) any {
			// A site hosting only pruned fragments sees no later stage.
			return &QualStageReq{QID: qid, Query: query, NumFrags: int32(ft.Len()), Final: len(relBySite[site]) == 0}
		})
		if err != nil {
			return nil, err
		}
		roots := make(map[fragment.FragID]parbox.RootVecs, ft.Len())
		for site, r := range resps {
			qr, err := respAs[*QualStageResp](site, r, "qualifier")
			if err != nil {
				return nil, err
			}
			if err := decodeRoots(qr.Roots, roots); err != nil {
				return nil, err
			}
		}
		env, err = parbox.ResolveQualVars(roots, vs)
		if err != nil {
			return nil, err
		}
	} else {
		env = boolexpr.NewEnv()
	}

	// Stage 2: selection-path evaluation over the relevant fragments. The
	// requests are built up front so malformed Stage-1 data fails the
	// query before any site is visited again.
	var inits []WireInit
	if rel.Exact && opts.Annotations {
		for i, ok := range rel.Relevant {
			if ok {
				inits = append(inits, WireInit{Frag: fragment.FragID(i), SV: rel.Inits[i]})
			}
		}
	}
	selReqs := make(map[dist.SiteID]any)
	for _, site := range e.topo.Sites() {
		frags := relBySite[site]
		if len(frags) == 0 {
			continue
		}
		req := &SelStageReq{QID: qid, Query: query, NumFrags: int32(ft.Len()), Frags: frags, ShipXML: opts.ShipXML}
		if hasQual {
			vq, err := groundQualsFor(env, vs, ft, frags)
			if err != nil {
				return nil, err
			}
			req.VirtualQuals = vq
		}
		for _, in := range inits {
			if e.topo.SiteOf[in.Frag] == site {
				req.Inits = append(req.Inits, in)
			}
		}
		selReqs[site] = req
	}
	resps, err := e.stage(ctx, res, usage, opts.Sequential, rt, func(site dist.SiteID) any { return selReqs[site] })
	if err != nil {
		return nil, err
	}
	var contexts []WireContext
	candFrags := make(map[fragment.FragID]bool)
	for site, r := range resps {
		sr, err := respAs[*SelStageResp](site, r, "selection")
		if err != nil {
			return nil, err
		}
		res.Answers = append(res.Answers, sr.Answers...)
		contexts = append(contexts, sr.Contexts...)
		for _, fid := range sr.Candidates {
			candFrags[fid] = true
		}
	}
	if len(candFrags) == 0 {
		return res, nil // Stage 3 unnecessary (e.g. XA with no qualifiers)
	}

	// evalFT, top-down half: ground the z variables.
	ground, err := resolveContexts(env, vs, contexts)
	if err != nil {
		return nil, err
	}

	// Stage 3: resolve candidates where they live. A candidate can only
	// exist in a fragment seeded with z variables, whose parent necessarily
	// reported a context — a candidate without one is a malformed site
	// response and fails the query up front.
	ansReqs := make(map[dist.SiteID]any)
	for _, site := range e.topo.Sites() {
		var req *AnsStageReq
		for _, fid := range relBySite[site] {
			if !candFrags[fid] {
				continue
			}
			sv, ok := ground[fid]
			if !ok {
				return nil, fmt.Errorf("pax: site %d reported candidate fragment %d without a ground context", site, fid)
			}
			if req == nil {
				req = &AnsStageReq{QID: qid}
			}
			req.Inits = append(req.Inits, WireInit{Frag: fid, SV: sv})
		}
		if req != nil {
			ansReqs[site] = req
		}
	}
	resps, err = e.stage(ctx, res, usage, opts.Sequential, rt, func(site dist.SiteID) any { return ansReqs[site] })
	if err != nil {
		return nil, err
	}
	for site, r := range resps {
		ar, err := respAs[*AnsStageResp](site, r, "answer")
		if err != nil {
			return nil, err
		}
		res.Answers = append(res.Answers, ar.Answers...)
	}
	return res, nil
}

// runPaX2 is Procedure PaX2 of Fig. 5.
func (e *Engine) runPaX2(ctx context.Context, query string, p *plan, opts Options, usage *dist.Metrics, rt *runRoute) (*Result, error) {
	res := &Result{}
	c := p.c
	ft := e.topo.FT
	vs := parbox.NewVarScheme(c, ft.Len())
	rel := p.rel
	res.RelevantFrags = rel.NumRelevant()
	if res.RelevantFrags == 0 {
		return res, nil
	}
	relBySite := e.relevantFragsBySite(rel)
	hasQual := c.HasQualifiers()
	qid := QueryID(e.qid.Add(1))

	// Stage 1: combined traversal over the relevant fragments only (§5:
	// PaX2 uses the annotations to decide where the combined pass runs).
	var inits []WireInit
	if rel.Exact && opts.Annotations {
		for i, ok := range rel.Relevant {
			if ok {
				inits = append(inits, WireInit{Frag: fragment.FragID(i), SV: rel.Inits[i]})
			}
		}
	}
	resps, err := e.stage(ctx, res, usage, opts.Sequential, rt, func(site dist.SiteID) any {
		frags := relBySite[site]
		if len(frags) == 0 {
			return nil
		}
		req := &CombinedStageReq{QID: qid, Query: query, NumFrags: int32(ft.Len()), Frags: frags, ShipXML: opts.ShipXML}
		for _, in := range inits {
			if e.topo.SiteOf[in.Frag] == site {
				req.Inits = append(req.Inits, in)
			}
		}
		return req
	})
	if err != nil {
		return nil, err
	}
	roots := make(map[fragment.FragID]parbox.RootVecs, ft.Len())
	var contexts []WireContext
	candFrags := make(map[fragment.FragID]bool)
	for site, r := range resps {
		cr, err := respAs[*CombinedStageResp](site, r, "combined")
		if err != nil {
			return nil, err
		}
		if err := decodeRoots(cr.Roots, roots); err != nil {
			return nil, err
		}
		res.Answers = append(res.Answers, cr.Answers...)
		contexts = append(contexts, cr.Contexts...)
		for _, fid := range cr.Candidates {
			candFrags[fid] = true
		}
	}
	if len(candFrags) == 0 {
		return res, nil
	}

	// evalFT: bottom-up qualifier unification over the fragments that
	// participated, then top-down z grounding. With pruning, absent
	// fragments' variables may appear in non-live entries; resolution is
	// lenient there and strict where values are consumed.
	env := boolexpr.NewEnv()
	for id := fragment.FragID(ft.Len() - 1); id >= 0; id-- {
		rv, ok := roots[id]
		if !ok {
			continue // pruned fragment: its variables are never consumed
		}
		for p := 0; p < vs.NumPreds; p++ {
			if err := env.Bind(vs.QV(id, p), env.Resolve(rv.QV[p])); err != nil {
				return nil, fmt.Errorf("pax: unifying qualifier vector of fragment %d: %w", id, err)
			}
			if err := env.Bind(vs.QDV(id, p), env.Resolve(rv.QDV[p])); err != nil {
				return nil, fmt.Errorf("pax: unifying qualifier vector of fragment %d: %w", id, err)
			}
		}
	}
	ground, err := resolveContexts(env, vs, contexts)
	if err != nil {
		return nil, err
	}

	// Stage 2: resolve candidates; PaX2 candidates may mention both z and
	// sub-fragment qualifier variables. The root fragment ran with the
	// concrete document vector, so its candidates (which arise from
	// qualifiers awaiting sub-fragment data) get that vector as their
	// init. Any other candidate without a ground context is a malformed
	// site response and fails the query before the stage is issued.
	docBools := xpath.DocSelVector[bool](xpath.BoolAlg{}, c)
	ansReqs := make(map[dist.SiteID]any)
	for _, site := range e.topo.Sites() {
		var req *AnsStageReq
		var frags []fragment.FragID
		for _, fid := range relBySite[site] {
			if !candFrags[fid] {
				continue
			}
			sv, ok := ground[fid]
			if !ok {
				if fid != fragment.RootFrag {
					return nil, fmt.Errorf("pax: site %d reported candidate fragment %d without a ground context", site, fid)
				}
				sv = docBools
			}
			if req == nil {
				req = &AnsStageReq{QID: qid}
			}
			req.Inits = append(req.Inits, WireInit{Frag: fid, SV: sv})
			frags = append(frags, fid)
		}
		if req == nil {
			continue
		}
		if hasQual {
			req.Quals = groundQualsForPresent(env, vs, ft, frags, roots)
		}
		ansReqs[site] = req
	}
	resps, err = e.stage(ctx, res, usage, opts.Sequential, rt, func(site dist.SiteID) any { return ansReqs[site] })
	if err != nil {
		return nil, err
	}
	for site, r := range resps {
		ar, err := respAs[*AnsStageResp](site, r, "answer")
		if err != nil {
			return nil, err
		}
		res.Answers = append(res.Answers, ar.Answers...)
	}
	return res, nil
}

// groundQualsForPresent is groundQualsFor restricted to sub-fragments that
// actually participated (pruned ones have no bindings and are never needed
// by live candidate formulas).
func groundQualsForPresent(env *boolexpr.Env, vs parbox.VarScheme, ft *fragment.Fragmentation, frags []fragment.FragID, roots map[fragment.FragID]parbox.RootVecs) []WireBoolVals {
	var out []WireBoolVals
	seen := make(map[fragment.FragID]bool)
	for _, fid := range frags {
		for _, child := range ft.Frag(fid).Virtuals() {
			if seen[child] {
				continue
			}
			seen[child] = true
			if _, ok := roots[child]; !ok {
				continue
			}
			v := WireBoolVals{
				Frag:  child,
				QV:    make([]bool, vs.NumPreds),
				QDV:   make([]bool, vs.NumPreds),
				Known: make([]bool, vs.NumPreds),
			}
			for p := 0; p < vs.NumPreds; p++ {
				qv := env.Resolve(boolexpr.V(vs.QV(child, p)))
				qdv := env.Resolve(boolexpr.V(vs.QDV(child, p)))
				bv, ok1 := qv.IsConst()
				bd, ok2 := qdv.IsConst()
				if ok1 && ok2 {
					v.QV[p], v.QDV[p], v.Known[p] = bv, bd, true
				}
			}
			out = append(out, v)
		}
	}
	return out
}
