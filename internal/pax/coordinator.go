package pax

import (
	"cmp"
	"context"
	"fmt"
	"slices"
	"strings"
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
	Naive // the §3 baseline, for experiments and oracles; ParseAlgorithm refuses it
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

// ParseAlgorithm maps an algorithm name to its Algorithm: "pax2" (also
// the empty name, the default) or "pax3", in any case. It is the one
// parse behind the library's QueryOptions and the binaries' flags and
// requests, so none of them serves Naive: the §3 baseline is reachable
// only through Options, for the experiments and the tests.
func ParseAlgorithm(name string) (Algorithm, error) {
	switch strings.ToLower(name) {
	case "", "pax2":
		return PaX2, nil
	case "pax3":
		return PaX3, nil
	}
	return 0, fmt.Errorf("pax: unknown algorithm %q (want pax2 or pax3)", name)
}

// Options tune an evaluation.
type Options struct {
	Algorithm   Algorithm
	Annotations bool // the §5 XA optimization
	ShipXML     bool // ship serialized answer subtrees, not just values

	// Sequential issues each stage's site calls one at a time instead of
	// concurrently. EvalFromDisk runs under it to hold the §1 memory
	// bound: its sites load their fragment on each call, so one fragment
	// is in memory at a time. Per-site computation times then do not
	// overlap either, so the ParallelCompute metric (max per-site
	// computation per stage — the paper's parallel computation cost) is
	// measured cleanly even on a single-core host. Wall time stops being
	// meaningful as a parallel cost in this mode; use ParallelCompute.
	Sequential bool
}

// Result reports the answer and the cost profile of one evaluation. Every
// cost field is attributed strictly to this evaluation's own site calls —
// concurrent evaluations on the same engine never bleed into each other's
// Results.
type Result struct {
	// Answers are ordered by fragment, then by node within a fragment,
	// which is the fragment-local pre-order. RunContext places each
	// answer here once, from the record its site response carried; RunAs
	// places them in the caller's own slice instead and leaves this nil.
	Answers []AnswerNode
	// runs holds the answers as the responses carried them, one run per
	// response, until they are placed.
	runs [][]AnswerNode

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
	// SpeculativeBytes is the part of BytesRecv that shipped fragment
	// bodies no answer used: under ShipXML the final stage fetches the
	// bodies below candidates before they resolve, and those below
	// candidates that resolve false are not stitched into any answer.
	SpeculativeBytes int64
	RelevantFrags    int // fragments that participated
	TotalFrags       int
	// Retries counts the times the failover layer ran this query again
	// after a retriable stage failure; Failovers counts the replica groups
	// those re-runs rotated to a different member. Both are 0 on a
	// fault-free run, where MaxVisits obeys the paper's exact bound B (3
	// for PaX3, 2 for PaX2, 1 for Boolean/Naive). Each run visits a site
	// at most B times, so under faults MaxVisits ≤ B·(1 + Retries) — the
	// documented replica visit bound the fault harness asserts. The other
	// cost fields count every run's calls; the per-stage fields (Stages,
	// StageWall, StageBytes, StageCompute, ParallelCompute) describe the
	// run that answered.
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
// with ErrOverloaded. The outcome under overload is deterministic and
// explicit; no site ever discards another query's state to make room.
type Engine struct {
	topo  *Topology
	tr    dist.Transport
	qid   atomic.Uint64
	plans *lru[planKey, *plan]
	// planCompiles counts plan-cache fills — a test hook for the
	// single-compile-under-concurrent-miss and shed-before-plan guarantees.
	planCompiles atomic.Int64

	inflight chan struct{} // admission slots; nil = unlimited

	// maxAttempts is the failover attempt count (WithMaxAttempts); the
	// lifetime counters below feed FailoverStats.
	maxAttempts int
	retries     atomic.Int64
	failovers   atomic.Int64
	deadSites   atomic.Int64

	// editMu serializes ApplyEdit calls engine-wide — the version protocol
	// (BaseVersion applies, BaseVersion+1 acks idempotently) is only sound
	// for a serial edit history. editVersions tracks each fragment's current
	// version as this engine has advanced it, seeded lazily from the
	// topology's fragmentation; both are guarded by editMu.
	editMu       sync.Mutex
	editVersions map[fragment.FragID]uint64
	// gate holds each edit back until the queries that may name the
	// version it makes sites drop are done.
	gate queryGate
}

// EngineOption configures an Engine at construction.
type EngineOption func(*Engine)

// WithMaxInFlight bounds the number of concurrently admitted evaluations.
// Beyond the bound, Run sheds with ErrOverloaded at once. n <= 0 means
// unlimited.
func WithMaxInFlight(n int) EngineOption {
	return func(e *Engine) {
		if n > 0 {
			e.inflight = make(chan struct{}, n)
		} else {
			e.inflight = nil
		}
	}
}

// NewEngine creates a coordinator over a topology and a transport.
func NewEngine(topo *Topology, tr dist.Transport, opts ...EngineOption) *Engine {
	e := &Engine{topo: topo, tr: tr, plans: newLRU[planKey, *plan](defaultPlanCache)}
	e.gate.left.L = &e.gate.mu
	for _, o := range opts {
		o(e)
	}
	if e.maxAttempts <= 0 {
		// No explicit count: replicated fleets fail over by default, one
		// attempt per replica of a doubly-replicated group plus two for
		// transient faults; unreplicated ones keep the exact single-attempt
		// semantics they had before the failover layer existed.
		if topo.Replicated() {
			e.maxAttempts = 4
		} else {
			e.maxAttempts = 1
		}
	}
	return e
}

// admit claims an in-flight slot, or sheds when none is free.
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
		return nil, fmt.Errorf("%w: %d evaluations in flight, shedding", ErrOverloaded, cap(e.inflight))
	}
}

// plan returns the cached compiled plan for (query, annotations),
// compiling and analyzing on a miss. Concurrent first-time misses of one
// key compile once and share the result (lru.do).
func (e *Engine) plan(query string, annotations, shipXML bool) (*plan, error) {
	key := planKey{query: query, annotations: annotations, shipXML: shipXML}
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
		if shipXML {
			rel := p.rel
			if !annotations {
				rel = AnalyzeRelevance(e.topo.FT, c)
			}
			p.stitch = rel.Crossing
		}
		return p, nil
	})
}

// RunContext evaluates query under the given options, bounded by ctx: the
// deadline (or cancellation) covers every site round trip, and is
// propagated through the transport so a slow or hung site fails the query
// instead of wedging the caller. Runs may be issued concurrently; each
// Result's cost profile is attributed to its own query alone. Malformed or
// inconsistent site responses surface as errors, never as coordinator
// panics. Under admission control, a full engine sheds with ErrOverloaded.
func (e *Engine) RunContext(ctx context.Context, query string, opts Options) (*Result, error) {
	res, answers, err := RunAs(ctx, e, query, opts, answerNode, byNode)
	if err != nil {
		return nil, err
	}
	res.Answers = answers
	return res, nil
}

// RunAs is RunContext for a caller that keeps its answers as its own
// element type T. It places each answer once, built by as, straight into
// the slice it returns, in the order RunContext gives Result.Answers,
// which it leaves nil; cmpNode compares two answers of one fragment by
// node.
func RunAs[T any](ctx context.Context, e *Engine, query string, opts Options, as func(*AnswerNode) T, cmpNode func(a, b T) int) (*Result, []T, error) {
	res, err := e.evaluate(ctx, query, opts)
	if err != nil {
		return nil, nil, err
	}
	answers, err := placeAnswers(e.topo.FT.Len(), res.runs, as, cmpNode)
	res.runs = nil
	if err != nil {
		return nil, nil, err
	}
	return res, answers, nil
}

// evaluate runs the query to completion and returns its Result with the
// answers unplaced, in res.runs.
func (e *Engine) evaluate(ctx context.Context, query string, opts Options) (*Result, error) {
	return e.serve(ctx, query, opts, func(r *run, p *plan) (*Result, error) {
		switch opts.Algorithm {
		case PaX3, PaX2:
			return e.runPaX(ctx, r, query, p, opts)
		case Naive:
			return e.runNaive(ctx, r, p.c, opts)
		}
		return nil, fmt.Errorf("pax: unknown algorithm %v", opts.Algorithm)
	})
}

// serve is the one skeleton every query runs through, selecting or
// Boolean: admission, then the plan, then attempt — one evaluation of the
// query — under the failover retry loop, and the query's ledger folded
// into the Result of the attempt that answered.
func (e *Engine) serve(ctx context.Context, query string, opts Options, attempt func(*run, *plan) (*Result, error)) (res *Result, err error) {
	// Admission strictly precedes planning: a query the overload controller
	// sheds must cost nothing — no compilation, no relevance analysis, no
	// plan-cache churn — under exactly the load admission control exists for.
	release, aerr := e.admit(ctx)
	if aerr != nil {
		return nil, aerr
	}
	defer release()
	p, perr := e.plan(query, opts.Annotations, opts.ShipXML)
	if perr != nil {
		return nil, perr
	}
	// Resolution panics on invariant violations that only corrupt remote
	// data can produce (cyclic binding chains). A serving coordinator must
	// degrade them to a failed query, not die.
	defer func() {
		if rec := recover(); rec != nil {
			res, err = nil, inconsistentError(query, rec)
		}
	}()
	defer e.gate.leave(e.gate.enter())
	r := e.newRun(opts.Sequential)
	start := time.Now()
	err = r.retry(ctx, func() (err error) {
		res, err = attempt(r, p)
		return err
	})
	if err != nil {
		return nil, err
	}
	r.finish(res, start)
	return res, nil
}

// finish folds the query's private ledger and retry counts into the
// Result of its answering run.
func (r *run) finish(res *Result, start time.Time) {
	res.Wall = time.Since(start)
	res.Retries, res.Failovers = r.retries, r.failovers
	res.TotalCompute = r.usage.TotalCompute()
	res.MaxVisits = r.usage.MaxVisits()
	res.BytesSent, res.BytesRecv = r.usage.Bytes()
	res.TotalFrags = r.e.topo.FT.Len()
}

// answerNode and byNode place answers as the package's own AnswerNode.
func answerNode(a *AnswerNode) AnswerNode { return *a }

func byNode(a, b AnswerNode) int { return cmp.Compare(a.Node, b.Node) }

// placeAnswers is the one placement of a query's answers: it places the
// answers of runs, each built once by as, in one slice of their total
// size, ordered by fragment and then by node. It counts each of the
// nfrags fragments' answers, writes every answer into the next slot of
// its fragment's range, and sorts by node, with cmpNode, the ranges that
// need it. A site emits a fragment's answers in pre-order, which is node
// order, so a range filled from one ordered stretch of one run is in
// order already; a fragment whose answers arrive in two runs (the
// definite answers of the selection stage and the candidates the final
// stage resolves), or out of order, is sorted there. An answer naming a
// fragment outside the fragmentation is an inconsistent site response and
// fails the query.
func placeAnswers[T any](nfrags int, runs [][]AnswerNode, as func(*AnswerNode) T, cmpNode func(a, b T) int) ([]T, error) {
	// next[f] counts fragment f's answers, then is where its next one
	// goes; unsorted[f] marks a range to sort.
	var buf [64]int
	var sortBuf [64]bool
	var next []int
	var unsorted []bool
	if nfrags <= len(buf) {
		next, unsorted = buf[:nfrags], sortBuf[:nfrags]
	} else {
		next, unsorted = make([]int, nfrags), make([]bool, nfrags)
	}
	total := 0
	for _, run := range runs {
		for i := range run {
			f := run[i].Frag
			if f < 0 || int(f) >= nfrags {
				return nil, fmt.Errorf("pax: inconsistent site response: an answer in fragment %d, which is not one of the %d fragments", f, nfrags)
			}
			if next[f] > 0 && (i == 0 || run[i-1].Frag != f || run[i-1].Node > run[i].Node) {
				unsorted[f] = true
			}
			next[f]++
		}
		total += len(run)
	}
	if total == 0 {
		return nil, nil
	}
	at := 0
	for f, n := range next {
		next[f], at = at, at+n
	}
	out := make([]T, total)
	for _, run := range runs {
		for i := range run {
			f := run[i].Frag
			out[next[f]] = as(&run[i])
			next[f]++
		}
	}
	// Each next[f] is now the end of fragment f's range.
	lo := 0
	for f, hi := range next {
		if unsorted[f] {
			slices.SortFunc(out[lo:hi], cmpNode)
		}
		lo = hi
	}
	return out, nil
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

// fanOut is one stage round — the paper's unit of visits and parallel
// cost (§3.4): every primary with a non-nil request gets exactly one
// call, to the replica the route names for its group. mk runs over the
// primaries in order before any call is issued. The calls run
// concurrently, or one at a time under r.seq, which stops at the first
// failure. Every call that reached a site, failed ones included, is
// charged to r.usage at the site that served it, and its cost is listed
// in costs. Responses are keyed by primary, and those of the calls that
// succeeded are returned when others failed too; then the error is a
// *dist.BroadcastError naming the failing primaries in primary order,
// deterministic regardless of scheduling.
func (r *run) fanOut(ctx context.Context, primaries []dist.SiteID, mk func(dist.SiteID) any) (resps map[dist.SiteID]any, costs []dist.CallCost, err error) {
	type slot struct {
		primary, site dist.SiteID
		req, resp     any
		cost          dist.CallCost
		err           error
	}
	slots := make([]slot, 0, len(primaries))
	for _, p := range primaries {
		if req := mk(p); req != nil {
			slots = append(slots, slot{primary: p, site: r.replica(p), req: req})
		}
	}
	if r.seq {
		for i := range slots {
			s := &slots[i]
			if s.resp, s.cost, s.err = r.e.tr.Call(ctx, s.site, s.req); s.err != nil {
				slots = slots[:i+1]
				break
			}
		}
	} else {
		var wg sync.WaitGroup
		for i := range slots {
			s := &slots[i]
			wg.Add(1)
			go func() {
				defer wg.Done()
				s.resp, s.cost, s.err = r.e.tr.Call(ctx, s.site, s.req)
			}()
		}
		wg.Wait()
	}
	costs = make([]dist.CallCost, 0, len(slots))
	var failed []dist.SiteError
	resps = make(map[dist.SiteID]any, len(slots))
	for _, s := range slots {
		// A call that never reached a site costs nothing.
		if s.cost != (dist.CallCost{}) {
			r.usage.Add(s.site, s.cost)
			costs = append(costs, s.cost)
		}
		if s.err != nil {
			failed = append(failed, dist.SiteError{Site: s.primary, Err: s.err})
			continue
		}
		resps[s.primary] = s.resp
	}
	if failed != nil {
		return resps, costs, &dist.BroadcastError{Failures: failed}
	}
	return resps, costs, nil
}

// stage runs one round (fanOut) over the topology's primaries and records
// the stage's wall time, wire bytes and parallel computation cost (the
// maximum per-site computation, §3.4) in res. fanOut charges even a failed
// stage's completed calls: an aborted call's bytes and compute belong to
// the query that caused them, so Σ per-query stays equal to the transport
// lifetime totals even when queries fail over (paxlint's ledger analyzer
// keeps shared-counter reads out of this path, and the fault harness
// checks the sum exactly).
//
// The first stage of an attempt is its opening stage. When it fails, the
// next attempt keeps the responses of the groups that answered, and the
// versions they report, and calls only the groups that failed.
func (r *run) stage(ctx context.Context, res *Result, mk func(dist.SiteID) any) (map[dist.SiteID]any, error) {
	opening := res.Stages == 0
	if opening && r.opened != nil {
		mkAll := mk
		mk = func(p dist.SiteID) any {
			if _, ok := r.opened[p]; ok {
				return nil
			}
			return mkAll(p)
		}
	}
	t0 := time.Now()
	resps, costs, err := r.fanOut(ctx, r.e.topo.Primaries(), mk)
	if opening {
		for p, resp := range r.opened {
			resps[p] = resp
		}
		r.opened = nil
		if err != nil {
			r.opened = resps
		}
	}
	if err != nil {
		return nil, err
	}
	var maxCompute, sumCompute time.Duration
	var stageBytes int64
	for _, c := range costs {
		maxCompute = max(maxCompute, c.Compute)
		sumCompute += c.Compute
		stageBytes += c.Sent + c.Recv
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

// groundQuals extracts, for each fragment in frags, the qualifier values
// of its sub-fragments that reported root vectors in roots, ground under
// env. With known, an entry env leaves open is masked out in Known: under
// PaX2 with XA pruning an entry may depend on a pruned fragment, and no
// live formula consumes it. Without known (PaX3) Known stays nil: Stage 1
// read every fragment and parbox.ResolveQualVars grounded every entry.
func groundQuals(env *boolexpr.Env, vs parbox.VarScheme, ft *fragment.Fragmentation, frags []fragment.FragID, roots map[fragment.FragID]parbox.RootVecs, known bool) []WireBoolVals {
	var out []WireBoolVals
	seen := make(map[fragment.FragID]bool)
	for _, fid := range frags {
		for _, child := range ft.Frag(fid).Virtuals() {
			if _, ok := roots[child]; !ok || seen[child] {
				continue
			}
			seen[child] = true
			v := WireBoolVals{Frag: child, QV: make([]bool, vs.NumPreds), QDV: make([]bool, vs.NumPreds)}
			if known {
				v.Known = make([]bool, vs.NumPreds)
			}
			for p := 0; p < vs.NumPreds; p++ {
				qv, ok1 := env.Resolve(boolexpr.V(vs.QV(child, p))).IsConst()
				qdv, ok2 := env.Resolve(boolexpr.V(vs.QDV(child, p))).IsConst()
				if ok1 && ok2 {
					v.QV[p], v.QDV[p] = qv, qdv
					if known {
						v.Known[p] = true
					}
				}
			}
			out = append(out, v)
		}
	}
	return out
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
	slices.Sort(order)
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

// versions are the fragment versions a query's stages have read: the
// first stage that reads a fragment reports the version it read, and every
// later request of the query that reads the fragment names it, so the
// query answers at one version of each fragment.
type versions map[fragment.FragID]uint64

// record notes the versions a response reports.
func (vs versions) record(read []WireVersion) {
	for _, p := range read {
		vs[p.Frag] = p.Version
	}
}

// recordRoots notes the versions Stage-1 root vectors were computed on.
func (vs versions) recordRoots(roots []WireRootVecs) {
	for _, rv := range roots {
		vs[rv.Frag] = rv.Version
	}
}

// pin appends to pins the version of each fragment of frags that an
// earlier stage read.
func (vs versions) pin(pins []WireVersion, frags ...fragment.FragID) []WireVersion {
	for _, fid := range frags {
		if v, ok := vs[fid]; ok {
			pins = append(pins, WireVersion{Frag: fid, Version: v})
		}
	}
	return pins
}

// runPaX is Procedure PaX3 of Fig. 4(a) and Procedure PaX2 of Fig. 5,
// which differ in how they reach ground qualifier values. PaX3 runs the
// qualifier pass over every fragment first (Stage 1), unifies, and runs
// the selection pass over the relevant fragments with the values ground
// (Stage 2). PaX2 runs both passes in one combined visit of the relevant
// fragments (Stage 1), leaving the values symbolic in the sub-fragment
// variables, and unifies after it. From the selection responses on the two
// are one procedure: ground the z variables, then walk the
// candidate-bearing fragments again under ground values, and fetch the
// bodies below answers and candidates, in the final stage.
func (e *Engine) runPaX(ctx context.Context, r *run, query string, p *plan, opts Options) (*Result, error) {
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
	pax2 := opts.Algorithm == PaX2
	qid := r.qid
	numFrags := int32(ft.Len())
	vers := make(versions, ft.Len())
	var roots map[fragment.FragID]parbox.RootVecs // no Stage 1 under PaX3 without qualifiers
	if pax2 || hasQual {
		roots = make(map[fragment.FragID]parbox.RootVecs, ft.Len())
	}

	// PaX3 Stage 1: qualifier evaluation over ALL fragments (qualifier data
	// may live anywhere), skipped entirely for qualifier-free queries.
	var env *boolexpr.Env
	if !pax2 && hasQual {
		resps, err := r.stage(ctx, res, func(dist.SiteID) any {
			return &QualStageReq{QID: qid, Query: query, NumFrags: numFrags}
		})
		if err != nil {
			return nil, err
		}
		for site, resp := range resps {
			qr, err := respAs[*QualStageResp](site, resp, "qualifier")
			if err != nil {
				return nil, err
			}
			if err := decodeRoots(qr.Roots, roots); err != nil {
				return nil, err
			}
			vers.recordRoots(qr.Roots)
		}
		if env, err = parbox.ResolveQualVars(roots, vs); err != nil {
			return nil, err
		}
	}

	// The selection stage over the relevant fragments: PaX3 Stage 2, at
	// the versions Stage 1 read, or PaX2's combined Stage 1 (§5: PaX2 uses
	// the annotations to decide where the combined pass runs). Exact
	// annotations give each fragment a concrete init (XA).
	var inits []WireInit
	if rel.Exact && opts.Annotations {
		for i, ok := range rel.Relevant {
			if ok {
				inits = append(inits, WireInit{Frag: fragment.FragID(i), SV: rel.Inits[i]})
			}
		}
	}
	resps, err := r.stage(ctx, res, func(site dist.SiteID) any {
		frags := relBySite[site]
		if len(frags) == 0 {
			return nil
		}
		var siteInits []WireInit
		for _, in := range inits {
			if e.topo.SiteOf[in.Frag] == site {
				siteInits = append(siteInits, in)
			}
		}
		if pax2 {
			return &CombinedStageReq{QID: qid, Query: query, NumFrags: numFrags, Frags: frags, Inits: siteInits, ShipXML: opts.ShipXML, Stitch: p.stitch}
		}
		req := &SelStageReq{QID: qid, Query: query, NumFrags: numFrags, Frags: frags, Inits: siteInits, ShipXML: opts.ShipXML, Stitch: p.stitch}
		if hasQual {
			req.Versions = vers.pin(make([]WireVersion, 0, len(frags)), frags...)
			req.VirtualQuals = groundQuals(env, vs, ft, frags, roots, false)
		}
		return req
	})
	if err != nil {
		return nil, err
	}
	var contexts []WireContext
	var below []fragment.FragID
	candFrags := make(map[fragment.FragID]bool)
	// One answer run per response; finalStage leaves them in the result,
	// for RunAs to place.
	runs := make([][]AnswerNode, 0, 2*len(resps))
	for site, resp := range resps {
		var sr SelStageResp
		if pax2 {
			cr, err := respAs[*CombinedStageResp](site, resp, "combined")
			if err != nil {
				return nil, err
			}
			if err := decodeRoots(cr.Roots, roots); err != nil {
				return nil, err
			}
			vers.recordRoots(cr.Roots)
			sr = SelStageResp{Contexts: cr.Contexts, Answers: cr.Answers, Candidates: cr.Candidates, Below: cr.Below}
		} else {
			got, err := respAs[*SelStageResp](site, resp, "selection")
			if err != nil {
				return nil, err
			}
			vers.record(got.Versions)
			sr = *got
		}
		runs = append(runs, sr.Answers)
		contexts = append(contexts, sr.Contexts...)
		below = append(below, sr.Below...)
		for _, fid := range sr.Candidates {
			candFrags[fid] = true
		}
	}
	ansReqs := make(map[dist.SiteID]any)
	if len(candFrags) == 0 {
		// No candidate to resolve (e.g. XA with no qualifiers): the final
		// stage only fetches the bodies below answers, if any.
		return e.finalStage(ctx, r, res, ansReqs, below, vers, runs)
	}

	// evalFT: under PaX2, bottom-up qualifier unification over the
	// fragments that participated; then, under both, top-down z grounding.
	// With pruning, absent fragments' variables may appear in non-live
	// entries; resolution is lenient there and strict where values are
	// consumed.
	switch {
	case pax2:
		env = boolexpr.NewEnv()
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
	case !hasQual:
		env = boolexpr.NewEnv()
	}
	ground, err := resolveContexts(env, vs, contexts)
	if err != nil {
		return nil, err
	}

	// The final stage: walk the candidate-bearing fragments again under
	// ground inits and qualifier values, and fetch the bodies below answers
	// and candidates. A candidate can only exist in a fragment seeded with
	// z variables, whose parent necessarily reported a context, or, under
	// PaX2, in the root fragment: it ran with the concrete document vector,
	// so its candidates (which arise from qualifiers awaiting sub-fragment
	// data) get that vector as their init. Any other candidate without a
	// ground context is a malformed site response and fails the query
	// before the stage is issued.
	for _, site := range e.topo.Sites() {
		var req *AnsStageReq
		var frags []fragment.FragID
		for _, fid := range relBySite[site] {
			if !candFrags[fid] {
				continue
			}
			sv, ok := ground[fid]
			if !ok {
				if !pax2 || fid != fragment.RootFrag {
					return nil, fmt.Errorf("pax: site %d reported candidate fragment %d without a ground context", site, fid)
				}
				sv = xpath.DocSelVector[bool](xpath.BoolAlg{}, c)
			}
			if req == nil {
				req = &AnsStageReq{QID: qid, Query: query, NumFrags: numFrags, ShipXML: opts.ShipXML}
			}
			req.Inits = append(req.Inits, WireInit{Frag: fid, SV: sv})
			frags = append(frags, fid)
		}
		if req == nil {
			continue
		}
		req.Versions = vers.pin(make([]WireVersion, 0, len(frags)), frags...)
		if hasQual {
			req.Quals = groundQuals(env, vs, ft, frags, roots, pax2)
		}
		ansReqs[site] = req
	}
	return e.finalStage(ctx, r, res, ansReqs, below, vers, runs)
}
