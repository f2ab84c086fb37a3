// Coordinator-side multi-query stage batching. When an Engine is built
// WithBatchWindow, concurrent stage calls targeting the same site are
// coalesced: the first call to reach a site opens a window, later calls
// join it, and when the window elapses (or the batch fills, see
// WithMaxBatchSize) the whole group ships as one BatchStageReq envelope —
// one round trip per site per stage round instead of one per query. The
// site serves the envelope in a single visit, evaluating each distinct
// qualifier DAG once for all its members (Site.handleBatch), so under
// concurrent load both the per-round-trip overhead and the repeated
// Stage-1 sweeps amortize across queries.
//
// Per-query accounting survives batching exactly:
//
//   - The transport-measured cost of a batch round trip is split among the
//     members deterministically: Sent proportional to member request body
//     bytes, Recv proportional to member response body bytes, Compute
//     proportional to the members' self-reported computation (which the
//     site derived by splitting each shared sweep's time by the members'
//     owned qualifier-DAG work). Shares are integer floors with the
//     remainder going to the earliest members, so they sum EXACTLY to the
//     measured totals — the cost-conservation invariant (Σ per-query
//     ledgers == transport lifetime totals) holds on every batch path.
//   - A batch of one collapses to a direct transport call carrying the
//     original message under the caller's own context: wire bytes, visit
//     counts and error identity are byte-for-byte those of an unbatched
//     engine.
//   - A member whose context dies while its batch is in flight fails with
//     its context's error; the batch itself proceeds for the others, and
//     the abandoned member's cost share is simply not observed by its
//     caller — the same contract as a solo Call expiring mid-flight.
//
// Batching trades latency (up to one window per stage round) for
// throughput; it is off by default and opt-in per engine.

package pax

import (
	"context"
	"fmt"
	"math/bits"
	"sync"
	"time"

	"paxq/internal/dist"
)

// defaultMaxBatchSize caps a batch when WithBatchWindow is set without an
// explicit WithMaxBatchSize. Sized so a full batch still decodes eagerly
// site-side while amortizing most of the per-call overhead.
const defaultMaxBatchSize = 16

// WithBatchWindow enables multi-query batching: concurrent stage calls to
// one site coalesce for up to d before shipping as a single batch
// envelope. Off by default; d <= 0 disables. Sequential evaluations
// (Options.Sequential) bypass batching — they exist to measure per-site
// costs in isolation.
func WithBatchWindow(d time.Duration) EngineOption {
	return func(e *Engine) { e.batchWindow = d }
}

// WithMaxBatchSize caps how many stage calls one batch envelope may carry;
// a batch that fills flushes immediately instead of waiting out the
// window. n < 1 selects the default. Meaningful only with WithBatchWindow.
func WithMaxBatchSize(n int) EngineOption {
	return func(e *Engine) { e.maxBatch = n }
}

// batcher coalesces concurrent per-site calls into batch envelopes.
type batcher struct {
	tr      dist.Transport
	window  time.Duration
	maxSize int

	mu      sync.Mutex
	pending map[dist.SiteID]*batchGroup
}

// batchGroup is one open window's worth of calls to a single site.
type batchGroup struct {
	timer   *time.Timer
	waiters []*batchWaiter
	// sent marks the group as owned by a flusher; the timer path and the
	// batch-full path race benignly through it.
	sent bool
}

// batchWaiter is one coalesced call: the caller parks on done while the
// flusher fills resp/cost/err.
type batchWaiter struct {
	ctx  context.Context
	req  any
	done chan struct{}
	resp any
	cost dist.CallCost
	err  error
}

func newBatcher(tr dist.Transport, window time.Duration, maxSize int) *batcher {
	if maxSize < 1 {
		maxSize = defaultMaxBatchSize
	}
	return &batcher{
		tr:      tr,
		window:  window,
		maxSize: maxSize,
		pending: make(map[dist.SiteID]*batchGroup),
	}
}

// call joins (or opens) the site's current window and waits for the
// flusher to deliver this call's share of the batch round trip. A caller
// whose context dies first abandons the batch without failing it.
func (b *batcher) call(ctx context.Context, site dist.SiteID, req any) (any, dist.CallCost, error) {
	w := &batchWaiter{ctx: ctx, req: req, done: make(chan struct{})}
	b.mu.Lock()
	g := b.pending[site]
	if g == nil {
		g = &batchGroup{}
		b.pending[site] = g
		g.timer = time.AfterFunc(b.window, func() { b.flush(site, g) })
	}
	g.waiters = append(g.waiters, w)
	full := len(g.waiters) >= b.maxSize
	if full {
		g.sent = true
		delete(b.pending, site) // new arrivals open a fresh window
		g.timer.Stop()
	}
	b.mu.Unlock()
	if full {
		b.send(site, g)
	}
	select {
	case <-w.done:
		return w.resp, w.cost, w.err
	case <-ctx.Done():
		return nil, dist.CallCost{}, ctx.Err()
	}
}

// flush is the window timer's path into send. It may race the batch-full
// path; the group's sent flag picks exactly one owner.
func (b *batcher) flush(site dist.SiteID, g *batchGroup) {
	b.mu.Lock()
	if g.sent {
		b.mu.Unlock()
		return
	}
	g.sent = true
	if b.pending[site] == g {
		delete(b.pending, site)
	}
	b.mu.Unlock()
	b.send(site, g)
}

// send performs the batch round trip and delivers each waiter's share.
func (b *batcher) send(site dist.SiteID, g *batchGroup) {
	ws := g.waiters
	defer func() {
		for _, w := range ws {
			close(w.done)
		}
	}()
	if len(ws) == 1 {
		// Batch of one: a direct call with the original message under the
		// caller's own context — indistinguishable from batching off.
		w := ws[0]
		w.resp, w.cost, w.err = b.tr.Call(w.ctx, site, w.req)
		return
	}

	req := &BatchStageReq{Subs: make([]BatchSub, len(ws))}
	sentW := make([]int64, len(ws))
	for i, w := range ws {
		bm, ok := w.req.(dist.BinaryMessage)
		if !ok {
			// Unreachable for the engine's own stage messages; fail the
			// whole group rather than ship a half-built envelope.
			err := fmt.Errorf("pax: site %d: request %T cannot join a batch", site, w.req)
			for _, w := range ws {
				w.err = err
			}
			return
		}
		body, err := bm.AppendBinary(nil)
		if err != nil {
			for _, w := range ws {
				w.err = err
			}
			return
		}
		req.Subs[i] = BatchSub{Tag: bm.WireTag(), Body: body}
		sentW[i] = int64(len(body))
	}

	ctx, cancel := flushContext(ws)
	defer cancel()
	resp, cost, err := b.tr.Call(ctx, site, req)
	if err != nil {
		// Whole-batch failure: every member fails with the same error and
		// the (possibly non-zero, e.g. handler error) cost splits by what
		// each member asked to send.
		shares := splitCosts(cost, sentW, nil, nil)
		for i, w := range ws {
			w.cost, w.err = shares[i], err
		}
		return
	}
	br, ok := resp.(*BatchStageResp)
	if !ok || len(br.Subs) != len(ws) {
		err := fmt.Errorf("pax: site %d: malformed batch response (%T, %d members for %d requests)", site, resp, lenSubs(resp), len(ws))
		shares := splitCosts(cost, sentW, nil, nil)
		for i, w := range ws {
			w.cost, w.err = shares[i], err
		}
		return
	}
	recvW := make([]int64, len(ws))
	for i, sub := range br.Subs {
		recvW[i] = int64(len(sub.Body))
	}
	shares := splitCosts(cost, sentW, recvW, br.SubComputeNanos)
	for i, w := range ws {
		w.cost = shares[i]
		sub := br.Subs[i]
		if sub.Tag == 0 {
			w.err = fmt.Errorf("pax: site %d: %s", site, string(sub.Body))
			continue
		}
		m := newStageMessage(sub.Tag)
		if m == nil {
			w.err = fmt.Errorf("pax: site %d: unknown tag %d in batch response", site, sub.Tag)
			continue
		}
		if err := m.DecodeBinary(sub.Body); err != nil {
			w.err = fmt.Errorf("pax: site %d: batch member response: %w", site, err)
			continue
		}
		w.resp = m
	}
}

func lenSubs(resp any) int {
	if br, ok := resp.(*BatchStageResp); ok {
		return len(br.Subs)
	}
	return 0
}

// flushContext bounds a batch round trip: detached from any single member
// (one cancelled member must not fail the rest) but carrying the latest
// member deadline, so a hung site cannot park the flusher forever when
// every member had a deadline.
func flushContext(ws []*batchWaiter) (context.Context, context.CancelFunc) {
	var latest time.Time
	for _, w := range ws {
		d, ok := w.ctx.Deadline()
		if !ok {
			//paxlint:allow ctxflow(batch flush is deliberately detached: cancelling one member's context must not fail the other members sharing the envelope)
			return context.WithCancel(context.Background())
		}
		if d.After(latest) {
			latest = d
		}
	}
	//paxlint:allow ctxflow(batch flush is deliberately detached: one member's cancellation must not fail the rest; the latest member deadline still bounds the round trip)
	return context.WithDeadline(context.Background(), latest)
}

// broadcast is the batching twin of dist.Broadcast: identical request
// construction, response collection, error selection and cost-charging
// semantics, with each call routed through the coalescing window.
func (b *batcher) broadcast(ctx context.Context, sites []dist.SiteID, mk func(dist.SiteID) any) (map[dist.SiteID]any, map[dist.SiteID]dist.CallCost, error) {
	type call struct {
		site dist.SiteID
		req  any
	}
	calls := make([]call, 0, len(sites))
	for _, id := range sites {
		if req := mk(id); req != nil {
			calls = append(calls, call{id, req})
		}
	}
	resps := make([]any, len(calls))
	costs := make([]dist.CallCost, len(calls))
	errs := make([]error, len(calls))
	var wg sync.WaitGroup
	for i, c := range calls {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resps[i], costs[i], errs[i] = b.call(ctx, c.site, c.req)
		}()
	}
	wg.Wait()
	costOut := make(map[dist.SiteID]dist.CallCost, len(calls))
	for i, c := range calls {
		if costs[i] != (dist.CallCost{}) {
			costOut[c.site] = costs[i]
		}
	}
	out := make(map[dist.SiteID]any, len(calls))
	for i, c := range calls {
		if errs[i] != nil {
			return nil, costOut, errs[i]
		}
		out[c.site] = resps[i]
	}
	return out, costOut, nil
}

// splitShares splits total into len(weights) non-negative shares summing
// exactly to total: proportional to the weights when they carry signal,
// equal otherwise, with each floor share's remainder going one unit at a
// time to the earliest members. Deterministic — attribution must not
// depend on scheduling.
func splitShares(total int64, weights []int64, n int) []int64 {
	out := make([]int64, n)
	if n == 0 || total <= 0 {
		return out
	}
	var sum int64
	if len(weights) == n {
		for _, w := range weights {
			if w > 0 {
				sum += w
			}
		}
	}
	if sum <= 0 {
		base, rem := total/int64(n), total%int64(n)
		for i := range out {
			out[i] = base
			if int64(i) < rem {
				out[i]++
			}
		}
		return out
	}
	var given int64
	for i := range out {
		w := weights[i]
		if w < 0 {
			w = 0
		}
		// floor(total*w/sum) without int64 overflow: total and sum are
		// non-negative int64s and w <= sum, so the 128-bit quotient fits.
		hi, lo := bits.Mul64(uint64(total), uint64(w))
		q, _ := bits.Div64(hi, lo, uint64(sum))
		out[i] = int64(q)
		given += out[i]
	}
	for i := 0; given < total; i++ {
		out[i]++
		given++
	}
	return out
}

// splitCosts splits one measured CallCost among n batch members: Sent by
// request body bytes, Recv by response body bytes, Compute by the members'
// self-reported computation. Nil weight slices mean no signal (equal
// split). Each dimension's shares sum exactly to the measured value.
func splitCosts(c dist.CallCost, sentW, recvW, compW []int64) []dist.CallCost {
	n := len(sentW)
	sent := splitShares(c.Sent, sentW, n)
	recv := splitShares(c.Recv, recvW, n)
	comp := splitShares(int64(c.Compute), compW, n)
	out := make([]dist.CallCost, n)
	for i := range out {
		out[i] = dist.CallCost{Sent: sent[i], Recv: recv[i], Compute: time.Duration(comp[i])}
	}
	return out
}

// ---- site side ----

// handleBatch serves a batch envelope: decode the members, serve every
// qualifier-stage member through one shared Stage-1 sweep per distinct
// compiled fingerprint, dispatch the rest through the solo handlers, and
// return index-aligned member responses. A failed member becomes a Tag-0
// sub carrying its error text; it never fails the envelope.
func (s *Site) handleBatch(req *BatchStageReq) (*BatchStageResp, error) {
	n := len(req.Subs)
	resp := &BatchStageResp{Subs: make([]BatchSub, n), SubComputeNanos: make([]int64, n)}
	fail := func(i int, err error) {
		resp.Subs[i] = BatchSub{Tag: 0, Body: []byte(err.Error())}
	}
	// finish encodes member i's response, moving its self-reported compute
	// into the SubComputeNanos array first — the exact move the transport
	// performs on a solo response (including the fall-back to wall time
	// when nothing was reported), so member bodies stay byte-identical to
	// solo responses and member compute attribution matches solo calls.
	finish := func(i int, m dist.BinaryMessage, wall time.Duration) {
		var c int64
		if cr, ok := any(m).(dist.ComputeReporter); ok {
			c = int64(cr.TakeComputeCost())
		}
		if c <= 0 {
			c = int64(wall)
		}
		body, err := m.AppendBinary(nil)
		if err != nil {
			fail(i, err)
			return
		}
		resp.SubComputeNanos[i] = c
		resp.Subs[i] = BatchSub{Tag: m.WireTag(), Body: body}
	}

	msgs := make([]any, n)
	handled := make([]bool, n)
	for i, sub := range req.Subs {
		m := newStageMessage(sub.Tag)
		if m == nil {
			fail(i, fmt.Errorf("pax: site %d: unknown batch member tag %d", s.id, sub.Tag))
			handled[i] = true
			continue
		}
		if err := m.DecodeBinary(sub.Body); err != nil {
			fail(i, fmt.Errorf("pax: site %d: batch member %d: %w", s.id, i, err))
			handled[i] = true
			continue
		}
		msgs[i] = m
	}

	s.batchQuals(msgs, handled, resp, fail, finish)

	// Non-qualifier members run through the solo handlers, in member
	// order. Their compute attribution mirrors a solo call: the reported
	// StageCompute when present, the member's wall time otherwise
	// (including the error path, where solo responses are discarded and
	// the transport charges wall).
	for i, m := range msgs {
		if handled[i] {
			continue
		}
		start := time.Now()
		r, err := s.handle(m)
		if err != nil {
			resp.SubComputeNanos[i] = int64(time.Since(start))
			fail(i, err)
			continue
		}
		bm, ok := r.(dist.BinaryMessage)
		if !ok {
			fail(i, fmt.Errorf("pax: site %d: response %T cannot join a batch", s.id, r))
			continue
		}
		finish(i, bm, time.Since(start))
	}

	var total int64
	for _, c := range resp.SubComputeNanos {
		total += c
	}
	resp.ComputeNanos = total
	return resp, nil
}

// batchQuals serves every QualStageReq member of a batch, grouped by the
// compiled query's normal-form fingerprint: members of one group share a
// single Stage-1 sweep (or a single cache hit), and the group's measured
// compute is split among them proportional to each member's owned
// qualifier-DAG work — identical DAGs within a group, so equal shares with
// the remainder to the earliest member. This is the shared-evaluation half
// of the batching design: N concurrent identical queries cost one
// traversal, not N.
func (s *Site) batchQuals(msgs []any, handled []bool, resp *BatchStageResp, fail func(int, error), finish func(int, dist.BinaryMessage, time.Duration)) {
	type member struct {
		idx  int
		req  *QualStageReq
		sess *session
	}
	type groupKey struct {
		fp string
		nf int32
		// gen separates members whose sessions snapshotted different
		// fragment generations (an edit landed between their session
		// creations): one group shares a single sweep over ONE snapshot, so
		// members pinned to different snapshots must not coalesce.
		gen uint64
	}
	groups := make(map[groupKey][]member)
	var order []groupKey
	for i, m := range msgs {
		qr, ok := m.(*QualStageReq)
		if !ok {
			continue
		}
		handled[i] = true
		sess, err := s.getSession(qr.QID, qr.Query, qr.NumFrags)
		if err != nil {
			fail(i, err)
			continue
		}
		k := groupKey{fp: sess.fp, nf: qr.NumFrags, gen: sess.gen}
		if _, seen := groups[k]; !seen {
			order = append(order, k)
		}
		groups[k] = append(groups[k], member{idx: i, req: qr, sess: sess})
	}
	for _, k := range order {
		ms := groups[k]
		start := time.Now()
		deliver := func(roots []WireRootVecs, total int64) {
			// One fingerprint, identical owned work per member: the
			// work-proportional rule degenerates to equal shares.
			shares := splitShares(total, nil, len(ms))
			for j, mb := range ms {
				r := &QualStageResp{Roots: roots}
				r.ComputeNanos = shares[j]
				finish(mb.idx, r, 0)
			}
		}
		var key qualKey
		if s.cache != nil {
			key = qualKey{fp: k.fp, numFrags: k.nf}
			// Pin to the group's snapshot generation, exactly like the solo
			// path (handleQual): a hit must be consistent with the members'
			// fragment snapshots, and a Put an edit overtook must drop.
			if e, ok := s.cache.GetAt(key, k.gen); ok {
				for _, mb := range ms {
					for fid, fq := range e.qual {
						mb.sess.qual[fid] = fq
					}
				}
				deliver(e.roots, int64(time.Since(start)))
				continue
			}
		}
		pr, err := s.qualPass(ms[0].sess)
		if err != nil {
			// The sweep's partial work is still the group's cost; members
			// share it like a successful one, then fail individually.
			total := stageCompute(start, pr.compute, pr.parWall).ComputeNanos
			shares := splitShares(total, nil, len(ms))
			werr := fmt.Errorf("pax: site %d: %w", s.id, err)
			for j, mb := range ms {
				resp.SubComputeNanos[mb.idx] = shares[j]
				fail(mb.idx, werr)
			}
			continue
		}
		for _, mb := range ms {
			pr.seed(mb.sess)
		}
		if s.cache != nil {
			s.cache.Put(key, newQualEntry(pr), pr.compute, k.gen)
		}
		deliver(pr.roots, stageCompute(start, pr.compute, pr.parWall).ComputeNanos)
	}
	for _, ms := range groups {
		for _, mb := range ms {
			if mb.req.Final {
				s.dropSessionIfDone(mb.req.QID, mb.sess)
			}
		}
	}
}
