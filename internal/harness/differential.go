package harness

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"time"

	"paxq/internal/centeval"
	"paxq/internal/dist"
	"paxq/internal/fragment"
	"paxq/internal/pax"
	"paxq/internal/testutil"
	"paxq/internal/xmark"
	"paxq/internal/xmltree"
	"paxq/internal/xpath"
)

// The differential harness mechanically checks the paper's headline
// guarantee: distributed evaluation computes exactly the answer a
// centralized evaluator would, while visiting each site a bounded number
// of times — on randomized (tree, query, fragmentation) instances, over
// the real transports. Every case also cross-checks parallel against
// sequential site-side fragment evaluation: parallelism may change wall
// time only, never the answer, the visit counts or the byte totals.

// DiffTransport selects how the differential cluster is deployed.
type DiffTransport int

// Differential deployment modes.
const (
	DiffLocal DiffTransport = iota
	DiffTCP
)

func (t DiffTransport) String() string {
	if t == DiffTCP {
		return "tcp"
	}
	return "local"
}

// DiffOptions tune one differential seed run.
type DiffOptions struct {
	Transport DiffTransport
	// Queries is how many random queries to evaluate per seed (default 5).
	Queries int
	// CompareParallel additionally evaluates every case on a second,
	// sequential-site cluster of the same fragmentation and requires
	// identical answers, visit counts and byte totals.
	CompareParallel bool
	// CompareCache additionally evaluates every case on two site-cache
	// twins of the same cluster — one with a comfortably sized Stage-1
	// cache (evaluated twice per case: a miss-then-hit schedule) and one
	// with a single-entry cache (eviction pressure on every query switch)
	// — and requires answers, visit counts AND byte totals identical to
	// the uncached primary. After the per-query loop every query is
	// replayed once more on the warm twin (an interleaved-query schedule:
	// by then other queries have run, so replays mix hits and re-misses)
	// against a fresh uncached evaluation.
	CompareCache bool
	// CompareBatch additionally evaluates every case on a twin whose
	// engine runs a multi-query batching window (WithBatchWindow). The
	// serial per-case runs exercise the batch-of-one path, which must be
	// wire-identical to the unbatched primary — answers, visit counts AND
	// byte totals. After the per-query loop the whole batch of queries is
	// replayed concurrently on the twin (real N-member envelopes with
	// shared site evaluation), requiring centralized-equal answers and
	// intact visit bounds; finally the twin's summed per-query ledgers are
	// checked against its transport's lifetime totals — the batch
	// cost-conservation invariant.
	CompareBatch bool
	// CompareEdits additionally runs the mutation differential phase: a
	// randomized schedule of fragment edits (insert/delete/rename)
	// interleaved with queries on a dedicated pair of cached twins — one
	// with delta-scoped invalidation, one that wipes every site cache
	// after every edit — requiring every answer byte-identical to a
	// centralized evaluator rebuilt from the freshly reassembled post-edit
	// document, the two twins mutually indistinguishable (answers, visits,
	// bytes), and the scoped twin's per-query + per-edit ledgers to equal
	// its transport's lifetime totals. See editdiff.go.
	CompareEdits bool
}

// DiffResult aggregates the checks of one or more differential runs.
type DiffResult struct {
	Cases          int // (tree, query, fragmentation, variant) evaluations
	Triples        int // distinct (tree, query, fragmentation) triples
	Mismatches     int // distributed answer != centralized answer
	BoundExceeded  int // per-site visits above the algorithm's bound
	ParallelDiffs  int // parallel vs sequential site evaluation disagreed
	CacheCases     int // cached-twin evaluations compared against uncached
	CacheDiffs     int // cached vs uncached disagreed (answers/visits/bytes)
	CacheHits      int // Stage-1 cache hits observed across cached twins
	BatchCases     int // batching-twin evaluations (serial and concurrent)
	BatchDiffs     int // batch twin diverged, or its ledgers failed to conserve
	EditCases      int // mutation-phase evaluations (scoped and bump twins)
	EditDiffs      int // post-edit divergence from the rebuilt oracle, twin disagreement, edit failure, or ledger violation
	EditsApplied   int // fragment edits driven through the engines
	EditRetained   int // cache entries an edit patched instead of dropping
	MaxVisitsPaX3  int
	MaxVisitsPaX2  int
	FailureDetails []string // first few failures, for the test log
}

// Merge folds other into r.
func (r *DiffResult) Merge(other *DiffResult) {
	r.Cases += other.Cases
	r.Triples += other.Triples
	r.Mismatches += other.Mismatches
	r.BoundExceeded += other.BoundExceeded
	r.ParallelDiffs += other.ParallelDiffs
	r.CacheCases += other.CacheCases
	r.CacheDiffs += other.CacheDiffs
	r.CacheHits += other.CacheHits
	r.BatchCases += other.BatchCases
	r.BatchDiffs += other.BatchDiffs
	r.EditCases += other.EditCases
	r.EditDiffs += other.EditDiffs
	r.EditsApplied += other.EditsApplied
	r.EditRetained += other.EditRetained
	if other.MaxVisitsPaX3 > r.MaxVisitsPaX3 {
		r.MaxVisitsPaX3 = other.MaxVisitsPaX3
	}
	if other.MaxVisitsPaX2 > r.MaxVisitsPaX2 {
		r.MaxVisitsPaX2 = other.MaxVisitsPaX2
	}
	if len(r.FailureDetails) < 10 {
		r.FailureDetails = append(r.FailureDetails, other.FailureDetails...)
	}
}

// Ok reports whether every check of every merged run held.
func (r *DiffResult) Ok() bool {
	return r.Mismatches == 0 && r.BoundExceeded == 0 && r.ParallelDiffs == 0 && r.CacheDiffs == 0 && r.BatchDiffs == 0 && r.EditDiffs == 0
}

func (r *DiffResult) String() string {
	return fmt.Sprintf("differential: %d evaluations over %d triples — %d mismatches, %d visit-bound violations, %d parallel/sequential divergences, %d/%d cached-twin divergences (%d cache hits), %d/%d batch-twin divergences, %d/%d edit-twin divergences (%d edits applied, %d entries scope-retained) (max visits: PaX3 %d, PaX2 %d)",
		r.Cases, r.Triples, r.Mismatches, r.BoundExceeded, r.ParallelDiffs, r.CacheDiffs, r.CacheCases, r.CacheHits, r.BatchDiffs, r.BatchCases, r.EditDiffs, r.EditCases, r.EditsApplied, r.EditRetained, r.MaxVisitsPaX3, r.MaxVisitsPaX2)
}

// xmarkLabels is the vocabulary random xmark-shaped queries draw from.
var xmarkLabels = []string{
	"site", "people", "person", "name", "address", "country", "city",
	"profile", "age", "creditcard", "open_auctions", "open_auction",
	"annotation", "description", "author", "closed_auctions", "regions",
	"item", "bidder", "current", "reserve",
}

// randomXMarkQuery generates a random query in the XMark vocabulary so
// that queries hit generated documents often: a short path with mixed
// axes, occasional wildcards and age/country qualifiers.
func randomXMarkQuery(r *rand.Rand) string {
	switch r.Intn(6) {
	case 0:
		return Q1
	case 1:
		return Q3
	}
	s := ""
	steps := 1 + r.Intn(3)
	for i := 0; i < steps; i++ {
		sep := "//"
		if i > 0 && r.Intn(2) == 0 {
			sep = "/"
		}
		label := xmarkLabels[r.Intn(len(xmarkLabels))]
		if r.Intn(10) == 0 {
			label = "*"
		}
		s += sep + label
		if r.Intn(4) == 0 {
			switch r.Intn(3) {
			case 0:
				s += fmt.Sprintf("[profile/age > %d]", 18+r.Intn(50))
			case 1:
				s += `[address/country = "US"]`
			default:
				s += fmt.Sprintf("[%s]", xmarkLabels[r.Intn(len(xmarkLabels))])
			}
		}
	}
	return s
}

// diffTree generates the seed's document: alternately a small-alphabet
// random tree (dense matches, deep nesting) and an XMark document (the
// paper's workload shape).
func diffTree(r *rand.Rand, seed int64) (*xmltree.Tree, bool) {
	if r.Intn(2) == 0 {
		return testutil.RandomTree(seed, 60+r.Intn(300)), false
	}
	spec := xmark.DefaultSite.Scale(0.05 + r.Float64()*0.2)
	return xmark.Generate(1+r.Intn(2), spec, seed), true
}

// origAnswerIDs maps distributed answers to original-tree node IDs,
// sorted, so they compare directly against the centralized answer.
func origAnswerIDs(ft *fragment.Fragmentation, answers []pax.AnswerNode) []xmltree.NodeID {
	out := make([]xmltree.NodeID, len(answers))
	for i, a := range answers {
		out[i] = ft.Frag(a.Frag).Origin[a.Node]
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// visitBound is the paper's per-site visit bound for the algorithm.
func visitBound(alg pax.Algorithm) int {
	if alg == pax.PaX2 {
		return 2
	}
	return 3
}

// RunDifferential executes one randomized differential seed: generate a
// tree, a fragmentation and a batch of queries — all deterministic in
// seed — and compare distributed evaluation (PaX3 and PaX2, with and
// without annotations) against the centralized evaluator, asserting the
// visit bound on every single Result. Errors are environmental (failed
// fragmentation, transport setup); differential failures are reported in
// the DiffResult so a sweep can aggregate them.
func RunDifferential(ctx context.Context, seed int64, opts DiffOptions) (*DiffResult, error) {
	if opts.Queries <= 0 {
		opts.Queries = 5
	}
	r := rand.New(rand.NewSource(seed))
	res := &DiffResult{}

	tree, isXMark := diffTree(r, seed)
	cuts := fragment.RandomCuts(tree, r.Intn(9), seed+1)
	ft, err := fragment.Cut(tree, cuts)
	if err != nil {
		return nil, fmt.Errorf("harness: seed %d: %w", seed, err)
	}
	numSites := 1 + r.Intn(4)
	topo := pax.RoundRobin(ft, numSites)

	// buildEngine deploys one twin of the cluster on the chosen transport,
	// returning the in-process sites for cache-counter inspection and the
	// transport for lifetime-ledger checks.
	buildEngine := func(engOpts []pax.EngineOption, siteOpts ...pax.SiteOption) (*pax.Engine, []*pax.Site, dist.Transport, func(), error) {
		if opts.Transport == DiffTCP {
			tcp, sites, shutdown, err := pax.BuildTCPCluster(topo, siteOpts...)
			if err != nil {
				return nil, nil, nil, nil, err
			}
			return pax.NewEngine(topo, tcp, engOpts...), sites, tcp, shutdown, nil
		}
		local, sites := pax.BuildLocalCluster(topo, siteOpts...)
		return pax.NewEngine(topo, local, engOpts...), sites, local, func() {}, nil
	}
	var eng, seqEng *pax.Engine
	{
		e, _, _, shutdown, err := buildEngine(nil, pax.SiteParallelism(4))
		if err != nil {
			return nil, fmt.Errorf("harness: seed %d: %w", seed, err)
		}
		defer shutdown()
		eng = e
	}
	if opts.CompareParallel {
		e, _, _, shutdown, err := buildEngine(nil, pax.SiteParallelism(1))
		if err != nil {
			return nil, fmt.Errorf("harness: seed %d: %w", seed, err)
		}
		defer shutdown()
		seqEng = e
	}
	// Cache twins: identical deployment plus a Stage-1 memoization cache.
	// cacheEng's cache comfortably holds the seed's whole workload (warm
	// hits); tinyEng's single-entry caches evict on nearly every query
	// switch (eviction pressure). Both must be indistinguishable from the
	// uncached primary in answers, visit counts and wire bytes.
	var cacheEng, tinyEng *pax.Engine
	var cacheSites, tinySites []*pax.Site
	if opts.CompareCache {
		var shutdown, tshutdown func()
		var err error
		cacheEng, cacheSites, _, shutdown, err = buildEngine(nil, pax.SiteParallelism(4), pax.WithSiteCache(64))
		if err != nil {
			return nil, fmt.Errorf("harness: seed %d: %w", seed, err)
		}
		defer shutdown()
		tinyEng, tinySites, _, tshutdown, err = buildEngine(nil, pax.SiteParallelism(4), pax.WithSiteCache(1))
		if err != nil {
			return nil, fmt.Errorf("harness: seed %d: %w", seed, err)
		}
		defer tshutdown()
	}
	// Batch twin: the same deployment plus a coalescing window on the
	// engine. The serial per-case runs flow through the batch-of-one fast
	// path; the concurrent phase after the loop builds real multi-member
	// envelopes.
	var batchEng *pax.Engine
	var batchTr dist.Transport
	if opts.CompareBatch {
		e, _, btr, bshutdown, err := buildEngine(
			[]pax.EngineOption{pax.WithBatchWindow(200 * time.Microsecond), pax.WithMaxBatchSize(8)},
			pax.SiteParallelism(4))
		if err != nil {
			return nil, fmt.Errorf("harness: seed %d: %w", seed, err)
		}
		defer bshutdown()
		batchEng, batchTr = e, btr
	}

	fail := func(format string, args ...any) {
		if len(res.FailureDetails) < 10 {
			res.FailureDetails = append(res.FailureDetails, fmt.Sprintf(format, args...))
		}
	}

	// cmpCached evaluates one case on a cached twin and demands the result
	// be indistinguishable from the uncached primary's: identical answers,
	// visit counts and byte totals — whether the twin's Stage 1 was a
	// cache miss, a hit, or a post-eviction re-miss.
	cmpCached := func(name, query string, alg pax.Algorithm, ann bool, want *pax.Result, ce *pax.Engine) {
		got, err := ce.RunContext(ctx, query, pax.Options{Algorithm: alg, Annotations: ann})
		res.CacheCases++
		if err != nil {
			res.CacheDiffs++
			fail("seed %d %s %v(XA=%v) %q: %s twin failed: %v", seed, opts.Transport, alg, ann, query, name, err)
			return
		}
		if !slices.Equal(want.Answers, got.Answers) || got.MaxVisits != want.MaxVisits ||
			got.BytesSent != want.BytesSent || got.BytesRecv != want.BytesRecv {
			res.CacheDiffs++
			fail("seed %d %s %v(XA=%v) %q: %s twin diverged (visits %d vs %d, bytes %d/%d vs %d/%d, %d vs %d answers)",
				seed, opts.Transport, alg, ann, query, name,
				want.MaxVisits, got.MaxVisits, want.BytesSent, want.BytesRecv,
				got.BytesSent, got.BytesRecv, len(want.Answers), len(got.Answers))
		}
	}
	// The batch twin's ledger accumulator: every byte and nanosecond of
	// compute its successful runs report, summed for the end-of-seed
	// conservation check against the transport's lifetime counters.
	var batchSent, batchRecv int64
	var batchCompute time.Duration
	batchFailed := false
	// cmpBatch evaluates one case serially on the batch twin. One query in
	// flight means every flush is a batch of one — which must be
	// wire-identical to the unbatched primary: answers, visits, bytes.
	cmpBatch := func(query string, alg pax.Algorithm, ann bool, want *pax.Result) {
		got, err := batchEng.RunContext(ctx, query, pax.Options{Algorithm: alg, Annotations: ann})
		res.BatchCases++
		if err != nil {
			res.BatchDiffs++
			batchFailed = true
			fail("seed %d %s %v(XA=%v) %q: batch twin failed: %v", seed, opts.Transport, alg, ann, query, err)
			return
		}
		batchSent += got.BytesSent
		batchRecv += got.BytesRecv
		batchCompute += got.TotalCompute
		if !slices.Equal(want.Answers, got.Answers) || got.MaxVisits != want.MaxVisits ||
			got.BytesSent != want.BytesSent || got.BytesRecv != want.BytesRecv {
			res.BatchDiffs++
			fail("seed %d %s %v(XA=%v) %q: batch-of-one diverged from direct (visits %d vs %d, bytes %d/%d vs %d/%d, %d vs %d answers)",
				seed, opts.Transport, alg, ann, query,
				want.MaxVisits, got.MaxVisits, want.BytesSent, want.BytesRecv,
				got.BytesSent, got.BytesRecv, len(want.Answers), len(got.Answers))
		}
	}

	// replays remembers each query's PaX3 primary result so the whole
	// batch can be replayed on the warm cache twin after every other query
	// has run — the interleaved schedule.
	type replayCase struct {
		query string
		want  *pax.Result
	}
	var replays []replayCase
	// batchReplays remembers each query with its centralized answer for the
	// concurrent batching phase.
	type batchCase struct {
		query string
		want  []xmltree.NodeID
	}
	var batchReplays []batchCase

	for q := 0; q < opts.Queries; q++ {
		var query string
		if isXMark {
			query = randomXMarkQuery(r)
		} else {
			query = testutil.RandomQuery(seed*1000 + int64(q))
		}
		c, err := xpath.Compile(query)
		if err != nil {
			// The generators emit only valid queries; a parse failure is a
			// harness bug worth surfacing, not skipping.
			return nil, fmt.Errorf("harness: seed %d: generated query %q does not compile: %w", seed, query, err)
		}
		want := append([]xmltree.NodeID(nil), centeval.EvalVector(tree, c)...)
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		res.Triples++

		for _, alg := range []pax.Algorithm{pax.PaX3, pax.PaX2} {
			for _, ann := range []bool{false, true} {
				popts := pax.Options{Algorithm: alg, Annotations: ann}
				got, err := eng.RunContext(ctx, query, popts)
				if err != nil {
					res.Mismatches++
					fail("seed %d %s %v(XA=%v) %q: %v", seed, opts.Transport, alg, ann, query, err)
					continue
				}
				res.Cases++
				if !testutil.EqualIDs(origAnswerIDs(ft, got.Answers), want) {
					res.Mismatches++
					fail("seed %d %s %v(XA=%v) %q: %d answers, centralized %d", seed, opts.Transport, alg, ann, query, len(got.Answers), len(want))
				}
				if got.MaxVisits > visitBound(alg) {
					res.BoundExceeded++
					fail("seed %d %s %v %q: %d visits > bound %d", seed, opts.Transport, alg, query, got.MaxVisits, visitBound(alg))
				}
				switch alg {
				case pax.PaX3:
					if got.MaxVisits > res.MaxVisitsPaX3 {
						res.MaxVisitsPaX3 = got.MaxVisits
					}
				case pax.PaX2:
					if got.MaxVisits > res.MaxVisitsPaX2 {
						res.MaxVisitsPaX2 = got.MaxVisits
					}
				}
				if seqEng != nil {
					seq, err := seqEng.RunContext(ctx, query, popts)
					if err != nil {
						res.ParallelDiffs++
						fail("seed %d %s %v(XA=%v) %q: sequential twin failed: %v", seed, opts.Transport, alg, ann, query, err)
						continue
					}
					if !testutil.EqualIDs(origAnswerIDs(ft, seq.Answers), origAnswerIDs(ft, got.Answers)) ||
						seq.MaxVisits != got.MaxVisits ||
						seq.BytesSent != got.BytesSent || seq.BytesRecv != got.BytesRecv {
						res.ParallelDiffs++
						fail("seed %d %s %v(XA=%v) %q: parallel (visits %d, bytes %d/%d) vs sequential (visits %d, bytes %d/%d)",
							seed, opts.Transport, alg, ann, query,
							got.MaxVisits, got.BytesSent, got.BytesRecv,
							seq.MaxVisits, seq.BytesSent, seq.BytesRecv)
					}
				}
				if cacheEng != nil {
					// Miss-then-hit on the warm twin (the second run of a
					// qualified PaX3 query serves Stage 1 from cache), plus
					// the eviction-pressure twin.
					cmpCached("warm-cache", query, alg, ann, got, cacheEng)
					cmpCached("warm-cache repeat", query, alg, ann, got, cacheEng)
					cmpCached("tiny-cache", query, alg, ann, got, tinyEng)
					if alg == pax.PaX3 && !ann {
						replays = append(replays, replayCase{query: query, want: got})
					}
				}
				if batchEng != nil {
					cmpBatch(query, alg, ann, got)
					if alg == pax.PaX3 && !ann {
						batchReplays = append(batchReplays, batchCase{query: query, want: want})
					}
				}
			}
		}
	}
	if cacheEng != nil {
		// Interleaved-query replay: every query of the batch once more on
		// the warm twin, after all the others have churned its caches.
		for _, rp := range replays {
			cmpCached("interleaved-replay", rp.query, pax.PaX3, false, rp.want, cacheEng)
		}
		for _, s := range cacheSites {
			res.CacheHits += int(s.CacheStats().Hits)
		}
		for _, s := range tinySites {
			res.CacheHits += int(s.CacheStats().Hits)
		}
	}
	if batchEng != nil {
		// Concurrent phase: the seed's PaX3 queries all in flight at once,
		// so the window coalesces real multi-member envelopes with shared
		// site evaluation. Byte totals are not comparable to solo runs here
		// (envelope bytes are split among members), but answers must equal
		// the centralized oracle, visit bounds must hold, and every member's
		// ledger feeds the conservation check.
		type out struct {
			res *pax.Result
			err error
		}
		outs := make([]out, len(batchReplays))
		var wg sync.WaitGroup
		for i, rp := range batchReplays {
			wg.Add(1)
			go func(i int, query string) {
				defer wg.Done()
				r, err := batchEng.RunContext(ctx, query, pax.Options{Algorithm: pax.PaX3})
				outs[i] = out{res: r, err: err}
			}(i, rp.query)
		}
		wg.Wait()
		for i, o := range outs {
			res.BatchCases++
			if o.err != nil {
				res.BatchDiffs++
				batchFailed = true
				fail("seed %d %s batch concurrent %q: %v", seed, opts.Transport, batchReplays[i].query, o.err)
				continue
			}
			batchSent += o.res.BytesSent
			batchRecv += o.res.BytesRecv
			batchCompute += o.res.TotalCompute
			if !testutil.EqualIDs(origAnswerIDs(ft, o.res.Answers), batchReplays[i].want) {
				res.BatchDiffs++
				fail("seed %d %s batch concurrent %q: %d answers, centralized %d",
					seed, opts.Transport, batchReplays[i].query, len(o.res.Answers), len(batchReplays[i].want))
			}
			if o.res.MaxVisits > visitBound(pax.PaX3) {
				res.BatchDiffs++
				fail("seed %d %s batch concurrent %q: %d visits > bound %d",
					seed, opts.Transport, batchReplays[i].query, o.res.MaxVisits, visitBound(pax.PaX3))
			}
		}
		// Cost conservation over the batch paths: the harness owns this
		// transport's entire lifetime, so the sum of its queries' private
		// ledgers must equal the transport's cumulative counters exactly —
		// shared envelopes included. Skipped only if a run failed (a failed
		// run's partial stage costs reach the transport but its Result is
		// discarded, so the sums legitimately cannot match).
		if !batchFailed {
			//paxlint:allow ledger(batch cost-conservation check: the harness owns this transport's entire lifetime and compares, never resets)
			m := batchTr.Metrics()
			tSent, tRecv := m.Bytes()
			if batchSent != tSent || batchRecv != tRecv || batchCompute != m.TotalCompute() {
				res.BatchDiffs++
				fail("seed %d %s: batch ledger conservation violated: Σ per-query %d/%d bytes, %v compute; transport %d/%d bytes, %v compute",
					seed, opts.Transport, batchSent, batchRecv, batchCompute, tSent, tRecv, m.TotalCompute())
			}
		}
	}
	if opts.CompareEdits {
		if err := runEditPhase(ctx, seed, opts, res, r, tree, isXMark, fail); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// DifferentialSweep runs seeds [base, base+n) and merges the results.
func DifferentialSweep(ctx context.Context, base int64, n int, opts DiffOptions) (*DiffResult, error) {
	total := &DiffResult{}
	for i := 0; i < n; i++ {
		r, err := RunDifferential(ctx, base+int64(i), opts)
		if err != nil {
			return total, err
		}
		total.Merge(r)
	}
	return total, nil
}
