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
	// interleaved with queries on a dedicated cluster, requiring every
	// answer byte-identical to a centralized evaluator rebuilt from the
	// freshly reassembled post-edit document, and the cluster's per-query
	// + per-edit ledgers to equal its transport's lifetime totals. See
	// editdiff.go.
	CompareEdits bool
}

// DiffResult aggregates the checks of one or more differential runs.
type DiffResult struct {
	Cases         int // (tree, query, fragmentation, variant) evaluations
	Triples       int // distinct (tree, query, fragmentation) triples
	Mismatches    int // distributed answer != centralized answer
	BoundExceeded int // per-site visits above the algorithm's bound
	BatchCases    int // batching-twin evaluations (serial and concurrent)
	BatchDiffs    int // batch twin diverged, or its ledgers failed to conserve
	EditCases     int // mutation-phase evaluations
	EditDiffs     int // post-edit divergence from the rebuilt oracle, edit failure, or ledger violation
	EditsApplied  int // fragment edits driven through the engine
	// EditXMLCompared counts post-edit answers whose shipped XML was
	// compared with the edited document; EditXMLCrossing those among them
	// whose subtree crosses a fragment boundary, stitched from
	// sub-fragment bodies.
	EditXMLCompared int
	EditXMLCrossing int
	MaxVisitsPaX3   int
	MaxVisitsPaX2   int
	FailureDetails  []string // first few failures, for the test log
	// Wire sums the primary runs' shipped bytes per variant, so a test can
	// pin the corpus's traffic exactly.
	Wire map[Variant]WireBytes
}

// Variant is the (algorithm, annotations) combination a case runs under.
type Variant struct {
	Alg pax.Algorithm
	XA  bool
}

// WireBytes is a byte total in each direction of the transport.
type WireBytes struct{ Sent, Recv int64 }

// addWire adds one run's bytes to v's total.
func (r *DiffResult) addWire(v Variant, sent, recv int64) {
	if r.Wire == nil {
		r.Wire = make(map[Variant]WireBytes)
	}
	w := r.Wire[v]
	r.Wire[v] = WireBytes{Sent: w.Sent + sent, Recv: w.Recv + recv}
}

// Merge folds other into r.
func (r *DiffResult) Merge(other *DiffResult) {
	r.Cases += other.Cases
	r.Triples += other.Triples
	r.Mismatches += other.Mismatches
	r.BoundExceeded += other.BoundExceeded
	r.BatchCases += other.BatchCases
	r.BatchDiffs += other.BatchDiffs
	r.EditCases += other.EditCases
	r.EditDiffs += other.EditDiffs
	r.EditsApplied += other.EditsApplied
	r.EditXMLCompared += other.EditXMLCompared
	r.EditXMLCrossing += other.EditXMLCrossing
	if other.MaxVisitsPaX3 > r.MaxVisitsPaX3 {
		r.MaxVisitsPaX3 = other.MaxVisitsPaX3
	}
	if other.MaxVisitsPaX2 > r.MaxVisitsPaX2 {
		r.MaxVisitsPaX2 = other.MaxVisitsPaX2
	}
	for v, w := range other.Wire {
		r.addWire(v, w.Sent, w.Recv)
	}
	if len(r.FailureDetails) < 10 {
		r.FailureDetails = append(r.FailureDetails, other.FailureDetails...)
	}
}

// Ok reports whether every check of every merged run held.
func (r *DiffResult) Ok() bool {
	return r.Mismatches == 0 && r.BoundExceeded == 0 && r.BatchDiffs == 0 && r.EditDiffs == 0
}

func (r *DiffResult) String() string {
	return fmt.Sprintf("differential: %d evaluations over %d triples — %d mismatches, %d visit-bound violations, %d/%d batch-twin divergences, %d/%d edit-phase divergences (%d edits applied; %d shipped XML answers compared, %d of them crossing) (max visits: PaX3 %d, PaX2 %d)",
		r.Cases, r.Triples, r.Mismatches, r.BoundExceeded, r.BatchDiffs, r.BatchCases, r.EditDiffs, r.EditCases, r.EditsApplied, r.EditXMLCompared, r.EditXMLCrossing, r.MaxVisitsPaX3, r.MaxVisitsPaX2)
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
	// returning the transport for lifetime-ledger checks.
	buildEngine := func(engOpts ...pax.EngineOption) (*pax.Engine, dist.Transport, func(), error) {
		if opts.Transport == DiffTCP {
			tcp, _, shutdown, err := pax.BuildTCPCluster(topo)
			if err != nil {
				return nil, nil, nil, err
			}
			return pax.NewEngine(topo, tcp, engOpts...), tcp, shutdown, nil
		}
		local, _ := pax.BuildLocalCluster(topo)
		return pax.NewEngine(topo, local, engOpts...), local, func() {}, nil
	}
	eng, _, shutdown, err := buildEngine()
	if err != nil {
		return nil, fmt.Errorf("harness: seed %d: %w", seed, err)
	}
	defer shutdown()
	// Batch twin: the same deployment plus a coalescing window on the
	// engine. The serial per-case runs flow through the batch-of-one fast
	// path; the concurrent phase after the loop builds real multi-member
	// envelopes.
	var batchEng *pax.Engine
	var batchTr dist.Transport
	if opts.CompareBatch {
		e, btr, bshutdown, err := buildEngine(pax.WithBatchWindow(200*time.Microsecond), pax.WithMaxBatchSize(8))
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
				res.addWire(Variant{Alg: alg, XA: ann}, got.BytesSent, got.BytesRecv)
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
				if batchEng != nil {
					cmpBatch(query, alg, ann, got)
					if alg == pax.PaX3 && !ann {
						batchReplays = append(batchReplays, batchCase{query: query, want: want})
					}
				}
			}
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
