package harness

import (
	"context"
	"fmt"
	"math/rand"
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
// the real transports. After its serial cases, each seed runs its PaX3
// cases again all at once on the same engine, and the per-query ledgers
// of every run must sum to the transport's lifetime totals.

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
	// ConcurrentCases counts the evaluations of the concurrent phase, whose
	// failures count as Mismatches and BoundExceeded like serial ones.
	ConcurrentCases int
	// Unconserved counts seeds whose per-query ledgers did not sum to their
	// transport's lifetime totals.
	Unconserved  int
	EditCases    int // mutation-phase evaluations
	EditDiffs    int // post-edit divergence from the rebuilt oracle, edit failure, or ledger violation
	EditsApplied int // fragment edits driven through the engine
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
	r.ConcurrentCases += other.ConcurrentCases
	r.Unconserved += other.Unconserved
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
	return r.Mismatches == 0 && r.BoundExceeded == 0 && r.Unconserved == 0 && r.EditDiffs == 0
}

func (r *DiffResult) String() string {
	return fmt.Sprintf("differential: %d evaluations and %d concurrent ones over %d triples — %d mismatches, %d visit-bound violations, %d unconserved ledgers, %d/%d edit-phase divergences (%d edits applied; %d shipped XML answers compared, %d of them crossing) (max visits: PaX3 %d, PaX2 %d)",
		r.Cases, r.ConcurrentCases, r.Triples, r.Mismatches, r.BoundExceeded, r.Unconserved, r.EditDiffs, r.EditCases, r.EditsApplied, r.EditXMLCompared, r.EditXMLCrossing, r.MaxVisitsPaX3, r.MaxVisitsPaX2)
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

	var tr dist.Transport
	if opts.Transport == DiffTCP {
		tcp, _, shutdown, err := pax.BuildTCPCluster(topo)
		if err != nil {
			return nil, fmt.Errorf("harness: seed %d: %w", seed, err)
		}
		defer shutdown()
		tr = tcp
	} else {
		tr, _ = pax.BuildLocalCluster(topo)
	}
	eng := pax.NewEngine(topo, tr)

	fail := func(format string, args ...any) {
		if len(res.FailureDetails) < 10 {
			res.FailureDetails = append(res.FailureDetails, fmt.Sprintf(format, args...))
		}
	}

	// The ledger accumulator: every byte and nanosecond of compute the
	// runs report, serial and concurrent, summed for the end-of-seed
	// conservation check against the transport's lifetime counters. A
	// failed run's partial stage costs reach the transport but its Result
	// is discarded, so after one the sums legitimately cannot match.
	var sent, recv int64
	var compute time.Duration
	failed := false
	charge := func(r *pax.Result) {
		sent += r.BytesSent
		recv += r.BytesRecv
		compute += r.TotalCompute
	}

	// concurrent remembers each query with its centralized answer for the
	// concurrent phase.
	type concurrentCase struct {
		query string
		want  []xmltree.NodeID
	}
	var concurrent []concurrentCase

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
		concurrent = append(concurrent, concurrentCase{query: query, want: want})

		for _, alg := range []pax.Algorithm{pax.PaX3, pax.PaX2} {
			for _, ann := range []bool{false, true} {
				popts := pax.Options{Algorithm: alg, Annotations: ann}
				got, err := eng.RunContext(ctx, query, popts)
				if err != nil {
					res.Mismatches++
					failed = true
					fail("seed %d %s %v(XA=%v) %q: %v", seed, opts.Transport, alg, ann, query, err)
					continue
				}
				charge(got)
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
			}
		}
	}

	// Concurrent phase: the seed's PaX3 queries all in flight at once on
	// the same engine. Answers must equal the centralized oracle, visit
	// bounds must hold, and every run's ledger feeds the conservation
	// check.
	type out struct {
		res *pax.Result
		err error
	}
	outs := make([]out, len(concurrent))
	var wg sync.WaitGroup
	for i, cc := range concurrent {
		wg.Add(1)
		go func(i int, query string) {
			defer wg.Done()
			r, err := eng.RunContext(ctx, query, pax.Options{Algorithm: pax.PaX3})
			outs[i] = out{res: r, err: err}
		}(i, cc.query)
	}
	wg.Wait()
	for i, o := range outs {
		res.ConcurrentCases++
		query := concurrent[i].query
		if o.err != nil {
			res.Mismatches++
			failed = true
			fail("seed %d %s concurrent %q: %v", seed, opts.Transport, query, o.err)
			continue
		}
		charge(o.res)
		if !testutil.EqualIDs(origAnswerIDs(ft, o.res.Answers), concurrent[i].want) {
			res.Mismatches++
			fail("seed %d %s concurrent %q: %d answers, centralized %d",
				seed, opts.Transport, query, len(o.res.Answers), len(concurrent[i].want))
		}
		if o.res.MaxVisits > visitBound(pax.PaX3) {
			res.BoundExceeded++
			fail("seed %d %s concurrent %q: %d visits > bound %d",
				seed, opts.Transport, query, o.res.MaxVisits, visitBound(pax.PaX3))
		}
	}
	// Cost conservation: the harness owns this transport's entire
	// lifetime, so the sum of its queries' private ledgers must equal the
	// transport's cumulative counters exactly.
	if !failed {
		//paxlint:allow ledger(cost-conservation check: the harness owns this transport's entire lifetime and compares, never resets)
		m := tr.Metrics()
		tSent, tRecv := m.Bytes()
		if sent != tSent || recv != tRecv || compute != m.TotalCompute() {
			res.Unconserved++
			fail("seed %d %s: ledger conservation violated: Σ per-query %d/%d bytes, %v compute; transport %d/%d bytes, %v compute",
				seed, opts.Transport, sent, recv, compute, tSent, tRecv, m.TotalCompute())
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
