package pax

import (
	"bytes"
	"context"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"

	"paxq/internal/boolexpr"
	"paxq/internal/dist"
	"paxq/internal/fragment"
	"paxq/internal/testutil"
	"paxq/internal/xmltree"
	"paxq/internal/xpath"
)

// countsGolden is the counts ledger's committed file.
var countsGolden = filepath.Join("testdata", "counts.golden")

// countsClass is one query class of the serving benchmark: a query, the
// options it runs under and the cut it runs over.
type countsClass struct {
	name  string
	query string
	opts  Options
	bib   bool
}

// countsClasses are the benchmark's XMark classes (Q3 and Q4 under PaX2
// with annotations and under PaX3) and two of its bibliography ShipXML
// classes.
var countsClasses = []countsClass{
	{"Q3/pax2+xa", visitQ3, Options{Algorithm: PaX2, Annotations: true}, false},
	{"Q4/pax3", visitQ4, Options{Algorithm: PaX3}, false},
	{"Q4/pax2+xa", visitQ4, Options{Algorithm: PaX2, Annotations: true}, false},
	{"Q3/pax3", visitQ3, Options{Algorithm: PaX3}, false},
	{"articles/pax2+xa", `/dblp/bib/article`, Options{Algorithm: PaX2, Annotations: true, ShipXML: true}, true},
	{"inproceedings/pax3", `//inproceedings`, Options{Algorithm: PaX3, ShipXML: true}, true},
}

// countsSites is the benchmark's site count.
const countsSites = 4

// msgCount is one message type's traffic: the calls that carried it and
// their framed bytes.
type msgCount struct {
	calls int
	bytes int64
}

// countingTransport wraps a transport and tallies, per message type, the
// bytes the transport metered for each call, and the residual formulas
// the responses shipped.
type countingTransport struct {
	dist.Transport
	mu   sync.Mutex
	msgs map[string]msgCount
	// formulaNodes sums the tree sizes of every shipped formula; err is
	// the first shipped formula that failed to decode.
	formulaNodes int
	err          error
}

func (c *countingTransport) Call(ctx context.Context, to dist.SiteID, req any) (any, dist.CallCost, error) {
	resp, cost, err := c.Transport.Call(ctx, to, req)
	c.mu.Lock()
	defer c.mu.Unlock()
	c.add(req, cost.Sent)
	if err == nil {
		c.add(resp, cost.Recv)
		n, err := shippedFormulaNodes(resp)
		c.formulaNodes += n
		if c.err == nil {
			c.err = err
		}
	}
	return resp, cost, err
}

func (c *countingTransport) add(msg any, n int64) {
	name := strings.TrimPrefix(fmt.Sprintf("%T", msg), "*pax.")
	m := c.msgs[name]
	m.calls++
	m.bytes += n
	c.msgs[name] = m
}

// shippedFormulaNodes sums Formula.Size over every residual formula a
// stage response carries.
func shippedFormulaNodes(resp any) (int, error) {
	var vecs []WireVec
	roots := func(rs []WireRootVecs) {
		for _, rv := range rs {
			vecs = append(vecs, rv.QV, rv.QDV, rv.RootSelQual)
		}
	}
	contexts := func(cs []WireContext) {
		for _, c := range cs {
			vecs = append(vecs, c.SV)
		}
	}
	switch r := resp.(type) {
	case *QualStageResp:
		roots(r.Roots)
	case *SelStageResp:
		contexts(r.Contexts)
	case *CombinedStageResp:
		roots(r.Roots)
		contexts(r.Contexts)
	}
	n := 0
	for _, v := range vecs {
		fs, err := boolexpr.DecodeVec(v)
		if err != nil {
			return n, err
		}
		for _, f := range fs {
			n += f.Size()
		}
	}
	return n, nil
}

// bibCut is the ledger's bibliography: four sections of 25 articles and
// 25 inproceedings, cut at every <bib>, as the benchmark cuts its own.
func bibCut(tb testing.TB) *fragment.Fragmentation {
	tb.Helper()
	tr := testutil.BibTree(4, 25)
	var cuts []xmltree.NodeID
	for _, n := range tr.Root.Children {
		if n.Kind == xmltree.Element && n.Label == "bib" {
			cuts = append(cuts, n.ID)
		}
	}
	ft, err := fragment.Cut(tr, cuts)
	if err != nil {
		tb.Fatal(err)
	}
	return ft
}

// TestCountsLedger pins, in testdata/counts.golden, the counts the
// serving benchmark's query classes produce in process over dist.Local,
// on the pinned XMark cut and a small bibliography. Each class runs twice
// on a cluster and an engine of its own, so its query IDs are 1 and 2 and
// its Stage-1 memos start empty. Per class the file holds:
//
//   - the answers and the visits to each site, of the first run;
//   - the framed wire bytes of every message type, of the first run;
//   - the Stage-1 sweeps (memo misses) and memo hits of each run: the
//     second run of a class must find every fragment's result in the memo;
//   - the Work units of the sites' memoized Stage-1 results and the tree
//     size of every formula the first run shipped;
//   - the vectors the selection traversal computes over every fragment,
//     as PaX3's Stage 2 under the resolved qualifiers or as PaX2's
//     combined visit (selOutcome.visited).
//
// A change that moves a count regenerates the file with
// go test -run TestCountsLedger -update ./internal/pax, and says why.
func TestCountsLedger(t *testing.T) {
	xm, bib := visitCut(t), bibCut(t)
	var out bytes.Buffer
	out.WriteString("# Counts of the serving benchmark's query classes over dist.Local (TestCountsLedger).\n")
	out.WriteString("# Regenerate with: go test -run TestCountsLedger -update ./internal/pax\n")
	for _, cl := range countsClasses {
		ft := xm
		if cl.bib {
			ft = bib
		}
		countClass(t, &out, ft, cl)
	}
	if *updateGolden {
		if err := os.WriteFile(countsGolden, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(countsGolden)
	if err != nil {
		t.Fatalf("no counts ledger (run go test -run TestCountsLedger -update ./internal/pax): %v", err)
	}
	if got := out.String(); got != string(want) {
		t.Errorf("counts changed; diff the ledger with %s:\n%s", countsGolden, lineDiff(string(want), got))
	}
}

// countClass runs one class twice on a fresh cluster and appends its
// section of the ledger to out.
func countClass(t *testing.T, out *bytes.Buffer, ft *fragment.Fragmentation, cl countsClass) {
	topo := RoundRobin(ft, countsSites)
	local, sites := BuildLocalCluster(topo)
	tr := &countingTransport{Transport: local, msgs: make(map[string]msgCount)}
	eng := NewEngine(topo, tr)
	ctx := context.Background()

	res, err := eng.RunContext(ctx, cl.query, cl.opts)
	if err != nil {
		t.Fatalf("%s: %v", cl.name, err)
	}
	if len(res.Answers) == 0 {
		t.Fatalf("%s: no answers; the class would count nothing", cl.name)
	}
	first := memoStats(sites)
	visits := local.Metrics().Snapshot().Visits
	msgs, formulaNodes := maps.Clone(tr.msgs), tr.formulaNodes
	if _, err := eng.RunContext(ctx, cl.query, cl.opts); err != nil {
		t.Fatalf("%s second run: %v", cl.name, err)
	}
	second := memoStats(sites)
	if tr.err != nil {
		t.Fatalf("%s: a shipped formula does not decode: %v", cl.name, tr.err)
	}

	var work int64
	for _, s := range sites {
		cq, ok := s.compiled.Load().get(cl.query)
		if !ok {
			continue
		}
		cq.mu.Lock()
		for _, r := range cq.memo {
			work += r.fq.Work
		}
		cq.mu.Unlock()
	}

	fmt.Fprintf(out, "\nclass %s %q\n", cl.name, cl.query)
	fmt.Fprintf(out, "  answers %d stages %d\n", len(res.Answers), res.Stages)
	out.WriteString("  visits")
	for _, sid := range topo.Sites() {
		fmt.Fprintf(out, " site%d=%d", sid, visits[sid])
	}
	out.WriteString("\n")
	fmt.Fprintf(out, "  stage1 sweeps run1=%d run2=%d hits run1=%d run2=%d\n",
		first.Misses, second.Misses-first.Misses, first.Hits, second.Hits-first.Hits)
	fmt.Fprintf(out, "  work %d formula_nodes %d vectors %d\n", work, formulaNodes, selectionVectors(t, ft, cl))
	for _, name := range slices.Sorted(maps.Keys(msgs)) {
		fmt.Fprintf(out, "  msg %s calls=%d bytes=%d\n", name, msgs[name].calls, msgs[name].bytes)
	}
}

// selectionVectors counts the vectors the selection traversal computes
// over every fragment of ft for the class's algorithm.
func selectionVectors(t *testing.T, ft *fragment.Fragmentation, cl countsClass) int {
	c := xpath.MustCompile(cl.query)
	var outs []*selVisit
	if cl.opts.Algorithm == PaX3 {
		outs = runPAX3(newPAX3Inputs(t, ft, c), ft, c, cl.opts.ShipXML, visit)
	} else {
		outs = runPAX2(ft, c, cl.opts.ShipXML, visit)
	}
	n := 0
	for _, v := range outs {
		n += v.out.visited
	}
	return n
}

// lineDiff lists the lines of got that differ from want, by line number.
func lineDiff(want, got string) string {
	w, g := strings.Split(want, "\n"), strings.Split(got, "\n")
	var b strings.Builder
	for i := range max(len(w), len(g)) {
		var wl, gl string
		if i < len(w) {
			wl = w[i]
		}
		if i < len(g) {
			gl = g[i]
		}
		if wl != gl {
			fmt.Fprintf(&b, "line %d:\n  want %s\n   got %s\n", i+1, wl, gl)
		}
	}
	return b.String()
}
