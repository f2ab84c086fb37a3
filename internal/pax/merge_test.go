package pax

import (
	"fmt"
	"runtime/debug"
	"slices"
	"strings"
	"testing"

	"paxq/internal/fragment"
	"paxq/internal/xmltree"
)

// ans is an answer carrying only its identity, for the merge tests.
func ans(f fragment.FragID, nodes ...xmltree.NodeID) []AnswerNode {
	out := make([]AnswerNode, len(nodes))
	for i, n := range nodes {
		out[i] = AnswerNode{Frag: f, Node: n, Value: fmt.Sprintf("%d/%d", f, n)}
	}
	return out
}

// permutations returns every order of runs.
func permutations(runs [][]AnswerNode) [][][]AnswerNode {
	if len(runs) <= 1 {
		return [][][]AnswerNode{slices.Clone(runs)}
	}
	var out [][][]AnswerNode
	for i := range runs {
		rest := append(slices.Clone(runs[:i]), runs[i+1:]...)
		for _, p := range permutations(rest) {
			out = append(out, append([][]AnswerNode{runs[i]}, p...))
		}
	}
	return out
}

// TestMergeAnswers: the coordinator places the answer runs of its stage
// responses in (fragment, node) order whatever order the sites answered
// in, merges a fragment whose answers arrive in two runs, returns nil for
// no answers, leaves the runs untouched, and rejects an answer in a
// fragment outside the fragmentation.
func TestMergeAnswers(t *testing.T) {
	// Three sites over six fragments; site 1 also resolves fragment 4's
	// candidates in a final-stage run whose nodes interleave with the
	// definite answers site 1 shipped earlier.
	runs := [][]AnswerNode{
		append(ans(0, 1, 5), ans(3, 2, 3, 8)...),
		append(ans(1, 4), ans(4, 1, 6, 9)...),
		ans(5, 7, 11),
		ans(4, 2, 3, 10),
	}
	want := slices.Concat(runs...)
	slices.SortFunc(want, func(a, b AnswerNode) int {
		if a.Frag != b.Frag {
			return int(a.Frag - b.Frag)
		}
		return int(a.Node - b.Node)
	})
	before := make([][]AnswerNode, len(runs))
	for i, r := range runs {
		before[i] = slices.Clone(r)
	}
	for _, order := range permutations(runs) {
		got, err := mergeAnswers(6, order...)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("merge of %v = %v, want %v", order, got, want)
		}
	}
	for i := range runs {
		if !slices.Equal(runs[i], before[i]) {
			t.Errorf("run %d changed to %v", i, runs[i])
		}
	}

	// No runs, nil runs and empty runs give no answers; they may sit
	// between runs that hold some.
	for _, rs := range [][][]AnswerNode{nil, {nil}, {{}, nil}} {
		if got, err := mergeAnswers(3, rs...); got != nil || err != nil {
			t.Errorf("merge of %v = %v, %v; want nil, nil", rs, got, err)
		}
	}
	got, err := mergeAnswers(3, nil, ans(2, 4), []AnswerNode{}, ans(0, 9), nil)
	if want := append(ans(0, 9), ans(2, 4)...); err != nil || !slices.Equal(got, want) {
		t.Errorf("merge among nil and empty runs = %v, %v; want %v", got, err, want)
	}

	// More fragments than the counts' buffer on the stack.
	got, err = mergeAnswers(100, ans(99, 3, 1), ans(70, 2), ans(99, 2))
	if want := append(ans(70, 2), ans(99, 1, 2, 3)...); err != nil || !slices.Equal(got, want) {
		t.Errorf("merge over 100 fragments = %v, %v; want %v", got, err, want)
	}

	// A fragment outside the fragmentation, on either side, is an
	// inconsistent response.
	for _, f := range []fragment.FragID{-1, 6, 1 << 20} {
		got, err := mergeAnswers(6, ans(0, 1), ans(f, 2))
		if err == nil || !strings.Contains(err.Error(), "not one of the 6 fragments") || got != nil {
			t.Errorf("answer in fragment %d: got %v, err %v; want the inconsistent-response error", f, got, err)
		}
	}
}

// bibCluster deploys a bibliography-shaped document over sites sites on
// the Local transport: a <dblp> root over sections <bib> sections, each a
// leaf fragment of perSection <article> entries followed by as many
// <inproceedings>, every entry with a key, an author, a title and a year.
func bibCluster(tb testing.TB, sections, perSection, sites int) *Engine {
	tb.Helper()
	root := xmltree.El("dblp")
	for s := 0; s < sections; s++ {
		bib := xmltree.El("bib")
		for _, kind := range []string{"article", "inproceedings"} {
			for i := 0; i < perSection; i++ {
				e := xmltree.El(kind,
					xmltree.ElT("author", fmt.Sprintf("Author %d", i%17)),
					xmltree.ElT("title", fmt.Sprintf("Distributed Query Evaluation %d.%d", s, i)),
					xmltree.ElT("year", fmt.Sprint(1990+i%30)))
				e.SetAttr("key", fmt.Sprintf("%s/%d/%d", kind, s, i))
				bib.Append(e)
			}
		}
		root.Append(bib)
	}
	tr := xmltree.NewTree(root)
	var cuts []xmltree.NodeID
	for _, bib := range root.Children {
		cuts = append(cuts, bib.ID)
	}
	ft, err := fragment.Cut(tr, cuts)
	if err != nil {
		tb.Fatal(err)
	}
	topo := RoundRobin(ft, sites)
	local, _ := BuildLocalCluster(topo)
	return NewEngine(topo, local)
}

// shipQueries are bib_ship's two shapes of ShipXML query: PaX2 with the
// annotations, whose answers are definite where they are selected, and
// PaX3 without, whose answers are candidates its final stage resolves.
var shipQueries = []struct {
	name, query string
	opts        Options
}{
	{"pax2+xa", "/dblp/bib/article", Options{Algorithm: PaX2, Annotations: true, ShipXML: true}},
	{"pax3", "//article", Options{Algorithm: PaX3, ShipXML: true}},
}

// TestShipAnswersAllocsIndependentOfCount: a ShipXML query's allocations,
// its sites' and its coordinator's together, do not grow with its answer
// count. Each answer list is made once at its final size — the site's
// from the selection walk, the coordinator's by counting — so a query
// over 4 sections of 25 articles and one over 4 of 250 allocate the same
// number of times, ±1.
func TestShipAnswersAllocsIndependentOfCount(t *testing.T) {
	if raceEnabled() {
		t.Skip("the race detector's instrumentation allocates")
	}
	for _, q := range shipQueries {
		var counts []float64
		for _, per := range []int{25, 250} {
			eng := bibCluster(t, 4, per, 2)
			res, err := eng.Run(q.query, q.opts)
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Answers) != 4*per {
				t.Fatalf("%s: %d answers, want %d", q.name, len(res.Answers), 4*per)
			}
			counts = append(counts, testing.AllocsPerRun(20, func() {
				if _, err := eng.Run(q.query, q.opts); err != nil {
					t.Fatal(err)
				}
			}))
		}
		t.Logf("%s: %.1f allocations for 100 answers, %.1f for 1 000", q.name, counts[0], counts[1])
		if d := counts[1] - counts[0]; d > 1 || d < -1 {
			t.Errorf("%s: %.1f allocations for 100 answers, %.1f for 1 000, want the same ±1", q.name, counts[0], counts[1])
		}
	}
}

// BenchmarkShipXMLQuery is the in-package ruler of answer assembly: one op
// is one ShipXML query over Local returning 1 200 articles from 16 leaf
// fragments on 4 sites, bib_ship's shape.
func BenchmarkShipXMLQuery(b *testing.B) {
	eng := bibCluster(b, 16, 75, 4)
	for _, q := range shipQueries {
		b.Run(q.name, func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				res, err := eng.Run(q.query, q.opts)
				if err != nil {
					b.Fatal(err)
				}
				if len(res.Answers) != 1200 {
					b.Fatalf("%d answers, want 1 200", len(res.Answers))
				}
			}
		})
	}
}

// raceEnabled reports whether the test binary was built with -race.
func raceEnabled() bool {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return false
	}
	for _, s := range bi.Settings {
		if s.Key == "-race" {
			return s.Value == "true"
		}
	}
	return false
}
