package pax

import (
	"fmt"
	"runtime/debug"
	"slices"
	"strings"
	"testing"
	"unsafe"

	"paxq/internal/dist"
	"paxq/internal/fragment"
	"paxq/internal/testutil"
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

// intAnswer is a caller's answer type with int fields, as paxq.Answer
// has, for placing answers as a type other than AnswerNode.
type intAnswer struct {
	Fragment, Node int
	Value          string
}

func toIntAnswer(a *AnswerNode) intAnswer {
	return intAnswer{Fragment: int(a.Frag), Node: int(a.Node), Value: a.Value}
}

// placeBoth places runs as AnswerNode, and checks that placing them as
// intAnswer gives the same answers or the same error.
func placeBoth(t *testing.T, nfrags int, runs ...[]AnswerNode) ([]AnswerNode, error) {
	t.Helper()
	got, err := placeAnswers(nfrags, runs, answerNode, byNode)
	ints, ierr := placeAnswers(nfrags, runs, toIntAnswer, func(a, b intAnswer) int { return a.Node - b.Node })
	if (err == nil) != (ierr == nil) || err != nil && err.Error() != ierr.Error() {
		t.Errorf("placing %v: error %v as AnswerNode, %v as intAnswer", runs, err, ierr)
	}
	if (got == nil) != (ints == nil) || len(got) != len(ints) {
		t.Fatalf("placing %v: %v as AnswerNode, %v as intAnswer", runs, got, ints)
	}
	for i := range got {
		if want := toIntAnswer(&got[i]); ints[i] != want {
			t.Errorf("placing %v: answer %d is %v as intAnswer, %v as AnswerNode", runs, i, ints[i], want)
		}
	}
	return got, err
}

// TestMergeAnswers: the coordinator places the answer runs of its stage
// responses in (fragment, node) order whatever order the sites answered
// in, merges a fragment whose answers arrive in two runs, returns nil for
// no answers, leaves the runs untouched, and rejects an answer in a
// fragment outside the fragmentation — as AnswerNode and as a caller's
// type with int fields alike.
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
		got, err := placeBoth(t, 6, order...)
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
		if got, err := placeBoth(t, 3, rs...); got != nil || err != nil {
			t.Errorf("merge of %v = %v, %v; want nil, nil", rs, got, err)
		}
	}
	got, err := placeBoth(t, 3, nil, ans(2, 4), []AnswerNode{}, ans(0, 9), nil)
	if want := append(ans(0, 9), ans(2, 4)...); err != nil || !slices.Equal(got, want) {
		t.Errorf("merge among nil and empty runs = %v, %v; want %v", got, err, want)
	}

	// More fragments than the counts' buffer on the stack.
	got, err = placeBoth(t, 100, ans(99, 3, 1), ans(70, 2), ans(99, 2))
	if want := append(ans(70, 2), ans(99, 1, 2, 3)...); err != nil || !slices.Equal(got, want) {
		t.Errorf("merge over 100 fragments = %v, %v; want %v", got, err, want)
	}

	// A fragment outside the fragmentation, on either side, is an
	// inconsistent response.
	for _, f := range []fragment.FragID{-1, 6, 1 << 20} {
		got, err := placeBoth(t, 6, ans(0, 1), ans(f, 2))
		if err == nil || !strings.Contains(err.Error(), "not one of the 6 fragments") || got != nil {
			t.Errorf("answer in fragment %d: got %v, err %v; want the inconsistent-response error", f, got, err)
		}
	}
}

// bibTopology cuts testutil.BibTree(sections, perSection) at its <bib>
// sections, each a leaf fragment, and places the fragments round-robin
// over sites sites.
func bibTopology(tb testing.TB, sections, perSection, sites int) *Topology {
	tb.Helper()
	tr := testutil.BibTree(sections, perSection)
	var cuts []xmltree.NodeID
	for _, bib := range tr.Root.Children {
		cuts = append(cuts, bib.ID)
	}
	ft, err := fragment.Cut(tr, cuts)
	if err != nil {
		tb.Fatal(err)
	}
	return RoundRobin(ft, sites)
}

// bibCluster deploys bibTopology on the Local transport.
func bibCluster(tb testing.TB, sections, perSection, sites int) *Engine {
	tb.Helper()
	topo := bibTopology(tb, sections, perSection, sites)
	local, _ := BuildLocalCluster(topo)
	return NewEngine(topo, local)
}

// shipQueries are bib_ship's two shapes of ShipXML query: PaX2 with the
// annotations, whose answers are definite where they are selected, and
// PaX3 without, whose answers are candidates its final stage walks again;
// and each again with a qualifier every article passes.
var shipQueries = []struct {
	name, query string
	opts        Options
}{
	{"pax2+xa", "/dblp/bib/article", Options{Algorithm: PaX2, Annotations: true, ShipXML: true}},
	{"pax3", "//article", Options{Algorithm: PaX3, ShipXML: true}},
	{"pax2+xa qualified", "/dblp/bib/article[year > 1989]", Options{Algorithm: PaX2, Annotations: true, ShipXML: true}},
	{"pax3 qualified", "//article[year > 1989]", Options{Algorithm: PaX3, ShipXML: true}},
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
// is one ShipXML query returning 1 200 articles from 16 leaf fragments on
// 4 sites, bib_ship's shape, over Local, where no response is encoded,
// and over TCP on loopback, where every response is encoded and decoded.
func BenchmarkShipXMLQuery(b *testing.B) {
	topo := bibTopology(b, 16, 75, 4)
	local, _ := BuildLocalCluster(topo)
	tcp, _, shutdown, err := BuildTCPCluster(topo)
	if err != nil {
		b.Fatal(err)
	}
	defer shutdown()
	for _, tr := range []struct {
		name string
		tr   dist.Transport
	}{{"local", local}, {"tcp", tcp}} {
		eng := NewEngine(topo, tr.tr)
		for _, q := range shipQueries {
			b.Run(tr.name+"/"+q.name, func(b *testing.B) {
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

// TestShipAnswerBytesPerAnswer: through Engine.Run a ShipXML answer is
// stored twice, once in the response of the site that selects it and once
// in the caller's slice; the coordinator copies no record in between. The
// pin is the slope of the bytes a query allocates, its sites' and its
// coordinator's together, between 4 sections of 25 articles and 4 of 250,
// over Local, where no response is encoded. PaX3's answers are
// candidates first, and its sites keep none between the selection and the
// final stage: the final stage walks the fragment again. A qualified
// query's answers are sized from the walk sets' reach, like an unqualified
// one's, and are held to the same limit.
func TestShipAnswerBytesPerAnswer(t *testing.T) {
	if raceEnabled() {
		t.Skip("the race detector's instrumentation allocates")
	}
	record := float64(unsafe.Sizeof(AnswerNode{}))
	for _, q := range shipQueries {
		limit := 2*record + 8
		var bytes [2]float64
		for i, per := range []int{25, 250} {
			eng := bibCluster(t, 4, per, 2)
			bytes[i] = testutil.BytesPerRun(20, func() {
				res, err := eng.Run(q.query, q.opts)
				if err != nil {
					t.Fatal(err)
				}
				if len(res.Answers) != 4*per {
					t.Fatalf("%s: %d answers, want %d", q.name, len(res.Answers), 4*per)
				}
			})
		}
		got := (bytes[1] - bytes[0]) / (4*250 - 4*25)
		t.Logf("%s: %.1f bytes per extra answer, limit %.0f", q.name, got, limit)
		if got > limit {
			t.Errorf("%s: %.1f bytes per extra answer, want at most %.0f (two %.0f-byte records)", q.name, got, limit, record)
		}
	}
}
