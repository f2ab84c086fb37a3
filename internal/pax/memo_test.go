package pax

import (
	"context"
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"paxq/internal/dist"
	"paxq/internal/fragment"
	"paxq/internal/testutil"
	"paxq/internal/xmltree"
)

// memoTransports builds a topology's sites over each transport.
var memoTransports = []struct {
	name  string
	build func(t *testing.T, topo *Topology) (dist.Transport, []*Site)
}{
	{"local", func(t *testing.T, topo *Topology) (dist.Transport, []*Site) {
		local, sites := BuildLocalCluster(topo)
		return local, sites
	}},
	{"tcp", func(t *testing.T, topo *Topology) (dist.Transport, []*Site) {
		tcp, sites, stop, err := BuildTCPCluster(topo)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(stop)
		return tcp, sites
	}},
}

// memoStats sums the Stage-1 memo counters of sites.
func memoStats(sites []*Site) MemoStats {
	var sum MemoStats
	for _, s := range sites {
		ms := s.MemoStats()
		sum.Hits += ms.Hits
		sum.Misses += ms.Misses
		sum.Replaced += ms.Replaced
	}
	return sum
}

// TestStage1MemoShipsSameBytes: a query answered from the sites' Stage-1
// memos ships exactly what it ships from fresh sites. Over random trees,
// cuts and queries, every option runs three times in a row on one
// cluster — cold, then admitted, then warm, each algorithm reading the
// memo the others filled — and each run must match, in sent and received
// bytes and in its answers, the same run on a twin cluster restarted
// before every query, whose sites hold no memo an earlier query filled.
// The twin runs the same query sequence, so both engines number their
// queries alike.
func TestStage1MemoShipsSameBytes(t *testing.T) {
	trees, queries := 8, 4
	if testing.Short() {
		trees = 3
	}
	for _, tp := range memoTransports {
		t.Run(tp.name, func(t *testing.T) {
			var hits, freshHits int64
			for ts := int64(1); ts <= int64(trees); ts++ {
				tr := testutil.RandomTree(ts, 60+int(ts%4)*30)
				ft, err := fragment.Cut(tr, fragment.RandomCuts(tr, 2+int(ts%7), ts*7))
				if err != nil {
					t.Fatal(err)
				}
				topo := RoundRobin(ft, 1+int(ts%3))
				memoTr, memoSites := tp.build(t, topo)
				freshTr, freshSites := tp.build(t, topo)
				memo, fresh := NewEngine(topo, memoTr), NewEngine(topo, freshTr)
				for qs := int64(0); qs < int64(queries); qs++ {
					query := testutil.RandomQuery(ts*100 + qs)
					for round := 0; round < 3; round++ {
						for _, opts := range allOptions {
							opts.ShipXML = round == 1
							label := fmt.Sprintf("tree %d %s(XA=%v, ShipXML=%v) %q, run %d", ts, opts.Algorithm, opts.Annotations, opts.ShipXML, query, round)
							for _, s := range freshSites {
								s.Restart()
							}
							want, err := fresh.Run(query, opts)
							if err != nil {
								t.Fatalf("%s on fresh sites: %v", label, err)
							}
							got, err := memo.Run(query, opts)
							if err != nil {
								t.Fatalf("%s: %v", label, err)
							}
							if got.BytesSent != want.BytesSent || got.BytesRecv != want.BytesRecv {
								t.Errorf("%s: bytes %d/%d, fresh sites %d/%d", label, got.BytesSent, got.BytesRecv, want.BytesSent, want.BytesRecv)
							}
							if !reflect.DeepEqual(got.Answers, want.Answers) {
								t.Errorf("%s: answers %v, fresh sites %v", label, got.Answers, want.Answers)
							}
						}
					}
				}
				hits += memoStats(memoSites).Hits
				freshHits += memoStats(freshSites).Hits
			}
			// Within one query, the fresh sites' later stages read what the
			// query's first stage stored; only the memo cluster reads
			// across queries.
			if hits <= freshHits {
				t.Fatalf("memo sites hit %d times, restarted sites %d: no run read an earlier query's memo, the comparison proves nothing", hits, freshHits)
			}
		})
	}
}

// TestStage1MemoAdmitsOnFirstUse: a query text's first Stage 1 at a site
// stores one result per fragment, which its second reads, and so does a
// later stage of the first query.
func TestStage1MemoAdmitsOnFirstUse(t *testing.T) {
	tr := testutil.PaperTree()
	ft, err := fragment.Cut(tr, fragment.RandomCuts(tr, 3, 9))
	if err != nil {
		t.Fatal(err)
	}
	s := NewSite(0, ft.Frags)
	const query = `//broker[//stock/code = "GOOG"]/name`
	n := len(ft.Frags)
	for qid, want := range []MemoStats{{Misses: int64(n)}, {Hits: int64(n), Misses: int64(n)}} {
		if _, err := s.handleQual(&QualStageReq{QID: QueryID(qid), Query: query, NumFrags: int32(n)}); err != nil {
			t.Fatal(err)
		}
		cq, err := s.compile(query)
		if err != nil {
			t.Fatal(err)
		}
		cq.mu.Lock()
		stored := len(cq.memo)
		cq.mu.Unlock()
		if stored != n {
			t.Errorf("after query %d: %d results stored, want %d", qid+1, stored, n)
		}
		if got := s.MemoStats(); got != want {
			t.Errorf("after query %d: %+v, want %+v", qid+1, got, want)
		}
	}
}

// TestStage1MemoDoesNotPinOldVersions: a site keeps the current and the
// previous version of a fragment, and a memo entry holds its fragment
// weakly. After k edits of one fragment, with a hot query run at every
// version, exactly two of its versions stay reachable from the site,
// although no query has run since to replace the entries naming the
// older ones.
func TestStage1MemoDoesNotPinOldVersions(t *testing.T) {
	_, ft, inner := skewCut(t)
	s := NewSite(0, ft.Frags)
	defer runtime.KeepAlive(s) // and with it the memo
	n := int32(len(ft.Frags))
	insert, remove := skewEdits(inner)
	edit := func(ed fragment.Edit) {
		t.Helper()
		req, err := editReqOf(1, ed)
		if err != nil {
			t.Fatal(err)
		}
		req.BaseVersion = s.snapshot().byID[1].Version
		if _, err := s.handleEdit(req); err != nil {
			t.Fatal(err)
		}
	}
	// The first edit moves fragment 1 off the version the Fragmentation
	// holds, to one only the site holds. Every version from there on is
	// tracked, and the query runs at each.
	edit(insert)
	const k = 6
	collected := make(chan struct{}, k+1)
	for i := 0; i <= k; i++ {
		runtime.AddCleanup(s.snapshot().byID[1], func(ch chan struct{}) { ch <- struct{}{} }, collected)
		for qid := range 2 {
			if _, err := s.handleQual(&QualStageReq{QID: QueryID(qid), Query: skewQuery, NumFrags: n}); err != nil {
				t.Fatal(err)
			}
		}
		if i < k {
			edit([]fragment.Edit{remove, insert}[i%2])
		}
	}
	if s.MemoStats().Hits == 0 {
		t.Fatal("the query never hit the memo")
	}
	// k+1 versions are tracked; the site holds the last two.
	got, want := 0, k-1
	for range 20 {
		runtime.GC()
		for drained := false; !drained; {
			select {
			case <-collected:
				got++
			case <-time.After(10 * time.Millisecond):
				drained = true
			}
		}
		if got >= want {
			break
		}
	}
	if got != want {
		t.Fatalf("%d of %d versions of fragment 1 collected, want %d: the site must keep exactly the current and the previous one", got, k+1, want)
	}
}

// skewDoc is TestFailoverVersionSkew's document, cut below the outer <p>:
// inserting <k/> under the inner <p>, in fragment 1, flips the qualifier
// of both <p>s, so skewQuery's answer moves from none to both <n>s.
const (
	skewDoc   = `<r><p><n>1</n><c><p><n>2</n><d/></p></c></p></r>`
	skewQuery = `//p[.//k]/n`
)

// skewCut returns skewDoc's tree cut at <c>, and the fragment-local ID of
// the inner <p> in fragment 1.
func skewCut(t *testing.T) (*xmltree.Tree, *fragment.Fragmentation, xmltree.NodeID) {
	t.Helper()
	tr, err := xmltree.ParseString(skewDoc)
	if err != nil {
		t.Fatal(err)
	}
	var cut, inner xmltree.NodeID = -1, -1
	tr.Walk(func(n *xmltree.Node) bool {
		switch {
		case n.Label == "c":
			cut = n.ID
		case n.Label == "p" && cut >= 0:
			inner = n.ID
		}
		return true
	})
	ft, err := fragment.Cut(tr, []xmltree.NodeID{cut})
	if err != nil {
		t.Fatal(err)
	}
	for l, g := range ft.Origins()[1] {
		if g == inner {
			return tr, ft, xmltree.NodeID(l)
		}
	}
	t.Fatal("inner <p> is not in fragment 1")
	return nil, nil, 0
}

// skewEdits are the insert that flips skewQuery's qualifiers and the
// delete that undoes it: the inserted <k/> is the inner <p>'s first child.
func skewEdits(inner xmltree.NodeID) (insert, remove fragment.Edit) {
	return fragment.Edit{Op: fragment.EditInsert, Node: inner, Pos: 0, Subtree: xmltree.El("k")},
		fragment.Edit{Op: fragment.EditDelete, Node: inner + 1}
}

// skewValues returns skewQuery's answer values: the n values of res.
func skewValues(res *Result) string {
	var vals []string
	for _, a := range res.Answers {
		vals = append(vals, a.Value)
	}
	return fmt.Sprint(vals)
}

// skewBefore and skewAfter are skewQuery's answers before and after the
// insert.
const (
	skewBefore = "[]"
	skewAfter  = "[1 2]"
)

// TestStage1MemoSeesEdits: an edit that flips a qualifier in one fragment
// is seen by the next run of a hot query. The query is warmed until the
// sites answer Stage 1 from their memos; the edit swaps fragment 1 for a
// new version, whose memo entry then no longer matches, so the next run
// sweeps it again and replaces the entry, and the delete that undoes the
// edit does the same.
func TestStage1MemoSeesEdits(t *testing.T) {
	for _, tp := range memoTransports {
		for _, opts := range []Options{{Algorithm: PaX3}, {Algorithm: PaX2}, {Algorithm: PaX2, Annotations: true}} {
			t.Run(fmt.Sprintf("%s/%s/xa=%v", tp.name, opts.Algorithm, opts.Annotations), func(t *testing.T) {
				_, ft, inner := skewCut(t)
				topo := RoundRobin(ft, 2)
				tport, sites := tp.build(t, topo)
				eng := NewEngine(topo, tport)
				run := func(want string) {
					t.Helper()
					res, err := eng.Run(skewQuery, opts)
					if err != nil {
						t.Fatal(err)
					}
					if got := skewValues(res); got != want {
						t.Fatalf("answers %s, want %s", got, want)
					}
				}
				for range 3 {
					run(skewBefore)
				}
				warm := memoStats(sites)
				if warm.Hits == 0 {
					t.Fatal("three runs of one query never hit the memo")
				}
				insert, remove := skewEdits(inner)
				for _, step := range []struct {
					edit fragment.Edit
					want string
				}{{insert, skewAfter}, {remove, skewBefore}} {
					before := memoStats(sites)
					if _, err := eng.ApplyEdit(context.Background(), 1, step.edit); err != nil {
						t.Fatal(err)
					}
					run(step.want)
					run(step.want)
					after := memoStats(sites)
					if after.Replaced != before.Replaced+1 {
						t.Errorf("the edit replaced %d memo entries, want 1 (fragment 1's)", after.Replaced-before.Replaced)
					}
					if after.Hits <= before.Hits {
						t.Error("the unedited fragment's memo entry stopped matching")
					}
				}
			})
		}
	}
}

// TestStage1MemoLaggingReplica: in a replica group whose members hold
// fragment 1 at two versions (TestFailoverVersionSkew's setup), each
// member answers a hot query from its own version: the edited member's
// warm memo entry no longer matches its fragment, the lagging member's
// still does, and a query whose group fails over mid-way answers at one
// version.
func TestStage1MemoLaggingReplica(t *testing.T) {
	for _, alg := range []Algorithm{PaX3, PaX2} {
		t.Run(alg.String(), func(t *testing.T) {
			_, ft, inner := skewCut(t)
			topo := RoundRobinReplicated(ft, 2, 2)
			tport, sites := BuildLocalCluster(topo)
			eng := NewEngine(topo, tport)
			group := topo.ReplicasOf(topo.SiteOf[1])
			edited, lagging := siteByID(sites, group[0]), siteByID(sites, group[1])
			// down keeps one member dead from its first call on, so the
			// other answers for the group.
			down := func(m dist.SiteID) {
				tport.FaultHook = dist.NewFaultPlan(dist.SiteFault{Site: m, Call: 1, Action: dist.FaultKill, Down: 1 << 20}).Hook
			}
			run := func(want ...string) {
				t.Helper()
				res, err := eng.Run(skewQuery, Options{Algorithm: alg})
				if err != nil {
					t.Fatal(err)
				}
				got := skewValues(res)
				for _, w := range want {
					if got == w {
						return
					}
				}
				t.Fatalf("answers %s, want one of %v", got, want)
			}
			// Warm both members' memos at version V, each while the other
			// is down.
			for _, other := range []*Site{lagging, edited} {
				down(other.ID())
				for range 3 {
					run(skewBefore)
				}
			}
			for _, s := range []*Site{edited, lagging} {
				if s.MemoStats().Hits == 0 {
					t.Fatalf("site %d never hit its memo while warming", s.ID())
				}
			}
			insert, _ := skewEdits(inner)
			req, err := editReqOf(1, insert)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := edited.Handler()(req); err != nil {
				t.Fatalf("edit on site %d: %v", edited.ID(), err)
			}

			down(lagging.ID())
			replaced := edited.MemoStats().Replaced
			run(skewAfter)
			if edited.MemoStats().Replaced != replaced+1 {
				t.Errorf("the edited member kept its version-V memo entry")
			}
			down(edited.ID())
			hits := lagging.MemoStats().Hits
			run(skewBefore)
			if lagging.MemoStats().Hits == hits {
				t.Errorf("the lagging member's memo entry for its own version stopped matching")
			}
			// Killed mid-query, the edited member's group fails over to
			// the lagging one: one version, whichever it is.
			tport.FaultHook = dist.NewFaultPlan(dist.SiteFault{Site: edited.ID(), Call: 2, Action: dist.FaultKill, Down: 1 << 20}).Hook
			run(skewBefore, skewAfter)
		})
	}
}

// TestStage1MemoConcurrentEdits: hot queries of both algorithms race a
// stream of edits that flip skewQuery's qualifiers back and forth for as
// long as the queries run, and then once more, so the last version is
// the edited one. Every answer must be the oracle's at one version, and
// once the edits stop, the answer at the last.
func TestStage1MemoConcurrentEdits(t *testing.T) {
	for _, tp := range memoTransports {
		t.Run(tp.name, func(t *testing.T) {
			_, ft, inner := skewCut(t)
			topo := RoundRobin(ft, 2)
			tport, sites := tp.build(t, topo)
			eng := NewEngine(topo, tport)
			insert, remove := skewEdits(inner)
			const queries = 60
			var wg sync.WaitGroup
			readers := []Options{{Algorithm: PaX3}, {Algorithm: PaX2}, {Algorithm: PaX2, Annotations: true}, {Algorithm: PaX3, ShipXML: true}}
			errc := make(chan error, len(readers))
			for w, opts := range readers {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < queries; i++ {
						res, err := eng.Run(skewQuery, opts)
						if err != nil {
							errc <- fmt.Errorf("reader %d, query %d: %w", w, i, err)
							return
						}
						if got := skewValues(res); got != skewBefore && got != skewAfter {
							errc <- fmt.Errorf("reader %d, query %d: answers %s hold at no version", w, i, got)
							return
						}
					}
				}()
			}
			done := make(chan struct{})
			go func() { wg.Wait(); close(done) }()
			edits := 0
			for running := true; running || edits%2 == 0; edits++ {
				select {
				case <-done:
					running = false
				default:
				}
				ed := insert
				if edits%2 == 1 {
					ed = remove
				}
				if _, err := eng.ApplyEdit(context.Background(), 1, ed); err != nil {
					t.Fatalf("edit %d: %v", edits, err)
				}
			}
			<-done
			close(errc)
			for err := range errc {
				t.Error(err)
			}
			for _, opts := range allOptions {
				res, err := eng.Run(skewQuery, opts)
				if err != nil {
					t.Fatal(err)
				}
				if got := skewValues(res); got != skewAfter {
					t.Errorf("%s after %d edits: answers %s, want %s", opts.Algorithm, edits, got, skewAfter)
				}
			}
			if memoStats(sites).Hits == 0 {
				t.Error("no query read a memo: the race proves nothing")
			}
		})
	}
}

// TestStage1HitAllocs: a warm PaX3 Stage 1 at a site reads its result from
// the query's memo. It allocates the same on a fragment 30 times larger —
// the response, nothing per node — and no pass runs, so
// it takes no mask from parbox.
func TestStage1HitAllocs(t *testing.T) {
	if raceEnabled() {
		t.Skip("the race detector's instrumentation allocates")
	}
	const query = `//article[year > 1989 and author]/title`
	var allocs, bytes [2]float64
	var words int
	for i, per := range []int{20, 600} {
		ft, err := fragment.Cut(testutil.BibTree(1, per), nil)
		if err != nil {
			t.Fatal(err)
		}
		s := NewSite(0, ft.Frags)
		qid := QueryID(0)
		stage1 := func() {
			qid++
			if _, err := s.handleQual(&QualStageReq{QID: qid, Query: query, NumFrags: 1}); err != nil {
				t.Fatal(err)
			}
		}
		stage1() // the first use admits the result
		misses := s.memoMisses.Load()
		allocs[i] = testing.AllocsPerRun(50, stage1)
		bytes[i] = testutil.BytesPerRun(50, stage1)
		if s.memoMisses.Load() != misses {
			t.Fatalf("%d articles: a warm Stage 1 ran the qualifier pass", per)
		}
		words = len(ft.Frags[0].VirtualMask)
	}
	t.Logf("warm Stage 1: %.0f allocations and %.0f bytes on 40 entries, %.0f and %.0f on 1 200", allocs[0], bytes[0], allocs[1], bytes[1])
	if allocs[1] != allocs[0] {
		t.Errorf("warm Stage 1 allocates %.0f times on 1 200 entries, %.0f on 40, want the same", allocs[1], allocs[0])
	}
	if bytes[1] != bytes[0] {
		t.Errorf("warm Stage 1 allocates %.0f bytes on 1 200 entries, %.0f on 40, want the same", bytes[1], bytes[0])
	}
	if bytes[1] >= float64(8*words) {
		t.Errorf("warm Stage 1 allocates %.0f bytes, as much as one %d-byte mask of the larger fragment", bytes[1], 8*words)
	}
}
