package pax

import (
	"errors"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"

	"paxq/internal/dist"
	"paxq/internal/fragment"
	"paxq/internal/testutil"
	"paxq/internal/xmltree"
)

// TestEvalFromDisk exercises the §1 secondary-storage application: save a
// fragmentation to disk, evaluate by swapping fragments in one at a time,
// and compare against the oracle.
func TestEvalFromDisk(t *testing.T) {
	tr := testutil.PaperTree()
	ft, err := fragment.Cut(tr, fragment.RandomCuts(tr, 5, 3))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := ft.Save(dir); err != nil {
		t.Fatal(err)
	}
	for _, query := range fig1Queries {
		want := oracle(t, tr, query)
		ans, err := EvalFromDisk(dir, query)
		if err != nil {
			t.Fatalf("%q: %v", query, err)
		}
		// Loaded fragments lack Origin; map through the in-memory twin.
		got := origIDs(ft, ans)
		if !testutil.EqualIDs(got, want) {
			t.Errorf("%q: got %v want %v", query, got, want)
		}
	}
}

// TestEvalFromDiskOneFragmentAtATime holds EvalFromDisk to the §1 memory
// bound: a stage's site calls run one after another, so no fragment is
// loaded while another is. Each load sleeps to widen the window in which
// two concurrent calls would overlap, and the loads in progress at once
// are counted; the count must never exceed 1, over queries that need one
// stage and queries whose candidates need a second.
func TestEvalFromDiskOneFragmentAtATime(t *testing.T) {
	tr := testutil.PaperTree()
	ft, err := fragment.Cut(tr, fragment.RandomCuts(tr, 5, 3))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := ft.Save(dir); err != nil {
		t.Fatal(err)
	}
	m, err := fragment.LoadManifest(filepath.Join(dir, fragment.ManifestName))
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	inProgress, most, loads := 0, 0, 0
	load := func(id fragment.FragID) (*fragment.Fragment, error) {
		mu.Lock()
		inProgress++
		most, loads = max(most, inProgress), loads+1
		mu.Unlock()
		defer func() {
			mu.Lock()
			inProgress--
			mu.Unlock()
		}()
		time.Sleep(2 * time.Millisecond)
		return m.LoadFragment(dir, id)
	}
	for _, query := range fig1Queries {
		loads = 0
		ans, err := evalStored(m, query, load)
		if err != nil {
			t.Fatalf("%q: %v", query, err)
		}
		if got, want := origIDs(ft, ans), oracle(t, tr, query); !testutil.EqualIDs(got, want) {
			t.Errorf("%q: got %v want %v", query, got, want)
		}
		if loads < ft.Len() {
			t.Errorf("%q: %d loads, want at least one per fragment, %d", query, loads, ft.Len())
		}
	}
	if most != 1 {
		t.Fatalf("%d fragment loads were in progress at once, want 1", most)
	}
}

func TestEvalFromDiskErrors(t *testing.T) {
	if _, err := EvalFromDisk(t.TempDir(), "//a"); err == nil {
		t.Error("missing manifest must fail")
	}
	tr := testutil.PaperTree()
	ft, _ := fragment.Cut(tr, nil)
	dir := t.TempDir()
	if err := ft.Save(dir); err != nil {
		t.Fatal(err)
	}
	if _, err := EvalFromDisk(dir, "]["); err == nil {
		t.Error("bad query must fail")
	}
}

// Property: disk-swapped evaluation agrees with the oracle on random
// inputs.
func TestQuickEvalFromDisk(t *testing.T) {
	f := func(treeSeed, cutSeed, querySeed int64) bool {
		tr := testutil.RandomTree(treeSeed, 60)
		ft, err := fragment.Cut(tr, fragment.RandomCuts(tr, 5, cutSeed))
		if err != nil {
			return false
		}
		dir := t.TempDir()
		if err := ft.Save(dir); err != nil {
			t.Fatal(err)
		}
		query := testutil.RandomQuery(querySeed)
		ans, err := EvalFromDisk(dir, query)
		if err != nil {
			t.Logf("%q: %v", query, err)
			return false
		}
		return testutil.EqualIDs(origIDs(ft, ans), oracle(t, tr, query))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestBooleanQueriesThroughEngines runs bare Boolean queries through the
// full distributed machinery: "[q]" compiles to a root self-step, so the
// answer is the root element when q holds.
func TestBooleanQueriesThroughEngines(t *testing.T) {
	tr := testutil.PaperTree()
	eng, _, err := cluster(tr, fragment.RandomCuts(tr, 4, 19), 3)
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string]bool{
		`[//stock/code = "GOOG"]`:                               true,
		`[//stock/code = "MSFT"]`:                               false,
		`[client/country = "Canada" and client/country = "US"]`: true,
	}
	for query, want := range cases {
		for _, opts := range allOptions {
			res, err := eng.Run(query, opts)
			if err != nil {
				t.Fatalf("%s %q: %v", opts.Algorithm, query, err)
			}
			if got := len(res.Answers) > 0; got != want {
				t.Errorf("%s(XA=%v) %q = %v want %v", opts.Algorithm, opts.Annotations, query, got, want)
			}
		}
	}
}

// TestEngineSurvivesTransportFault injects a network fault mid-query and
// verifies the engine reports the error and that a subsequent evaluation
// (fresh query ID) succeeds.
func TestEngineSurvivesTransportFault(t *testing.T) {
	tr := testutil.PaperTree()
	ft, err := fragment.Cut(tr, fragment.RandomCuts(tr, 4, 23))
	if err != nil {
		t.Fatal(err)
	}
	topo := RoundRobin(ft, 3)
	local, _ := BuildLocalCluster(topo)
	eng := NewEngine(topo, local)

	query := `//broker[//stock/code = "GOOG"]/name`
	want := oracle(t, tr, query)

	var calls atomic.Int64
	local.FaultHook = func(to dist.SiteID, req any) error {
		if calls.Add(1) == 2 { // fail the second site call of the first attempt
			return errors.New("injected: site unreachable")
		}
		return nil
	}
	if _, err := eng.Run(query, Options{Algorithm: PaX2}); err == nil {
		t.Fatal("fault not propagated")
	} else if !strings.Contains(err.Error(), "injected") {
		t.Fatalf("unexpected error: %v", err)
	}
	local.FaultHook = nil
	res, err := eng.Run(query, Options{Algorithm: PaX2})
	if err != nil {
		t.Fatalf("retry after fault: %v", err)
	}
	if !testutil.EqualIDs(origIDs(ft, res.Answers), want) {
		t.Error("retry produced wrong answer")
	}
}

// TestSequentialModeMatchesParallel verifies Sequential changes only the
// scheduling, never the answers, and that ParallelCompute ≤ TotalCompute.
func TestSequentialModeMatchesParallel(t *testing.T) {
	tr := testutil.RandomTree(3, 300)
	eng, ft, err := cluster(tr, fragment.RandomCuts(tr, 6, 5), 3)
	if err != nil {
		t.Fatal(err)
	}
	query := `//a[b = "x"]/c`
	par, err := eng.Run(query, Options{Algorithm: PaX2})
	if err != nil {
		t.Fatal(err)
	}
	seq, err := eng.Run(query, Options{Algorithm: PaX2, Sequential: true})
	if err != nil {
		t.Fatal(err)
	}
	if !testutil.EqualIDs(origIDs(ft, par.Answers), origIDs(ft, seq.Answers)) {
		t.Error("sequential mode changed the answer")
	}
	if seq.ParallelCompute <= 0 || seq.ParallelCompute > seq.TotalCompute {
		t.Errorf("parallel %v vs total %v", seq.ParallelCompute, seq.TotalCompute)
	}
}

// TestHostileStageRequestsFailTyped: a stage request naming a fragment
// version the site never held, or a fragment the site does not host,
// fails with a typed error, never a panic, and so does a request of an
// unknown type.
func TestHostileStageRequestsFailTyped(t *testing.T) {
	tr := testutil.PaperTree()
	ft, err := fragment.Cut(tr, fragment.RandomCuts(tr, 3, 5))
	if err != nil {
		t.Fatal(err)
	}
	site := NewSite(1, ft.Frags[:2])
	h := site.Handler()
	query := `//broker[//stock/code = "GOOG"]/name`
	n := int32(ft.Len())
	init := WireInit{Frag: 1, SV: make([]bool, 4)}
	for _, tc := range []struct {
		name string
		req  any
		want error
	}{
		{"selection at a version never held", &SelStageReq{QID: 1, Query: query, NumFrags: n, Frags: []fragment.FragID{0, 1},
			Versions: []WireVersion{{Frag: 0, Version: 0}, {Frag: 1, Version: 9}}}, ErrVersionSkew},
		{"selection of a fragment not hosted", &SelStageReq{QID: 2, Query: query, NumFrags: n, Frags: []fragment.FragID{2}}, ErrBadStageRequest},
		{"selection naming the version of a fragment not hosted", &SelStageReq{QID: 3, Query: query, NumFrags: n, Frags: []fragment.FragID{3},
			Versions: []WireVersion{{Frag: 3, Version: 0}}}, ErrBadStageRequest},
		{"final walk at a version never held", &AnsStageReq{QID: 5, Query: query, NumFrags: n, Inits: []WireInit{init}, Versions: []WireVersion{{Frag: 1, Version: 3}}}, ErrVersionSkew},
		{"final walk of a fragment not hosted", &AnsStageReq{QID: 6, Query: query, NumFrags: n, Inits: []WireInit{{Frag: 2, SV: init.SV}}}, ErrBadStageRequest},
		{"body at a version never held", &AnsStageReq{QID: 7, Bodies: []fragment.FragID{0}, Versions: []WireVersion{{Frag: 0, Version: 1}}}, ErrVersionSkew},
		{"body of a fragment not hosted", &AnsStageReq{QID: 8, Bodies: []fragment.FragID{5}, Versions: []WireVersion{{Frag: 5, Version: 0}}}, ErrBadStageRequest},
		{"unknown request type", &struct{ X int }{}, ErrBadStageRequest},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := h(tc.req); !errors.Is(err, tc.want) {
				t.Fatalf("err = %v, want %v", err, tc.want)
			}
		})
	}
}

// TestAnswersIdentityStable verifies answers refer to real nodes of the
// hosting fragment with the right labels.
func TestAnswersIdentityStable(t *testing.T) {
	tr := testutil.PaperTree()
	eng, ft, err := cluster(tr, fragment.RandomCuts(tr, 5, 29), 4)
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Run("//stock/code", Options{Algorithm: PaX2})
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range res.Answers {
		n := tr.Node(ft.Frag(a.Frag).Origin[a.Node])
		if n == nil || n.Label != a.Label || n.Value() != a.Value {
			t.Errorf("answer %+v does not match fragment node %v", a, n)
		}
		if a.Label != "code" {
			t.Errorf("answer label %q", a.Label)
		}
	}
	sorted := sort.SliceIsSorted(res.Answers, func(i, j int) bool {
		if res.Answers[i].Frag != res.Answers[j].Frag {
			return res.Answers[i].Frag < res.Answers[j].Frag
		}
		return res.Answers[i].Node < res.Answers[j].Node
	})
	if !sorted {
		t.Error("answers not sorted")
	}
}

var _ = xmltree.NoID
