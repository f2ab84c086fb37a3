package paxq

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"testing"
)

// findOne returns the single answer of query, with its fragment-local
// address — the coordinates ApplyEdit takes.
func findOne(t *testing.T, c *Cluster, query string) Answer {
	t.Helper()
	ans, err := c.Evaluate(query)
	if err != nil {
		t.Fatal(err)
	}
	if len(ans) != 1 {
		t.Fatalf("%s: %d answers, want 1", query, len(ans))
	}
	return ans[0]
}

// TestApplyEditLifecycle drives an insert, a rename and a delete through
// the public API, addressing targets by the fragment-local coordinates
// answers report, and checks a qualified query whose labels the edits do
// not touch keeps its answers throughout.
func TestApplyEditLifecycle(t *testing.T) {
	c := demoCluster(t, ClusterOptions{Fragments: 4, Sites: 2})

	// A qualifier query whose label footprint {stock, code} is disjoint
	// from the edits below.
	qualified := func() []string {
		ans, _, err := c.Query(`//broker[//stock/code = "GOOG"]/name`, QueryOptions{Algorithm: "pax3"})
		if err != nil {
			t.Fatal(err)
		}
		return values(ans)
	}
	before := qualified()

	target := findOne(t, c, `//broker[name = "CIBC"]`)
	res, err := c.ApplyEdit(Edit{
		Fragment:   target.Fragment,
		Op:         EditInsert,
		Node:       target.Node,
		Pos:        0,
		SubtreeXML: `<note><v>hello</v></note>`,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.NewVersion == 0 || res.Sites != 1 {
		t.Errorf("EditResult = %+v, want version > 0 on 1 site", res)
	}
	if res.BytesSent == 0 || res.BytesReceived == 0 {
		t.Errorf("edit ledger empty: %+v", res)
	}

	if got := findOne(t, c, `//note/v`); got.Value != "hello" {
		t.Errorf("inserted subtree evaluates to %q, want %q", got.Value, "hello")
	}
	if got := qualified(); !equalStrings(got, before) {
		t.Errorf("disjoint insert changed //client/name: %v, want %v", got, before)
	}

	note := findOne(t, c, `//note`)
	if _, err := c.ApplyEdit(Edit{Fragment: note.Fragment, Op: EditRename, Node: note.Node, Label: "memo"}); err != nil {
		t.Fatal(err)
	}
	if got := findOne(t, c, `//memo/v`); got.Value != "hello" {
		t.Errorf("renamed subtree evaluates to %q, want %q", got.Value, "hello")
	}
	if ans, err := c.Evaluate(`//note`); err != nil || len(ans) != 0 {
		t.Errorf("//note after rename: %d answers, err %v", len(ans), err)
	}

	memo := findOne(t, c, `//memo`)
	if _, err := c.ApplyEdit(Edit{Fragment: memo.Fragment, Op: EditDelete, Node: memo.Node}); err != nil {
		t.Fatal(err)
	}
	if ans, err := c.Evaluate(`//memo`); err != nil || len(ans) != 0 {
		t.Errorf("//memo after delete: %d answers, err %v", len(ans), err)
	}
	if got := qualified(); !equalStrings(got, before) {
		t.Errorf("edit round trip changed //client/name: %v, want %v", got, before)
	}
}

// TestApplyEditRejectsInvalid checks the documented failure modes fail
// cleanly, without mutating anything.
func TestApplyEditRejectsInvalid(t *testing.T) {
	c := demoCluster(t, ClusterOptions{Fragments: 4, Sites: 2})
	cases := []struct {
		name string
		e    Edit
	}{
		{"fragment out of range", Edit{Fragment: 99, Op: EditDelete, Node: 1}},
		{"negative fragment", Edit{Fragment: -1, Op: EditDelete, Node: 1}},
		{"unknown op", Edit{Fragment: 0, Op: EditOp(9), Node: 1}},
		{"malformed subtree XML", Edit{Fragment: 0, Op: EditInsert, Node: 0, SubtreeXML: "<a><b></a>"}},
		{"empty subtree XML", Edit{Fragment: 0, Op: EditInsert, Node: 0}},
		{"delete fragment root", Edit{Fragment: 0, Op: EditDelete, Node: 0}},
		{"rename fragment root", Edit{Fragment: 0, Op: EditRename, Node: 0, Label: "x"}},
	}
	for _, tc := range cases {
		if _, err := c.ApplyEdit(tc.e); err == nil {
			t.Errorf("%s: ApplyEdit accepted %+v", tc.name, tc.e)
		}
	}
	ans, err := c.Evaluate(`//client/name`)
	if err != nil || len(ans) != 2 {
		t.Fatalf("document changed after rejected edits: %d answers, err %v", len(ans), err)
	}
}

// TestApplyEditConcurrentWithQueries hammers a cluster with queries while
// edits land concurrently, at the public API and under -race. Every
// evaluation must see a consistent fragment version: with each edit adding
// exactly one client, any observed //client/name count outside
// [base, base+edits] would be a torn or stale view.
func TestApplyEditConcurrentWithQueries(t *testing.T) {
	c := demoCluster(t, ClusterOptions{Fragments: 4, Sites: 2})
	const edits = 6

	base, err := c.Evaluate(`//client/name`)
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	wg.Add(1)
	editErr := make(chan error, 1)
	go func() {
		defer wg.Done()
		for i := 0; i < edits; i++ {
			_, err := c.ApplyEdit(Edit{
				Fragment:   0,
				Op:         EditInsert,
				Node:       0,
				Pos:        0,
				SubtreeXML: fmt.Sprintf("<client><name>zz%d</name></client>", i),
			})
			if err != nil {
				editErr <- err
				return
			}
		}
		editErr <- nil
	}()
	for i := 0; i < 25; i++ {
		ans, err := c.Evaluate(`//client/name`)
		if err != nil {
			t.Fatal(err)
		}
		if n := len(ans); n < len(base) || n > len(base)+edits {
			t.Fatalf("query %d observed %d client names, want within [%d, %d]", i, n, len(base), len(base)+edits)
		}
	}
	wg.Wait()
	if err := <-editErr; err != nil {
		t.Fatal(err)
	}

	final, err := c.Evaluate(`//client/name`)
	if err != nil {
		t.Fatal(err)
	}
	if len(final) != len(base)+edits {
		t.Fatalf("after all edits: %d client names, want %d", len(final), len(base)+edits)
	}
	got := values(final)
	sort.Strings(got)
	for i := 0; i < edits; i++ {
		name := fmt.Sprintf("zz%d", i)
		if j := sort.SearchStrings(got, name); j == len(got) || got[j] != name {
			t.Errorf("inserted client %q missing from final answers %v", name, got)
		}
	}
}

// TestApplyEditDuringDrilledOutage runs an edit schedule across every
// fragment of a replicated cluster while a drilled site outage is in
// progress: the per-replica retry loop must ride out the down window
// (EditResult.Retries advancing), every replica must converge to the new
// versions, and queries afterwards must answer as if nothing happened.
func TestApplyEditDuringDrilledOutage(t *testing.T) {
	c := demoCluster(t, ClusterOptions{Fragments: 4, Sites: 2, Replicas: 2})
	if err := c.DrillSiteOutage(1, 1, 2); err != nil {
		t.Fatal(err)
	}

	retries := 0
	for f := 0; f < c.Fragments(); f++ {
		res, err := c.ApplyEditContext(t.Context(), Edit{
			Fragment:   f,
			Op:         EditInsert,
			Node:       0,
			Pos:        0,
			SubtreeXML: fmt.Sprintf("<note><v>drill%d</v></note>", f),
		})
		if err != nil {
			t.Fatalf("edit of fragment %d during drill: %v", f, err)
		}
		if res.Sites != 2 {
			t.Errorf("fragment %d delivered to %d sites, want the full replica group of 2", f, res.Sites)
		}
		retries += res.Retries
	}
	if retries == 0 {
		t.Error("edit schedule rode through a drilled outage with zero retries — the drill never fired")
	}

	ans, err := c.Evaluate(`//note/v`)
	if err != nil {
		t.Fatal(err)
	}
	got := values(ans)
	sort.Strings(got)
	want := []string{"drill0", "drill1", "drill2", "drill3"}
	if !equalStrings(got, want) {
		t.Errorf("//note/v after drilled edit schedule = %v, want %v", got, want)
	}
	brokers, err := c.Evaluate(`//broker[//stock/code = "GOOG"]/name`)
	if err != nil {
		t.Fatal(err)
	}
	if bs := values(brokers); len(bs) != 2 || !strings.Contains(strings.Join(bs, ","), "CIBC") {
		t.Errorf("qualifier query after drilled edit schedule = %v", bs)
	}
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
