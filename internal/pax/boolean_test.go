package pax

import (
	"testing"
	"testing/quick"

	"paxq/internal/centeval"
	"paxq/internal/fragment"
	"paxq/internal/testutil"
	"paxq/internal/xpath"
)

// boolQueryCases are Boolean queries over the Fig. 1 tree.
var boolQueryCases = []string{
	`[//stock/code = "GOOG"]`,
	`[//stock/code = "MSFT"]`,
	`[//stock/code = "GOOG" and not(//stock/code = "YHOO")]`,
	`[client/country = "Canada"]`,
	`[client[country = "US"]/broker/market/name = "NASDAQ"]`,
	`[//stock[buy/val() > 380]]`,
	`[//stock[buy/val() > 1000]]`,
	`[client/country = "US" or client/country = "France"]`,
	`[not(//nonexistent)]`,
	`[.]`,
}

func TestRunBooleanMatchesCentralized(t *testing.T) {
	tr := testutil.PaperTree()
	for _, cut := range []struct {
		k    int
		seed int64
	}{{0, 7}, {1, 8}, {3, 10}, {5, 41}, {6, 13}} {
		eng, _, err := cluster(tr, fragment.RandomCuts(tr, cut.k, cut.seed), 3)
		if err != nil {
			t.Fatal(err)
		}
		for _, query := range boolQueryCases {
			want := centeval.EvalBool(tr, xpath.MustCompile(query))
			got, res, err := eng.RunBoolean(query, Options{})
			if err != nil {
				t.Fatalf("k=%d %q: %v", cut.k, query, err)
			}
			if got != want {
				t.Errorf("k=%d %q = %v want %v", cut.k, query, got, want)
			}
			// The ParBoX guarantee: each site is visited at most once.
			if res.MaxVisits > 1 {
				t.Errorf("k=%d %q: MaxVisits = %d > 1", cut.k, query, res.MaxVisits)
			}
		}
	}
}

func TestRunBooleanRejectsSelectingQuery(t *testing.T) {
	tr := testutil.PaperTree()
	eng, _, err := cluster(tr, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := eng.RunBoolean("//stock/code", Options{}); err == nil {
		t.Fatal("data-selecting query must be rejected")
	}
	if _, _, err := eng.RunBoolean("][", Options{}); err == nil {
		t.Fatal("bad query must be rejected")
	}
}

func TestRunBooleanVacuousQualifier(t *testing.T) {
	tr := testutil.PaperTree()
	eng, _, err := cluster(tr, fragment.RandomCuts(tr, 3, 5), 2)
	if err != nil {
		t.Fatal(err)
	}
	got, res, err := eng.RunBoolean("[.]", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !got {
		t.Error("[.] is vacuously true")
	}
	// "[.]" still compiles to a (vacuous) qualifier, so the single
	// ParBoX pass runs; the one-visit bound must hold regardless.
	if res.MaxVisits > 1 {
		t.Errorf("vacuous Boolean query visited %d sites", res.MaxVisits)
	}
}

// Property: the one-visit distributed Boolean protocol agrees with the
// centralized oracle on random inputs.
func TestQuickRunBoolean(t *testing.T) {
	f := func(treeSeed, cutSeed, querySeed int64, sitesRaw, k uint8) bool {
		tr := testutil.RandomTree(treeSeed, 60)
		query := "[" + testutil.RandomQuery(querySeed) + "]"
		c, err := xpath.Compile(query)
		if err != nil {
			return true // absolute path inside qualifier: not a Boolean query
		}
		eng, _, err := cluster(tr, fragment.RandomCuts(tr, int(k%10), cutSeed), 1+int(sitesRaw%4))
		if err != nil {
			return false
		}
		want := centeval.EvalBool(tr, c)
		got, res, err := eng.RunBoolean(query, Options{})
		if err != nil {
			t.Logf("%q: %v", query, err)
			return false
		}
		if got != want {
			t.Logf("%q (tree %d cuts %d k %d): got %v want %v", query, treeSeed, cutSeed, k, got, want)
		}
		return got == want && res.MaxVisits <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 250}); err != nil {
		t.Fatal(err)
	}
}

func TestStageBytesBreakdown(t *testing.T) {
	tr := testutil.PaperTree()
	eng, _, err := cluster(tr, fragment.RandomCuts(tr, 4, 2), 3)
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.Run(`//broker[//stock/code = "GOOG"]/name`, Options{Algorithm: PaX3})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.StageBytes) != res.Stages {
		t.Fatalf("StageBytes = %v for %d stages", res.StageBytes, res.Stages)
	}
	var sum int64
	for _, b := range res.StageBytes {
		if b <= 0 {
			t.Errorf("stage bytes %v must be positive", res.StageBytes)
		}
		sum += b
	}
	if sum != res.BytesSent+res.BytesRecv {
		t.Errorf("stage bytes sum %d != total %d", sum, res.BytesSent+res.BytesRecv)
	}
}
