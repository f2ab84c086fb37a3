package parbox

import (
	"testing"
	"testing/quick"

	"paxq/internal/boolexpr"
	"paxq/internal/centeval"
	"paxq/internal/fragment"
	"paxq/internal/testutil"
	"paxq/internal/xpath"
)

func TestVarSchemeDisjoint(t *testing.T) {
	vs := VarScheme{NumPreds: 3, NumSel: 4, NumFrags: 5}
	seen := map[boolexpr.Var]string{}
	record := func(v boolexpr.Var, what string) {
		if v == boolexpr.NoVar {
			t.Fatalf("%s produced NoVar", what)
		}
		if prev, ok := seen[v]; ok {
			t.Fatalf("variable collision: %s and %s both map to %d", prev, what, v)
		}
		seen[v] = what
	}
	for k := fragment.FragID(0); k < 5; k++ {
		for p := 0; p < 3; p++ {
			record(vs.QV(k, p), "QV")
			record(vs.QDV(k, p), "QDV")
		}
		for i := 0; i < 4; i++ {
			record(vs.SV(k, i), "SV")
		}
	}
}

func fig1Fragmentation(t testing.TB, cutsK int, seed int64) *fragment.Fragmentation {
	t.Helper()
	tr := testutil.PaperTree()
	ft, err := fragment.Cut(tr, fragment.RandomCuts(tr, cutsK, seed))
	if err != nil {
		t.Fatal(err)
	}
	return ft
}

// boolQueryCases pairs Boolean queries with the Fig. 1 tree.
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

// evalBoolean runs ParBoX over ft in one process: one Qualify pass per
// fragment, unification of the fragments' root vectors, and the qualifier
// of the synthesized root step (selection entry 1) at the root of the
// root fragment. pax.Engine.RunBooleanContext ships the same pieces
// between sites and coordinator.
func evalBoolean(ft *fragment.Fragmentation, c *xpath.Compiled) (bool, error) {
	vs := NewVarScheme(c, ft.Len())
	quals := make([]*FragQual, ft.Len())
	roots := make(map[fragment.FragID]RootVecs, ft.Len())
	for i, f := range ft.Frags {
		quals[i] = Qualify(f, c, vs, &boolexpr.Builder{})
		roots[fragment.FragID(i)] = quals[i].Root
	}
	env, err := ResolveQualVars(roots, vs)
	if err != nil {
		return false, err
	}
	if !c.HasQualifiers() {
		return true, nil
	}
	f := quals[fragment.RootFrag].QualAt(fragment.RootNode, 1)
	if f == nil {
		return true, nil
	}
	return env.MustResolveConst(f), nil
}

func TestEvalBooleanAgainstCentralized(t *testing.T) {
	tr := testutil.PaperTree()
	for _, k := range []int{0, 1, 3, 6} {
		ft, err := fragment.Cut(tr, fragment.RandomCuts(tr, k, int64(k)+7))
		if err != nil {
			t.Fatal(err)
		}
		for _, src := range boolQueryCases {
			c := xpath.MustCompile(src)
			if !IsBoolean(c) {
				t.Fatalf("%q: IsBoolean = false", src)
			}
			want := centeval.EvalBool(tr, c)
			got, err := evalBoolean(ft, c)
			if err != nil {
				t.Fatalf("k=%d %q: %v", k, src, err)
			}
			if got != want {
				t.Errorf("k=%d %q: ParBoX=%v centralized=%v", k, src, got, want)
			}
		}
	}
}

func TestEvalBooleanRejectsSelectingQuery(t *testing.T) {
	for _, src := range []string{"/clientele/client", "//stock/code", "/clientele[client]", "//*"} {
		if IsBoolean(xpath.MustCompile(src)) {
			t.Errorf("data-selecting query %q must not count as Boolean", src)
		}
	}
}

func TestResolveQualVarsMissingFragment(t *testing.T) {
	vs := VarScheme{NumPreds: 1, NumSel: 2, NumFrags: 2}
	roots := map[fragment.FragID]RootVecs{
		0: {QV: []*boolexpr.Formula{boolexpr.True()}, QDV: []*boolexpr.Formula{boolexpr.True()}},
	}
	if _, err := ResolveQualVars(roots, vs); err == nil {
		t.Fatal("missing fragment must be reported")
	}
}

func TestResolveQualVarsBadArity(t *testing.T) {
	vs := VarScheme{NumPreds: 2, NumSel: 2, NumFrags: 1}
	roots := map[fragment.FragID]RootVecs{
		0: {QV: []*boolexpr.Formula{boolexpr.True()}, QDV: []*boolexpr.Formula{boolexpr.True()}},
	}
	if _, err := ResolveQualVars(roots, vs); err == nil {
		t.Fatal("arity mismatch must be reported")
	}
}

// Property: ParBoX agrees with centralized evaluation for random Boolean
// queries over random trees under random fragmentations.
func TestQuickParBoXVsCentralized(t *testing.T) {
	f := func(treeSeed, cutSeed, querySeed int64, k uint8) bool {
		tr := testutil.RandomTree(treeSeed, 60)
		ft, err := fragment.Cut(tr, fragment.RandomCuts(tr, int(k%10), cutSeed))
		if err != nil {
			return false
		}
		src := "[" + testutil.RandomQuery(querySeed) + "]"
		c, err := xpath.Compile(src)
		if err != nil {
			return true // absolute path inside the qualifier: not a Boolean query
		}
		if !IsBoolean(c) {
			t.Logf("%q: IsBoolean = false", src)
			return false
		}
		want := centeval.EvalBool(tr, c)
		got, err := evalBoolean(ft, c)
		if err != nil {
			t.Logf("%q: %v", src, err)
			return false
		}
		if got != want {
			t.Logf("%q (tree %d cuts %d k %d): ParBoX=%v want %v", src, treeSeed, cutSeed, k, got, want)
		}
		return got == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 250}); err != nil {
		t.Fatal(err)
	}
}
