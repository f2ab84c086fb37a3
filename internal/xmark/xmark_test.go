package xmark

import (
	"testing"

	"paxq/internal/centeval"
	"paxq/internal/xmltree"
	"paxq/internal/xpath"
)

func TestDeterministic(t *testing.T) {
	a := Generate(2, DefaultSite, 42)
	b := Generate(2, DefaultSite, 42)
	if !xmltree.DeepEqual(a.Root, b.Root) {
		t.Fatal("same seed must generate identical documents")
	}
	c := Generate(2, DefaultSite, 43)
	if xmltree.DeepEqual(a.Root, c.Root) {
		t.Fatal("different seeds must differ")
	}
}

func TestStructureMatchesPaperQueries(t *testing.T) {
	tr := Generate(3, DefaultSite, 7)
	if tr.Root.Label != "sites" {
		t.Fatalf("root = %q", tr.Root.Label)
	}
	queries := map[string]bool{ // query -> expect non-empty
		"/sites/site/people/person":             true,
		"/sites/site/open_auctions//annotation": true,
		`/sites/site/people/person[profile/age > 20 and address/country = "US"]/creditcard`: true,
		`/sites//people/person[profile/age > 20 and address/country = "US"]/creditcard`:     true,
		"/sites/site/regions/namerica/item":                                                 true,
		"/sites/site/closed_auctions//author":                                               true,
		"/sites/site/people/person/unknowntag":                                              false,
	}
	for q, want := range queries {
		c := xpath.MustCompile(q)
		got := len(centeval.EvalVector(tr, c)) > 0
		if got != want {
			t.Errorf("%s: nonempty=%v want %v", q, got, want)
		}
	}
}

func TestQ1CountsPersons(t *testing.T) {
	const sites, people = 4, 20
	spec := DefaultSite
	spec.People = people
	tr := Generate(sites, spec, 1)
	c := xpath.MustCompile("/sites/site/people/person")
	if got := len(centeval.EvalVector(tr, c)); got != sites*people {
		t.Errorf("persons = %d want %d", got, sites*people)
	}
}

func TestQ3Selectivity(t *testing.T) {
	// age > 20 covers ~96% of the uniform [18,65) range, country=US ~40%,
	// creditcard ~75% -> Q3 should select a substantial but proper subset.
	tr := Generate(2, SiteSpec{People: 400}, 3)
	all := len(centeval.EvalVector(tr, xpath.MustCompile("/sites/site/people/person")))
	sel := len(centeval.EvalVector(tr, xpath.MustCompile(
		`/sites/site/people/person[profile/age > 20 and address/country = "US"]/creditcard`)))
	if sel == 0 || sel >= all {
		t.Errorf("Q3 selected %d of %d persons", sel, all)
	}
	if ratio := float64(sel) / float64(all); ratio < 0.10 || ratio > 0.60 {
		t.Errorf("Q3 selectivity %.2f outside plausible range", ratio)
	}
}

func TestScale(t *testing.T) {
	s := DefaultSite.Scale(2)
	if s.People != 2*DefaultSite.People {
		t.Errorf("Scale(2).People = %d", s.People)
	}
	z := SiteSpec{}.Scale(5)
	if z != (SiteSpec{}) {
		t.Errorf("scaling zero spec = %+v", z)
	}
	small := DefaultSite.Scale(0.0001)
	if small.People < 1 {
		t.Error("scaled counts must stay >= 1 for non-zero fields")
	}
}

func TestCalibrationTargets(t *testing.T) {
	cal := Calibrate()
	if cal.PerPerson <= 0 || cal.PerOpen <= 0 || cal.PerClosed <= 0 || cal.PerItem <= 0 {
		t.Fatalf("calibration not positive: %+v", cal)
	}
	for _, target := range []int{50_000, 200_000, 1_000_000} {
		spec := cal.SpecForBytes(target)
		got := GenerateSites([]SiteSpec{spec}, 9).ComputeStats().Bytes
		lo, hi := target*7/10, target*13/10
		if got < lo || got > hi {
			t.Errorf("target %d bytes: generated %d (spec %+v)", target, got, spec)
		}
	}
}

func TestSerializeParseRoundTrip(t *testing.T) {
	tr := Generate(1, DefaultSite.Scale(0.3), 5)
	doc := xmltree.SerializeString(tr.Root)
	back, err := xmltree.ParseString(doc)
	if err != nil {
		t.Fatal(err)
	}
	if !xmltree.DeepEqual(tr.Root, back.Root) {
		t.Fatal("round trip lost structure")
	}
}

func BenchmarkGenerateSite(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = Generate(1, DefaultSite, int64(i))
	}
}
