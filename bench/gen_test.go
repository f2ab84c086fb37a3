package main

import (
	"context"
	"strings"
	"testing"

	"paxq"
)

func TestBibliographyIsAPureFunctionOfSeed(t *testing.T) {
	a, b := genBibliography(7), genBibliography(7)
	if a != b {
		t.Fatal("same seed, different bytes")
	}
	if a == genBibliography(8) {
		t.Fatal("different seeds, same bytes")
	}
	if n := len(a); n < 900_000 || n > 1_200_000 {
		t.Errorf("bibliography is %d bytes, want about 1 MB", n)
	}
	if strings.Contains(a, "<!ENTITY") || strings.Contains(a, "&uuml;") {
		t.Error("bibliography uses DTD entities")
	}
	if n := strings.Count(a, "<bib>"); n != bibSections {
		t.Errorf("%d <bib> sections, want %d", n, bibSections)
	}
	if n := strings.Count(a, " key=\""); n != bibSections*bibEntriesPerBlock {
		t.Errorf("%d keyed entries, want %d", n, bibSections*bibEntriesPerBlock)
	}
	if _, err := paxq.ParseDocumentString(a); err != nil {
		t.Fatalf("bibliography does not parse: %v", err)
	}
}

func TestBibShipQueriesReturnAtLeast200KB(t *testing.T) {
	ctx := context.Background()
	w, _ := workloadByName("bib_ship")
	doc, c, err := deploy(w, w.prepare(3))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	classes := w.classes()
	if err := gate(ctx, c, doc, classes); err != nil {
		t.Fatal(err)
	}
	for _, cl := range classes {
		if cl.xmlLen < 200_000 {
			t.Errorf("%s ships %d bytes of XML, want at least 200 KB", cl.name, cl.xmlLen)
		}
	}
}

func TestColdStreamIsAPureFunctionOfSeed(t *testing.T) {
	const n = 4096
	a, b := newColdStream(11), newColdStream(11)
	distinct := make(map[string]bool, n)
	var queries []string
	for i := 0; i < n; i++ {
		q := a.next()
		if q2 := b.next(); q != q2 {
			t.Fatalf("query %d differs between two streams of one seed: %q vs %q", i, q, q2)
		}
		if distinct[q] {
			t.Fatalf("query %d repeats: %q", i, q)
		}
		distinct[q] = true
		queries = append(queries, q)
	}
	if c := newColdStream(12); c.next() == queries[0] {
		t.Error("different seeds start with the same query")
	}

	// Non-empty answers, on the XMark document the workload queries.
	// Every 8th query: 512 centralized evaluations.
	w, _ := workloadByName("qual_cold")
	doc, err := w.load("")
	if err != nil {
		t.Fatal(err)
	}
	checked, nonEmpty := 0, 0
	for i := 0; i < n; i += 8 {
		ans, err := paxq.EvaluateCentralized(doc, queries[i])
		if err != nil {
			t.Fatalf("%s: %v", queries[i], err)
		}
		checked++
		if len(ans) > 0 {
			nonEmpty++
		}
	}
	if nonEmpty*10 < checked*9 {
		t.Errorf("%d of %d cold queries have answers, want at least 90%%", nonEmpty, checked)
	}
}
