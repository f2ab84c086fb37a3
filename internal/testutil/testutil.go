// Package testutil provides deterministic random generators of trees,
// queries and fragmentations shared by the test suites of the evaluation
// engines, the running-example tree of the paper (Fig. 1), a
// bibliography-shaped tree, and a heap-byte ruler.
package testutil

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"runtime/debug"

	"paxq/internal/xmltree"
	"paxq/internal/xpath"
)

// Labels is the small alphabet random trees and queries draw from, chosen
// small so that random queries hit random trees often.
var Labels = []string{"a", "b", "c", "d", "e"}

// Values is the value alphabet for text content.
var Values = []string{"x", "y", "z", "10", "25", "40"}

// PaperTree builds the clientele tree of Fig. 1 of the paper.
func PaperTree() *xmltree.Tree {
	el, tx := xmltree.El, xmltree.ElT
	root := el("clientele",
		el("client",
			tx("name", "Anna"),
			tx("country", "US"),
			el("broker",
				tx("name", "E*trade"),
				el("market",
					tx("name", "NYSE"),
					el("stock", tx("code", "IBM"), tx("buy", "80"), tx("qt", "50")),
				),
				el("market",
					tx("name", "NASDAQ"),
					el("stock", tx("code", "YHOO"), tx("buy", "33"), tx("qt", "40")),
					el("stock", tx("code", "GOOG"), tx("buy", "374"), tx("qt", "40")),
				),
			),
		),
		el("client",
			tx("name", "Kim"),
			tx("country", "US"),
			el("broker",
				tx("name", "Bache"),
				el("market",
					tx("name", "NASDAQ"),
					el("stock", tx("code", "GOOG"), tx("buy", "370"), tx("qt", "75")),
				),
			),
		),
		el("client",
			tx("name", "Lisa"),
			tx("country", "Canada"),
			el("broker",
				tx("name", "CIBC"),
				el("market",
					tx("name", "TSE"),
					el("stock", tx("code", "GOOG"), tx("buy", "382"), tx("qt", "90")),
				),
			),
		),
	)
	return xmltree.NewTree(root)
}

// RandomTree builds a deterministic pseudo-random tree with about size
// element nodes over the Labels/Values alphabets.
func RandomTree(seed int64, size int) *xmltree.Tree {
	r := rand.New(rand.NewSource(seed))
	budget := size - 1
	root := xmltree.NewElement("root")
	for budget > 0 {
		root.Append(randomNode(r, &budget))
	}
	return xmltree.NewTree(root)
}

func randomNode(r *rand.Rand, budget *int) *xmltree.Node {
	n := xmltree.NewElement(Labels[r.Intn(len(Labels))])
	*budget--
	if r.Intn(3) == 0 {
		n.Append(xmltree.NewText(Values[r.Intn(len(Values))]))
	}
	for *budget > 0 && r.Intn(3) != 0 {
		n.Append(randomNode(r, budget))
	}
	return n
}

// RandomQuery generates a deterministic pseudo-random query in the fragment
// X over the Labels/Values alphabets: up to four selection steps with mixed
// axes and wildcards, qualifiers with nesting, negation, conjunction,
// disjunction and text()/val() comparisons.
func RandomQuery(seed int64) string {
	r := rand.New(rand.NewSource(seed))
	return randomPath(r, true, 1+r.Intn(4), 2)
}

func randomPath(r *rand.Rand, selection bool, steps, qualDepth int) string {
	s := ""
	for i := 0; i < steps; i++ {
		sep := "/"
		if r.Intn(4) == 0 {
			sep = "//"
		}
		if i == 0 {
			if selection {
				// Mix absolute and relative queries. Relative queries omit
				// the separator entirely (unless descendant).
				switch r.Intn(3) {
				case 0:
					sep = ""
				case 1:
					sep = "/"
				default:
					sep = "//"
				}
			} else {
				// Qualifier paths are relative; allow a leading //.
				if sep == "/" {
					sep = ""
				}
			}
		}
		label := Labels[r.Intn(len(Labels))]
		if r.Intn(8) == 0 {
			label = "*"
		}
		s += sep + label
		if qualDepth > 0 && r.Intn(3) == 0 {
			s += "[" + randomCond(r, qualDepth) + "]"
		}
	}
	return s
}

func randomCond(r *rand.Rand, depth int) string {
	switch r.Intn(6) {
	case 0:
		if depth > 0 {
			return "not(" + randomCond(r, depth-1) + ")"
		}
	case 1:
		if depth > 0 {
			return randomCond(r, depth-1) + " and " + randomCond(r, depth-1)
		}
	case 2:
		if depth > 0 {
			return randomCond(r, depth-1) + " or " + randomCond(r, depth-1)
		}
	case 3:
		v := Values[r.Intn(len(Values))]
		return randomPath(r, false, 1+r.Intn(2), 0) + fmt.Sprintf(" = %q", v)
	case 4:
		ops := []string{"=", "!=", "<", "<=", ">", ">="}
		return randomPath(r, false, 1+r.Intn(2), 0) +
			fmt.Sprintf("/val() %s %d", ops[r.Intn(len(ops))], 5+r.Intn(40))
	}
	return randomPath(r, false, 1+r.Intn(3), max(0, depth-1))
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// IDsOfNodes maps nodes to their IDs.
func IDsOfNodes(nodes []*xmltree.Node) []xmltree.NodeID {
	out := make([]xmltree.NodeID, len(nodes))
	for i, n := range nodes {
		out[i] = n.ID
	}
	return out
}

// EqualIDs reports whether two ID slices are identical.
func EqualIDs(a, b []xmltree.NodeID) bool {
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

// MustCompile compiles src, panicking on error (test helper).
func MustCompile(src string) *xpath.Compiled { return xpath.MustCompile(src) }

// BibTree builds a bibliography-shaped document: a <dblp> root over
// sections <bib> sections, each holding perSection <article> entries
// followed by as many <inproceedings>, every entry with a key attribute,
// an author, a title and a year.
func BibTree(sections, perSection int) *xmltree.Tree {
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
	return xmltree.NewTree(root)
}

// BytesPerRun returns the heap bytes one call of f allocates: the least
// of five rounds' averages over runs calls each, after runs calls to warm
// caches and pools. The collector is off while it measures, so no
// collection empties the sync.Pools f draws from, and the least round
// leaves out the odd pool miss of a call that found another goroutine
// holding a buffer.
func BytesPerRun(runs int, f func()) float64 {
	for range runs {
		f()
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	least := math.Inf(1)
	for range 5 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range runs {
			f()
		}
		runtime.ReadMemStats(&after)
		least = min(least, float64(after.TotalAlloc-before.TotalAlloc)/float64(runs))
	}
	return least
}
