package main

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
)

// The generators below are pure functions of their seed: the same seed
// yields byte-identical bibliography text and an identical query stream
// (gen_test.go holds them to that).

// Bibliography shape. The entry count and the article/inproceedings
// alternation are fixed so that answer sizes — and with them wire bytes
// and allocations per query — stay comparable across seeds; the seed
// drives every name, title, year and key.
const (
	bibSections        = 16
	bibEntriesPerBlock = 150
)

var (
	bibFirst    = []string{"Anna", "Kim", "Lisa", "Omar", "Chen", "Ravi", "Maya", "Jose", "Elena", "Piotr", "Aiko", "Lars", "Nikolaus", "Christine", "Willi", "Daniel"}
	bibLast     = []string{"Smith", "Garcia", "Mueller", "Tanaka", "Olsen", "Rossi", "Dubois", "Novak", "Silva", "Kumar", "Augsten", "Kocher", "Schmitt", "Thiel", "Mann", "Miller"}
	bibWords    = []string{"Distributed", "Query", "Evaluation", "Performance", "Guarantees", "Partial", "Fragmented", "Trees", "Similarity", "Joins", "Index", "Stable", "Signature", "Scheme", "Incremental", "Maintenance", "Boolean", "XPath", "Streams", "Clustering", "Flexible", "Exact", "Density", "Documents"}
	bibJournals = []struct{ key, name string }{
		{"pvldb", "Proc. VLDB Endow."}, {"tods", "ACM Trans. Database Syst."}, {"vldbj", "VLDB J."}, {"pacmmod", "Proc. ACM Manag. Data"},
	}
	bibConfs = []struct{ key, name string }{
		{"sigmod", "SIGMOD Conference"}, {"vldb", "VLDB"}, {"icde", "ICDE"}, {"pods", "PODS"},
	}
)

// genBibliography renders a DBLP-shaped bibliography as XML text: a
// <dblp> root over bibSections <bib> sections, each a wide, shallow run of
// <article>/<inproceedings> entries carrying key and mdate attributes —
// the opposite tree shape from XMark (SNIPPETS.md Snippet 2, minus the DTD
// entities). About 1 MB.
func genBibliography(seed int64) string {
	r := rand.New(rand.NewSource(seed))
	var b strings.Builder
	b.Grow(1 << 20)
	b.WriteString("<?xml version=\"1.0\" encoding=\"UTF-8\"?>\n<dblp>\n")
	for s := 0; s < bibSections; s++ {
		b.WriteString("<bib>\n")
		for i := 0; i < bibEntriesPerBlock; i++ {
			writeBibEntry(&b, r, i%2 == 0)
		}
		b.WriteString("</bib>\n")
	}
	b.WriteString("</dblp>\n")
	return b.String()
}

func writeBibEntry(b *strings.Builder, r *rand.Rand, article bool) {
	year := 1995 + r.Intn(30)
	lead := bibLast[r.Intn(len(bibLast))]
	suffix := fmt.Sprintf("%s%02d%c", lead, year%100, 'a'+rune(r.Intn(26)))
	tag, venueKey, venue := "inproceedings", "", ""
	if article {
		j := bibJournals[r.Intn(len(bibJournals))]
		tag, venueKey, venue = "article", "journals/"+j.key, j.name
	} else {
		c := bibConfs[r.Intn(len(bibConfs))]
		venueKey, venue = "conf/"+c.key, c.name
	}
	fmt.Fprintf(b, "\t<%s mdate=\"%d-%02d-%02d\" key=\"%s/%s\">\n", tag, 2015+r.Intn(10), 1+r.Intn(12), 1+r.Intn(28), venueKey, suffix)
	fmt.Fprintf(b, "\t\t<author>%s %s</author>\n", bibFirst[r.Intn(len(bibFirst))], lead)
	for a := r.Intn(4); a > 0; a-- {
		fmt.Fprintf(b, "\t\t<author>%s %s</author>\n", bibFirst[r.Intn(len(bibFirst))], bibLast[r.Intn(len(bibLast))])
	}
	b.WriteString("\t\t<title>")
	for w, n := 0, 5+r.Intn(5); w < n; w++ {
		if w > 0 {
			b.WriteByte(' ')
		}
		b.WriteString(bibWords[r.Intn(len(bibWords))])
	}
	b.WriteString(".</title>\n")
	first := 1 + r.Intn(3000)
	fmt.Fprintf(b, "\t\t<pages>%d-%d</pages>\n\t\t<year>%d</year>\n", first, first+8+r.Intn(20), year)
	if article {
		fmt.Fprintf(b, "\t\t<volume>%d</volume>\n\t\t<journal>%s</journal>\n\t\t<number>%d</number>\n", 1+r.Intn(40), venue, 1+r.Intn(12))
	} else {
		fmt.Fprintf(b, "\t\t<booktitle>%s</booktitle>\n\t\t<crossref>%s/%d</crossref>\n", venue, venueKey, year)
	}
	fmt.Fprintf(b, "\t\t<ee>https://doi.org/10.%d/%d.%d</ee>\n", 1000+r.Intn(9000), 1000000+r.Intn(9000000), 1000000+r.Intn(9000000))
	fmt.Fprintf(b, "\t\t<url>db/%s/%s.html#%s</url>\n\t</%s>\n", venueKey, venueKey[strings.IndexByte(venueKey, '/')+1:], suffix, tag)
}

// xmarkCountries are the country constants the XMark generator draws
// from, without its repeats.
var xmarkCountries = []string{"US", "Canada", "Germany", "Japan", "Brazil", "India", "France"}

// coldTemplates are the qualified query shapes of the cold stream, one per
// XMark entity kind (two for person: the paper's own qualifier shape and a
// disjunctive one). Each takes two parameters u[0], u[1] in [0,1): a
// fractional numeric threshold, so that the space of distinct strings is
// far larger than any run consumes, a country or a second threshold, and
// ranges chosen so that nearly every instance has answers.
var coldTemplates = []func(u [2]float64) string{
	func(u [2]float64) string {
		return fmt.Sprintf(`/sites/site/people/person[profile/age > %.3f and address/country = "%s"]/creditcard`,
			18+30*u[0], xmarkCountries[int(u[1]*float64(len(xmarkCountries)))])
	},
	func(u [2]float64) string {
		return fmt.Sprintf(`/sites/site/open_auctions/open_auction[initial > %.3f and quantity > %d]/current`,
			5+150*u[0], int(4*u[1]))
	},
	func(u [2]float64) string {
		return fmt.Sprintf(`/sites//closed_auction[price > %.3f and quantity < %d]/buyer`,
			10+400*u[0], 3+int(4*u[1]))
	},
	func(u [2]float64) string {
		return fmt.Sprintf(`/sites/site/regions//item[location = "%s" and quantity > %.3f]/name`,
			xmarkCountries[int(u[1]*float64(len(xmarkCountries)))], 7*u[0])
	},
	func(u [2]float64) string {
		return fmt.Sprintf(`/sites//people/person[profile/age < %.3f or address/country = "%s"]/emailaddress`,
			19+40*u[0], xmarkCountries[int(u[1]*float64(len(xmarkCountries)))])
	},
}

// coldAlphas are the irrational steps of the stream's additive recurrences
// (fractional parts of the golden ratio and sqrt 2).
var coldAlphas = [2]float64{0.6180339887498949, 0.41421356237309515}

// coldStream yields qualified queries that never repeat: query i is an
// instance of template i mod len(coldTemplates). The working set is
// therefore unbounded against the engine's 256-entry plan and compile
// caches.
//
// The parameters of a template's n-th instance are frac(offset + n·alpha)
// per dimension, the offsets drawn from the seed. Such a sequence covers
// [0,1) evenly whatever its offset, so two seeds ask different queries but
// nearly the same distribution of thresholds — and with it of answer
// sizes, wire bytes and site work — where independent random draws moved
// wire bytes per query by over a percent between seeds.
type coldStream struct {
	offset [2]float64
	seen   map[string]bool
	i      int // queries yielded
	n      int // parameter points consumed
}

func newColdStream(seed int64) *coldStream {
	r := rand.New(rand.NewSource(seed))
	return &coldStream{offset: [2]float64{r.Float64(), r.Float64()}, seen: make(map[string]bool)}
}

func (s *coldStream) next() string {
	tmpl := coldTemplates[s.i%len(coldTemplates)]
	s.i++
	for {
		var u [2]float64
		for d := range u {
			_, u[d] = math.Modf(s.offset[d] + float64(s.n)*coldAlphas[d])
		}
		s.n++
		if q := tmpl(u); !s.seen[q] {
			s.seen[q] = true
			return q
		}
	}
}
