// Package xmark generates synthetic XML documents in the vocabulary of the
// XMark benchmark [Schmidt et al., VLDB 2002], the workload of the paper's
// experimental study (§6). Documents have a root labelled "sites" whose
// children are whole XMark "site" subtrees, exactly as in the paper's
// datasets, with the element structure that queries Q1–Q4 exercise:
//
//	site/people/person/{name, emailaddress, phone, address/{street, city,
//	     country, zipcode}, creditcard, profile/{interest*, education, age}}
//	site/open_auctions/open_auction/{initial, reserve, bidder*, current,
//	     itemref, seller, annotation/{author, description, happiness}, …}
//	site/closed_auctions/closed_auction/{seller, buyer, itemref, price,
//	     date, quantity, annotation/…}
//	site/regions/{africa|asia|australia|europe|namerica|samerica}/item/…
//
// This generator substitutes for the original XMark binary: Q1–Q4 depend
// on element frequencies and on the distributions
// of person/profile/age and person/address/country, which this generator
// reproduces (ages uniform in [18,65), countries weighted toward "US").
// Generation is deterministic in the seed.
package xmark

import (
	"fmt"
	"math/rand"

	"paxq/internal/xmltree"
)

// SiteSpec sizes one XMark "site" subtree.
type SiteSpec struct {
	People         int // person elements
	OpenAuctions   int // open_auction elements
	ClosedAuctions int // closed_auction elements
	ItemsPerRegion int // item elements per non-namerica region
	NamericaItems  int // item elements in the namerica region
}

// DefaultSite is a balanced site specification.
var DefaultSite = SiteSpec{People: 50, OpenAuctions: 30, ClosedAuctions: 15, ItemsPerRegion: 8, NamericaItems: 8}

// Scale multiplies every count by f (at least keeping zero counts zero).
func (s SiteSpec) Scale(f float64) SiteSpec {
	scale := func(n int) int {
		if n == 0 {
			return 0
		}
		v := int(float64(n)*f + 0.5)
		if v < 1 {
			v = 1
		}
		return v
	}
	return SiteSpec{
		People:         scale(s.People),
		OpenAuctions:   scale(s.OpenAuctions),
		ClosedAuctions: scale(s.ClosedAuctions),
		ItemsPerRegion: scale(s.ItemsPerRegion),
		NamericaItems:  scale(s.NamericaItems),
	}
}

var (
	firstNames = []string{"Anna", "Kim", "Lisa", "Omar", "Chen", "Ravi", "Maya", "Jose", "Elena", "Piotr", "Aiko", "Lars"}
	lastNames  = []string{"Smith", "Garcia", "Mueller", "Tanaka", "Olsen", "Rossi", "Dubois", "Novak", "Silva", "Kumar"}
	countries  = []string{"US", "US", "US", "US", "Canada", "Germany", "Japan", "Brazil", "India", "France"}
	cities     = []string{"Springfield", "Riverton", "Lakeside", "Hillview", "Ashford", "Brookfield"}
	streets    = []string{"Oak St", "Maple Ave", "Pine Rd", "Cedar Ln", "Elm Blvd"}
	educations = []string{"High School", "College", "Graduate School", "Other"}
	words      = []string{"vintage", "rare", "mint", "boxed", "signed", "limited", "classic", "restored", "original", "antique", "custom", "pristine"}
	regions    = []string{"africa", "asia", "australia", "europe", "namerica", "samerica"}
	happiness  = []string{"1", "3", "5", "7", "9", "10"}
)

func pick(r *rand.Rand, xs []string) string { return xs[r.Intn(len(xs))] }

func sentence(r *rand.Rand, n int) string {
	s := ""
	for i := 0; i < n; i++ {
		if i > 0 {
			s += " "
		}
		s += pick(r, words)
	}
	return s
}

// GenerateSites builds a document with one site subtree per spec.
func GenerateSites(specs []SiteSpec, seed int64) *xmltree.Tree {
	r := rand.New(rand.NewSource(seed))
	root := xmltree.NewElement("sites")
	for i, spec := range specs {
		root.Append(genSite(r, i, spec))
	}
	return xmltree.NewTree(root)
}

// Generate builds a document with n identical sites.
func Generate(n int, spec SiteSpec, seed int64) *xmltree.Tree {
	specs := make([]SiteSpec, n)
	for i := range specs {
		specs[i] = spec
	}
	return GenerateSites(specs, seed)
}

func genSite(r *rand.Rand, idx int, spec SiteSpec) *xmltree.Node {
	site := xmltree.NewElement("site")
	site.SetAttr("id", fmt.Sprintf("site%d", idx))
	site.Append(
		genRegions(r, spec),
		genPeople(r, spec.People),
		genOpenAuctions(r, spec.OpenAuctions),
		genClosedAuctions(r, spec.ClosedAuctions),
	)
	return site
}

func genPeople(r *rand.Rand, n int) *xmltree.Node {
	people := xmltree.NewElement("people")
	for i := 0; i < n; i++ {
		p := xmltree.NewElement("person")
		p.SetAttr("id", fmt.Sprintf("person%d", i))
		name := pick(r, firstNames) + " " + pick(r, lastNames)
		p.Append(
			xmltree.ElT("name", name),
			xmltree.ElT("emailaddress", fmt.Sprintf("mailto:p%d@example.com", r.Intn(1_000_000))),
			xmltree.ElT("phone", fmt.Sprintf("+%d (%d) %d", 1+r.Intn(80), 100+r.Intn(900), 1_000_000+r.Intn(9_000_000))),
			xmltree.El("address",
				xmltree.ElT("street", fmt.Sprintf("%d %s", 1+r.Intn(999), pick(r, streets))),
				xmltree.ElT("city", pick(r, cities)),
				xmltree.ElT("country", pick(r, countries)),
				xmltree.ElT("zipcode", fmt.Sprintf("%05d", r.Intn(100000))),
			),
		)
		if r.Intn(4) != 0 { // 75% of persons have a credit card (Q3/Q4 answers)
			p.Append(xmltree.ElT("creditcard", fmt.Sprintf("%04d %04d %04d %04d", r.Intn(10000), r.Intn(10000), r.Intn(10000), r.Intn(10000))))
		}
		profile := xmltree.NewElement("profile")
		for j := r.Intn(3); j > 0; j-- {
			profile.Append(xmltree.ElT("interest", pick(r, words)))
		}
		profile.Append(
			xmltree.ElT("education", pick(r, educations)),
			xmltree.ElT("age", fmt.Sprintf("%d", 18+r.Intn(47))),
		)
		p.Append(profile)
		people.Append(p)
	}
	return people
}

func genAnnotation(r *rand.Rand) *xmltree.Node {
	return xmltree.El("annotation",
		xmltree.ElT("author", pick(r, firstNames)),
		xmltree.El("description",
			xmltree.El("parlist",
				xmltree.ElT("listitem", sentence(r, 3)),
				xmltree.ElT("listitem", sentence(r, 2)),
			),
		),
		xmltree.ElT("happiness", pick(r, happiness)),
	)
}

func genOpenAuctions(r *rand.Rand, n int) *xmltree.Node {
	oa := xmltree.NewElement("open_auctions")
	for i := 0; i < n; i++ {
		a := xmltree.NewElement("open_auction")
		a.SetAttr("id", fmt.Sprintf("open%d", i))
		initial := 5 + r.Intn(200)
		a.Append(
			xmltree.ElT("initial", fmt.Sprintf("%d.%02d", initial, r.Intn(100))),
			xmltree.ElT("reserve", fmt.Sprintf("%d.00", initial+r.Intn(50))),
		)
		price := float64(initial)
		for b := r.Intn(4); b > 0; b-- {
			price += 1 + float64(r.Intn(20))
			a.Append(xmltree.El("bidder",
				xmltree.ElT("date", randDate(r)),
				xmltree.ElT("personref", fmt.Sprintf("person%d", r.Intn(1000))),
				xmltree.ElT("increase", fmt.Sprintf("%.2f", price)),
			))
		}
		a.Append(
			xmltree.ElT("current", fmt.Sprintf("%.2f", price)),
			xmltree.ElT("itemref", fmt.Sprintf("item%d", r.Intn(1000))),
			xmltree.ElT("seller", fmt.Sprintf("person%d", r.Intn(1000))),
			genAnnotation(r),
			xmltree.ElT("quantity", fmt.Sprintf("%d", 1+r.Intn(5))),
			xmltree.ElT("type", "Regular"),
			xmltree.El("interval", xmltree.ElT("start", randDate(r)), xmltree.ElT("end", randDate(r))),
		)
		oa.Append(a)
	}
	return oa
}

func genClosedAuctions(r *rand.Rand, n int) *xmltree.Node {
	ca := xmltree.NewElement("closed_auctions")
	for i := 0; i < n; i++ {
		ca.Append(xmltree.El("closed_auction",
			xmltree.ElT("seller", fmt.Sprintf("person%d", r.Intn(1000))),
			xmltree.ElT("buyer", fmt.Sprintf("person%d", r.Intn(1000))),
			xmltree.ElT("itemref", fmt.Sprintf("item%d", r.Intn(1000))),
			xmltree.ElT("price", fmt.Sprintf("%d.%02d", 10+r.Intn(500), r.Intn(100))),
			xmltree.ElT("date", randDate(r)),
			xmltree.ElT("quantity", fmt.Sprintf("%d", 1+r.Intn(5))),
			genAnnotation(r),
		))
	}
	return ca
}

func genRegions(r *rand.Rand, spec SiteSpec) *xmltree.Node {
	rg := xmltree.NewElement("regions")
	for _, region := range regions {
		n := spec.ItemsPerRegion
		if region == "namerica" {
			n = spec.NamericaItems
		}
		reg := xmltree.NewElement(region)
		for i := 0; i < n; i++ {
			item := xmltree.NewElement("item")
			item.SetAttr("id", fmt.Sprintf("item_%s_%d", region, i))
			item.Append(
				xmltree.ElT("location", pick(r, countries)),
				xmltree.ElT("quantity", fmt.Sprintf("%d", 1+r.Intn(10))),
				xmltree.ElT("name", sentence(r, 2)),
				xmltree.ElT("payment", "Money order, Creditcard"),
				xmltree.El("description", xmltree.ElT("text", sentence(r, 6))),
				xmltree.ElT("shipping", "Will ship internationally"),
				xmltree.El("mailbox",
					xmltree.El("mail",
						xmltree.ElT("from", pick(r, firstNames)),
						xmltree.ElT("to", pick(r, firstNames)),
						xmltree.ElT("date", randDate(r)),
						xmltree.ElT("text", sentence(r, 5)),
					),
				),
			)
			reg.Append(item)
		}
		rg.Append(reg)
	}
	return rg
}

func randDate(r *rand.Rand) string {
	return fmt.Sprintf("%02d/%02d/%d", 1+r.Intn(12), 1+r.Intn(28), 1998+r.Intn(9))
}

// Calibration estimates bytes contributed per unit of each SiteSpec field,
// so callers can size documents in bytes (the paper reports dataset sizes
// in MB).
type Calibration struct {
	Base, PerPerson, PerOpen, PerClosed, PerItem float64
}

// Calibrate measures the generator's output sizes once.
func Calibrate() Calibration {
	measure := func(spec SiteSpec) float64 {
		t := GenerateSites([]SiteSpec{spec}, 1)
		return float64(t.ComputeStats().Bytes)
	}
	zero := SiteSpec{}
	base := measure(zero)
	const probe = 64
	return Calibration{
		Base:      base,
		PerPerson: (measure(SiteSpec{People: probe}) - base) / probe,
		PerOpen:   (measure(SiteSpec{OpenAuctions: probe}) - base) / probe,
		PerClosed: (measure(SiteSpec{ClosedAuctions: probe}) - base) / probe,
		// Items are counted per region; 6 regions (5 + namerica).
		PerItem: (measure(SiteSpec{ItemsPerRegion: probe, NamericaItems: probe}) - base) / (6 * probe),
	}
}

// SpecForBytes returns a spec whose site is approximately target bytes,
// keeping the component mix of DefaultSite.
func (c Calibration) SpecForBytes(target int) SiteSpec {
	d := DefaultSite
	unit := c.Base +
		float64(d.People)*c.PerPerson +
		float64(d.OpenAuctions)*c.PerOpen +
		float64(d.ClosedAuctions)*c.PerClosed +
		float64(5*d.ItemsPerRegion+d.NamericaItems)*c.PerItem
	if unit <= 0 {
		return d
	}
	return d.Scale(float64(target) / unit)
}
