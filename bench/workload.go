package main

import (
	"context"
	"fmt"
	"hash/fnv"
	"math/rand"
	"sort"
	"strings"

	"paxq"
	"paxq/internal/xmark"
	"paxq/internal/xmltree"
)

// Queries Q3 and Q4 of the paper's Fig. 7.
const (
	q3 = `/sites/site/people/person[profile/age > 20 and address/country = "US"]/creditcard`
	q4 = `/sites//people/person[profile/age > 20 and address/country = "US"]/creditcard`
)

// XMark corpus parameters: GenerateXMark(4, 0.5, 1) is about 31 k nodes.
//
// The XMark document and its random fragmentation are pinned to xmarkSeed
// whatever -seed is. A different cut changes the shape of the work — the
// fragment sizes, which fragments the annotations prune, even the number
// of stages a query takes — and moved throughput, wire bytes and edit
// latency by more between seeds than the regression bounds allow between
// commits. -seed drives what can vary without changing that shape: the
// cold stream's constants, the bibliography's content, the edit payloads
// and each client's place in the class rotation.
const (
	xmarkSites = 4
	xmarkMB    = 0.5
	xmarkSeed  = 1
	numSites   = 4
)

// The two algorithm settings every mix alternates between.
var (
	pax2xa = paxq.QueryOptions{Algorithm: "pax2", Annotations: true}
	pax3   = paxq.QueryOptions{Algorithm: "pax3"}
)

// workload is one traffic mix over one corpus. The four of them, and why
// each exists, are listed in BENCHMARK.json and README.md.
type workload struct {
	name string
	// bib selects the DBLP-shaped bibliography (parsed from text, cut at
	// /dblp/bib) instead of XMark (generated, 8 random fragments).
	bib bool
	// cold draws every query string fresh from the cold stream instead of
	// cycling through the hot classes.
	cold bool
	// editsInWindow makes every editEvery-th operation of client 0 an edit.
	// The other workloads run the same edit pairs on the idle deployment
	// after the window, so edit latency is reported everywhere.
	editsInWindow bool
}

var workloads = []workload{
	{name: "qual_hot"},
	{name: "qual_cold", cold: true},
	{name: "bib_ship", bib: true},
	{name: "edit_mix", editsInWindow: true},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// queryClass is one (query, options) pair of a hot mix, with what the
// gate learnt about its answer.
type queryClass struct {
	name  string
	query string
	opts  paxq.QueryOptions

	profile // learnt by gate
}

// profile is what one verified evaluation of a class looked like. Two
// deployments that are the same deployment produce equal profiles when
// each runs its classes first and in the same order.
type profile struct {
	count   int    // answers, verified against the centralized oracle
	xmlLen  int    // total shipped XML length (ShipXML classes)
	where   uint64 // hash of the answers' (fragment, node, XML), in order
	stages  int
	visits  int
	sent    int64
	recv    int64
	relFrag int
}

// visitBound is the paper's per-site visit bound for the class's algorithm.
func visitBound(o paxq.QueryOptions) int {
	if o.Algorithm == "pax3" {
		return 3
	}
	return 2
}

func (w workload) classes() []queryClass {
	if w.bib {
		ship := func(o paxq.QueryOptions) paxq.QueryOptions { o.ShipXML = true; return o }
		return []queryClass{
			{name: "articles/pax2+xa", query: `/dblp/bib/article`, opts: ship(pax2xa)},
			{name: "inproceedings/pax3", query: `//inproceedings`, opts: ship(pax3)},
			{name: "inproceedings/pax2+xa", query: `/dblp/bib/inproceedings`, opts: ship(pax2xa)},
			{name: "articles/pax3", query: `//article`, opts: ship(pax3)},
		}
	}
	return []queryClass{
		{name: "Q3/pax2+xa", query: q3, opts: pax2xa},
		{name: "Q4/pax3", query: q4, opts: pax3},
		{name: "Q4/pax2+xa", query: q4, opts: pax2xa},
		{name: "Q3/pax3", query: q3, opts: pax3},
	}
}

func (w workload) clusterOptions() paxq.ClusterOptions {
	// No performance option is set: whatever NewCluster does by default is
	// what gets measured.
	o := paxq.ClusterOptions{Sites: numSites, Transport: paxq.TransportTCP, Seed: xmarkSeed}
	if w.bib {
		o.CutPaths = []string{"/dblp/bib"}
	} else {
		o.Fragments = 8
	}
	return o
}

// prepare generates what exists before the system is involved: the
// bibliography's XML text. XMark has no text form; its generator is the
// program's own and runs inside set-up.
func (w workload) prepare(seed int64) string {
	if w.bib {
		return genBibliography(seed)
	}
	return ""
}

// load is the "generate-or-parse" half of set-up.
func (w workload) load(text string) (*paxq.Document, error) {
	if w.bib {
		return paxq.ParseDocumentString(text)
	}
	return paxq.GenerateXMark(xmarkSites, xmarkMB, xmarkSeed), nil
}

// loadTree is load for the hand-assembled traced deployment, which needs
// the tree itself: the same calls paxq.GenerateXMark and
// paxq.ParseDocument make.
func (w workload) loadTree(text string) (*xmltree.Tree, error) {
	if w.bib {
		return xmltree.ParseString(text)
	}
	spec := xmark.Calibrate().SpecForBytes(int(xmarkMB * 1e6 / xmarkSites))
	return xmark.Generate(xmarkSites, spec, xmarkSeed), nil
}

// fingerprint renders answers as a sorted multiset of (label, value) — the
// form in which distributed answers are compared with the oracle's.
func fingerprint(ans []paxq.Answer) string {
	rows := make([]string, len(ans))
	for i, a := range ans {
		rows[i] = a.Label + "\x00" + a.Value
	}
	sort.Strings(rows)
	return strings.Join(rows, "\x01")
}

func xmlLen(ans []paxq.Answer) int {
	n := 0
	for _, a := range ans {
		n += len(a.XML)
	}
	return n
}

// checkOracle compares one evaluation's answers with centralized
// evaluation of the same query over the unfragmented document.
func checkOracle(doc *paxq.Document, query string, got []paxq.Answer) error {
	want, err := paxq.EvaluateCentralized(doc, query)
	if err != nil {
		return fmt.Errorf("oracle %s: %w", query, err)
	}
	if fingerprint(got) != fingerprint(want) {
		return fmt.Errorf("%s: %d answers differ from the oracle's %d", query, len(got), len(want))
	}
	return nil
}

// gate runs every hot class once, requires the oracle's answers and the
// paper's visit bound, and records the class's profile: the verified
// answer count and shipped XML length the window then checks every
// evaluation against, and the cost figures the traced deployment must
// reproduce exactly.
// EvaluateCentralized returns no XML, so shipped subtrees are held to this
// first verified run by count and total length.
func gate(ctx context.Context, d deployment, doc *paxq.Document, classes []queryClass) error {
	for i := range classes {
		c := &classes[i]
		ans, st, err := d.QueryContext(ctx, c.query, c.opts)
		if err != nil {
			return fmt.Errorf("gate %s: %w", c.name, err)
		}
		if err := checkOracle(doc, c.query, ans); err != nil {
			return fmt.Errorf("gate %s: %w", c.name, err)
		}
		if st.MaxSiteVisits > visitBound(c.opts) {
			return fmt.Errorf("gate %s: %d visits to one site, bound %d", c.name, st.MaxSiteVisits, visitBound(c.opts))
		}
		if len(ans) == 0 {
			return fmt.Errorf("gate %s: no answers; the workload would measure nothing", c.name)
		}
		h := fnv.New64a()
		for _, a := range ans {
			fmt.Fprintf(h, "%d/%d:%s,", a.Fragment, a.Node, a.XML)
		}
		c.profile = profile{
			count: len(ans), xmlLen: xmlLen(ans), where: h.Sum64(),
			stages: st.Stages, visits: st.MaxSiteVisits, sent: st.BytesSent, recv: st.BytesReceived, relFrag: st.RelevantFrags,
		}
	}
	return nil
}

// editPair is an insert and the delete that undoes it: the document is
// back to its original after every pair, so a run is steady-state and
// checkable against the oracle once quiesced.
type editPair struct {
	insert paxq.Edit
	remove paxq.Edit
}

// editPairs builds the two pairs every workload alternates, both at the
// root of one fragment: one whose labels no query mentions (a <patch>),
// and one that overlaps the hot queries. On XMark the fragment is the one
// holding the first <people> element, and the overlapping subtree is a
// <person> satisfying Q3's qualifier inserted under it; on the
// bibliography it is a section chosen by the seed and an <article>. An
// edit costs the program a copy of the fragment it lands in, so keeping
// both pairs in one fragment keeps the four kinds of edit comparable. The
// inserted subtree becomes the first child of its parent, so in the
// fragment's document-order numbering its root is the parent's id + 1 —
// the delete's target.
func (w workload) editPairs(ctx context.Context, d deployment, fragments int, seed int64) ([]editPair, error) {
	r := rand.New(rand.NewSource(seed))
	pair := func(frag, parent int, xml string) editPair {
		return editPair{
			insert: paxq.Edit{Fragment: frag, Op: paxq.EditInsert, Node: parent, Pos: 0, SubtreeXML: xml},
			remove: paxq.Edit{Fragment: frag, Op: paxq.EditDelete, Node: parent + 1},
		}
	}
	patch := fmt.Sprintf(`<patch><v>%d</v></patch>`, r.Int63())
	if w.bib {
		// Fragment 0 is the <dblp> root; sections are fragments 1..n.
		section := 1 + r.Intn(fragments-1)
		return []editPair{pair(section, 0, patch), pair(section, 0, fmt.Sprintf(
			`<article mdate="2026-01-01" key="journals/bench/Edit%d"><author>Bench Edit</author><title>An Inserted Entry.</title><year>2026</year></article>`, r.Intn(1000)))}, nil
	}
	people, _, err := d.QueryContext(ctx, `/sites/site/people`, pax2xa)
	if err != nil {
		return nil, fmt.Errorf("locating <people>: %w", err)
	}
	if len(people) == 0 {
		return nil, fmt.Errorf("no <people> element to insert under")
	}
	at := people[0]
	return []editPair{pair(at.Fragment, 0, patch), pair(at.Fragment, at.Node, fmt.Sprintf(
		`<person id="bench%d"><name>Bench Edit</name><address><country>US</country></address><creditcard>0000 0000 0000 0000</creditcard><profile><age>33</age></profile></person>`, r.Intn(1000)))}, nil
}
