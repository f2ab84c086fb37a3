package paxq

import (
	"slices"
	"sort"
	"strings"
	"testing"
)

const clienteleXML = `<clientele>
  <client><name>Anna</name><country>US</country>
    <broker><name>Etrade</name>
      <market><name>NYSE</name><stock><code>IBM</code><buy>80</buy><qt>50</qt></stock></market>
      <market><name>NASDAQ</name><stock><code>GOOG</code><buy>374</buy><qt>40</qt></stock></market>
    </broker>
  </client>
  <client><name>Lisa</name><country>Canada</country>
    <broker><name>CIBC</name>
      <market><name>TSE</name><stock><code>GOOG</code><buy>382</buy><qt>90</qt></stock></market>
    </broker>
  </client>
</clientele>`

func demoCluster(t *testing.T, opts ClusterOptions) *Cluster {
	t.Helper()
	doc, err := ParseDocumentString(clienteleXML)
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewCluster(doc, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c
}

func values(ans []Answer) []string {
	out := make([]string, len(ans))
	for i, a := range ans {
		out[i] = a.Value
	}
	sort.Strings(out)
	return out
}

func TestDocumentBasics(t *testing.T) {
	doc, err := ParseDocumentString(clienteleXML)
	if err != nil {
		t.Fatal(err)
	}
	if doc.Nodes() < 20 || doc.Bytes() <= 0 {
		t.Errorf("Nodes=%d Bytes=%d", doc.Nodes(), doc.Bytes())
	}
	if !strings.HasPrefix(doc.XML(), "<clientele>") {
		t.Errorf("XML = %.40q", doc.XML())
	}
	if _, err := ParseDocumentString("<broken"); err == nil {
		t.Error("broken XML must fail")
	}
}

func TestEvaluateDefault(t *testing.T) {
	c := demoCluster(t, ClusterOptions{Fragments: 4, Sites: 2, Seed: 3})
	ans, err := c.Evaluate(`//broker[//stock/code = "GOOG"]/name`)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"CIBC", "Etrade"}
	if got := values(ans); strings.Join(got, ",") != strings.Join(want, ",") {
		t.Errorf("got %v want %v", got, want)
	}
}

func TestQueryAllAlgorithms(t *testing.T) {
	c := demoCluster(t, ClusterOptions{Fragments: 3, Seed: 5})
	for _, algo := range []string{"pax2", "pax3", "PaX2"} {
		ans, stats, err := c.Query("client/name", QueryOptions{Algorithm: algo})
		if err != nil {
			t.Fatalf("%s: %v", algo, err)
		}
		if got := values(ans); strings.Join(got, ",") != "Anna,Lisa" {
			t.Errorf("%s: %v", algo, got)
		}
		if stats.TotalFrags != c.Fragments() {
			t.Errorf("%s: stats %+v", algo, stats)
		}
	}
	// The NaiveCentralized baseline is not a served algorithm.
	for _, algo := range []string{"quantum", "naive", "NAIVE"} {
		if _, _, err := c.Query("x", QueryOptions{Algorithm: algo}); err == nil {
			t.Errorf("algorithm %q must fail", algo)
		}
	}
	if _, _, err := c.Query("][", QueryOptions{}); err == nil {
		t.Error("bad query must fail")
	}
}

func TestCutPaths(t *testing.T) {
	c := demoCluster(t, ClusterOptions{CutPaths: []string{"//broker", "//market"}})
	// 2 brokers + 3 markets + root = 6 fragments.
	if c.Fragments() != 6 {
		t.Errorf("fragments = %d want 6", c.Fragments())
	}
	ans, err := c.Evaluate("//stock/code")
	if err != nil {
		t.Fatal(err)
	}
	if len(ans) != 3 {
		t.Errorf("answers = %v", ans)
	}
}

func TestCutPathsBadQuery(t *testing.T) {
	doc, _ := ParseDocumentString(clienteleXML)
	if _, err := NewCluster(doc, ClusterOptions{CutPaths: []string{"]["}}); err == nil {
		t.Error("bad cut path must fail")
	}
}

func TestCutPathsRootIgnored(t *testing.T) {
	// Selecting the root as a cut point is silently skipped.
	c := demoCluster(t, ClusterOptions{CutPaths: []string{"/clientele", "//broker"}})
	if c.Fragments() != 3 {
		t.Errorf("fragments = %d want 3", c.Fragments())
	}
}

func TestMaxFragmentNodes(t *testing.T) {
	c := demoCluster(t, ClusterOptions{MaxFragmentNodes: 12})
	if c.Fragments() < 2 {
		t.Errorf("size-based fragmentation produced %d fragments", c.Fragments())
	}
	ans, err := c.Evaluate("client/name")
	if err != nil {
		t.Fatal(err)
	}
	if len(ans) != 2 {
		t.Errorf("answers = %v", ans)
	}
}

func TestTCPTransport(t *testing.T) {
	c := demoCluster(t, ClusterOptions{Fragments: 3, Sites: 2, Transport: TransportTCP, Seed: 9})
	ans, stats, err := c.Query(`//stock[buy/val() > 380]/code`, QueryOptions{Algorithm: "pax2", Annotations: true})
	if err != nil {
		t.Fatal(err)
	}
	if got := values(ans); strings.Join(got, ",") != "GOOG" {
		t.Errorf("got %v", got)
	}
	if stats.MaxSiteVisits > 2 {
		t.Errorf("PaX2 visits = %d", stats.MaxSiteVisits)
	}
	// The one-visit Boolean protocol also runs over TCP.
	ok, err := c.EvaluateBool(`[//stock/code = "IBM"]`)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Error("IBM exists")
	}
}

func TestShipXMLOption(t *testing.T) {
	c := demoCluster(t, ClusterOptions{Fragments: 3, Seed: 2})
	ans, _, err := c.Query(`//stock[code = "IBM"]`, QueryOptions{ShipXML: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(ans) != 1 || !strings.Contains(ans[0].XML, "<code>IBM</code>") {
		t.Errorf("answers = %+v", ans)
	}
}

func TestEvaluateBool(t *testing.T) {
	c := demoCluster(t, ClusterOptions{Fragments: 4, Seed: 7})
	got, err := c.EvaluateBool(`[//stock/code = "GOOG"]`)
	if err != nil {
		t.Fatal(err)
	}
	if !got {
		t.Error("GOOG exists")
	}
	got, err = c.EvaluateBool(`[//stock/code = "MSFT"]`)
	if err != nil {
		t.Fatal(err)
	}
	if got {
		t.Error("MSFT does not exist")
	}
	if _, err := c.EvaluateBool("]["); err == nil {
		t.Error("bad query must fail")
	}
}

func TestEvaluateCentralized(t *testing.T) {
	doc, _ := ParseDocumentString(clienteleXML)
	ans, err := EvaluateCentralized(doc, `client[country = "US"]/name`)
	if err != nil {
		t.Fatal(err)
	}
	if len(ans) != 1 || ans[0].Value != "Anna" || ans[0].XML != "<name>Anna</name>" {
		t.Errorf("answers = %+v", ans)
	}
	if _, err := EvaluateCentralized(doc, "]["); err == nil {
		t.Error("bad query must fail")
	}
}

// TestShipXMLCrossingMatchesCentralized holds every ShipXML answer of
// Cluster.Query to the centralized oracle's XML on a cut where many
// answers cross fragment boundaries (XMark 0.5 MB in 128 fragments), for
// both algorithms, with and without annotations, over both transports.
func TestShipXMLCrossingMatchesCentralized(t *testing.T) {
	doc := GenerateXMark(1, 0.5, 0)
	const query = "/sites/site/people/person"
	want, err := EvaluateCentralized(doc, query)
	if err != nil {
		t.Fatal(err)
	}
	xmls := func(ans []Answer) []string {
		out := make([]string, len(ans))
		for i, a := range ans {
			out[i] = a.XML
		}
		slices.Sort(out)
		return out
	}
	wantXML := xmls(want)
	for _, tr := range []TransportKind{TransportLocal, TransportTCP} {
		c, err := NewCluster(doc, ClusterOptions{Fragments: 128, Sites: 4, Transport: tr})
		if err != nil {
			t.Fatal(err)
		}
		for _, opts := range []QueryOptions{
			{Algorithm: "pax3", ShipXML: true},
			{Algorithm: "pax2", ShipXML: true},
			{Algorithm: "pax2", Annotations: true, ShipXML: true},
		} {
			got, st, err := c.Query(query, opts)
			if err != nil {
				t.Fatalf("%v %+v: %v", tr, opts, err)
			}
			if !slices.Equal(xmls(got), wantXML) {
				t.Errorf("%v %+v: %d answers ship XML other than the oracle's %d", tr, opts, len(got), len(want))
			}
			if bound := map[string]int{"pax3": 3, "pax2": 2}[opts.Algorithm]; st.MaxSiteVisits > bound {
				t.Errorf("%v %+v: %d visits to one site, bound %d", tr, opts, st.MaxSiteVisits, bound)
			}
		}
		c.Close()
	}
}

func TestCompileCheckAndNormalForm(t *testing.T) {
	if err := CompileCheck("//a[b]/c"); err != nil {
		t.Errorf("valid query rejected: %v", err)
	}
	if err := CompileCheck("]["); err == nil {
		t.Error("invalid query accepted")
	}
	nf, err := NormalForm(`client[country/text() = "us"]/name`)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(nf, "ε[country") {
		t.Errorf("normal form = %q", nf)
	}
	if _, err := NormalForm("]["); err == nil {
		t.Error("invalid query accepted by NormalForm")
	}
}

func TestStatsConsistency(t *testing.T) {
	c := demoCluster(t, ClusterOptions{Fragments: 4, Seed: 11})
	_, stats, err := c.Query(`//broker[//stock/code = "GOOG"]/name`, QueryOptions{Algorithm: "pax3"})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Algorithm != "PaX3" || stats.MaxSiteVisits > 3 || stats.Stages > 3 {
		t.Errorf("stats = %+v", stats)
	}
	if stats.BytesSent <= 0 || stats.BytesReceived <= 0 || stats.Wall <= 0 {
		t.Errorf("cost counters not positive: %+v", stats)
	}
}

func TestReplicatedCluster(t *testing.T) {
	c := demoCluster(t, ClusterOptions{Fragments: 4, Sites: 2, Replicas: 2})
	if got := c.Replicas(); got != 2 {
		t.Fatalf("Replicas() = %d, want 2", got)
	}
	if got := c.Sites(); got != 4 {
		t.Fatalf("Sites() = %d, want 4 (2 groups x 2 replicas)", got)
	}
	ans, stats, err := c.Query(`//broker[//stock/code = "GOOG"]/name`, QueryOptions{Algorithm: "pax3"})
	if err != nil {
		t.Fatal(err)
	}
	if got := values(ans); len(got) != 2 || got[0] != "CIBC" || got[1] != "Etrade" {
		t.Errorf("answers = %v", got)
	}
	if stats.Retries != 0 || stats.Failovers != 0 {
		t.Errorf("fault-free stats report %d retries / %d failovers", stats.Retries, stats.Failovers)
	}
	if stats.MaxSiteVisits > 3 {
		t.Errorf("MaxSiteVisits = %d > 3 on a fault-free replicated run", stats.MaxSiteVisits)
	}
	if fo := c.TransportStats().Failover; fo != (FailoverStats{}) {
		t.Errorf("fault-free failover counters = %+v", fo)
	}
}

func TestDrillSiteOutage(t *testing.T) {
	c := demoCluster(t, ClusterOptions{Fragments: 4, Sites: 2, Replicas: 2})
	if err := c.DrillSiteOutage(99, 1, 2); err == nil {
		t.Error("drill against an absent site accepted")
	}
	if err := c.DrillSiteOutage(0, 1, 2); err != nil {
		t.Fatal(err)
	}
	ans, stats, err := c.Query(`//broker[//stock/code = "GOOG"]/name`, QueryOptions{Algorithm: "pax3"})
	if err != nil {
		t.Fatalf("query did not survive the drilled outage: %v", err)
	}
	if got := values(ans); len(got) != 2 || got[0] != "CIBC" || got[1] != "Etrade" {
		t.Errorf("answers = %v", got)
	}
	if stats.Failovers == 0 || stats.Retries == 0 {
		t.Errorf("drilled outage left no failover trace: %d retries / %d failovers", stats.Retries, stats.Failovers)
	}
	if bound := 3 * (1 + stats.Retries); stats.MaxSiteVisits > bound {
		t.Errorf("MaxSiteVisits = %d > failover bound %d", stats.MaxSiteVisits, bound)
	}
	if fo := c.TransportStats().Failover; fo.Failovers == 0 {
		t.Errorf("lifetime failover counters unmoved: %+v", fo)
	}

	tcp := demoCluster(t, ClusterOptions{Fragments: 4, Sites: 2, Replicas: 2, Transport: TransportTCP})
	if err := tcp.DrillSiteOutage(0, 1, 2); err == nil {
		t.Error("outage drill on a TCP fleet accepted; it is in-process only")
	}
}

func mustDoc(t *testing.T) *Document {
	t.Helper()
	doc, err := ParseDocumentString(clienteleXML)
	if err != nil {
		t.Fatal(err)
	}
	return doc
}

func TestRetryPolicyOnUnreplicatedCluster(t *testing.T) {
	// RetryMaxAttempts on an unreplicated cluster is valid (rides out a
	// restart in place) and changes nothing fault-free.
	c := demoCluster(t, ClusterOptions{Fragments: 4, Sites: 2, RetryMaxAttempts: 3})
	ans, stats, err := c.Query(`//name`, QueryOptions{Algorithm: "pax2"})
	if err != nil {
		t.Fatal(err)
	}
	if len(ans) == 0 || stats.Retries != 0 {
		t.Errorf("answers=%d retries=%d", len(ans), stats.Retries)
	}
}

// TestRetryOptionsNeedAttempts: a negative integer option is an error
// that names the field, not silently clamped to a default — a negative
// attempt count, and likewise a negative MaxInFlight (which would serve
// unlimited), Replicas (unreplicated), Sites, Fragments or
// MaxFragmentNodes.
func TestRetryOptionsNeedAttempts(t *testing.T) {
	doc := mustDoc(t)
	for _, c := range []struct {
		field string
		opts  ClusterOptions
	}{
		{"RetryMaxAttempts", ClusterOptions{Fragments: 4, RetryMaxAttempts: -1}},
		{"MaxInFlight", ClusterOptions{Fragments: 4, MaxInFlight: -1}},
		{"Replicas", ClusterOptions{Fragments: 4, Replicas: -2}},
		{"Sites", ClusterOptions{Fragments: 4, Sites: -1}},
		{"Fragments", ClusterOptions{Fragments: -4}},
		{"MaxFragmentNodes", ClusterOptions{MaxFragmentNodes: -10}},
	} {
		if cl, err := NewCluster(doc, c.opts); err == nil {
			cl.Close()
			t.Errorf("NewCluster(%+v) accepted a negative %s", c.opts, c.field)
		} else if !strings.Contains(err.Error(), c.field) {
			t.Errorf("NewCluster(%+v): err = %v, want it to name %s", c.opts, err, c.field)
		}
	}
}
