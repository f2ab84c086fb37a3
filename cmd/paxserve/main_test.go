package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"paxq"
)

// brokerDoc is the document behind the package quick start's query.
const brokerDoc = `<clientele>
  <client><country>US</country>
    <broker><name>Smith</name>
      <market><name>NASDAQ</name>
        <stock><code>GOOG</code><buy>500</buy><qt>100</qt></stock>
      </market>
    </broker>
  </client>
  <client><country>Canada</country>
    <broker><name>Jones</name>
      <market><name>NYSE</name>
        <stock><code>YHOO</code><buy>30</buy><qt>50</qt></stock>
      </market>
    </broker>
  </client>
</clientele>`

func testServer(t *testing.T, transport paxq.TransportKind) *httptest.Server {
	t.Helper()
	doc, err := paxq.ParseDocumentString(brokerDoc)
	if err != nil {
		t.Fatal(err)
	}
	cluster, err := paxq.NewCluster(doc, paxq.ClusterOptions{
		CutPaths:  []string{"//broker"},
		Sites:     2,
		Transport: transport,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cluster.Close)
	ts := httptest.NewServer(newServer(cluster, 0).handler())
	t.Cleanup(ts.Close)
	return ts
}

func decodeQueryResponse(t *testing.T, resp *http.Response) queryResponse {
	t.Helper()
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %s", resp.Status)
	}
	var qr queryResponse
	if err := json.NewDecoder(resp.Body).Decode(&qr); err != nil {
		t.Fatal(err)
	}
	return qr
}

// TestServeQuickstartQuery serves the package quick start's query over
// HTTP: GET and POST, checking answers and the per-query stats.
func TestServeQuickstartQuery(t *testing.T) {
	ts := testServer(t, paxq.TransportLocal)
	query := `//broker[//stock/code = "GOOG"]/name`

	resp, err := http.Get(ts.URL + "/query?q=" + "//broker//name")
	if err != nil {
		t.Fatal(err)
	}
	if qr := decodeQueryResponse(t, resp); len(qr.Answers) != 4 {
		t.Fatalf("GET //broker//name: %d answers, want 4", len(qr.Answers))
	}

	body, _ := json.Marshal(queryRequest{Query: query, Algorithm: "pax3"})
	resp, err = http.Post(ts.URL+"/query", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	qr := decodeQueryResponse(t, resp)
	if len(qr.Answers) != 1 || qr.Answers[0].Value != "Smith" {
		t.Fatalf("answers = %+v, want the GOOG broker Smith", qr.Answers)
	}
	if qr.Stats == nil || qr.Stats.Algorithm != "PaX3" {
		t.Fatalf("stats = %+v", qr.Stats)
	}
	if qr.Stats.MaxSiteVisits > 3 {
		t.Errorf("MaxSiteVisits = %d, want <= 3", qr.Stats.MaxSiteVisits)
	}
}

// TestServeConcurrentRequests hammers the server from many goroutines over
// the TCP transport; every response must carry its own within-bound stats.
func TestServeConcurrentRequests(t *testing.T) {
	ts := testServer(t, paxq.TransportTCP)
	queries := []string{
		`//broker[//stock/code = "GOOG"]/name`,
		"//stock/code",
		"//client/country",
		"//market/name",
	}
	const workers = 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 3; i++ {
				body, _ := json.Marshal(queryRequest{Query: queries[(w+i)%len(queries)], Algorithm: "pax3"})
				resp, err := http.Post(ts.URL+"/query", "application/json", bytes.NewReader(body))
				if err != nil {
					t.Errorf("worker %d: %v", w, err)
					return
				}
				qr := decodeQueryResponse(t, resp)
				if qr.Stats.MaxSiteVisits > 3 {
					t.Errorf("worker %d: MaxSiteVisits = %d", w, qr.Stats.MaxSiteVisits)
				}
			}
		}()
	}
	wg.Wait()

	resp, err := http.Get(ts.URL + "/statsz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var stats map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if got := stats["queries"].(float64); got != workers*3 {
		t.Errorf("statsz queries = %v, want %d", got, workers*3)
	}
}

// TestServeErrors covers the failure surface: bad syntax, missing query,
// wrong method.
func TestServeErrors(t *testing.T) {
	ts := testServer(t, paxq.TransportLocal)
	for _, tc := range []struct {
		name   string
		do     func() (*http.Response, error)
		status int
	}{
		{"bad syntax", func() (*http.Response, error) {
			return http.Get(ts.URL + "/query?q=" + "%5B%5B%5B")
		}, http.StatusBadRequest},
		{"missing query", func() (*http.Response, error) {
			return http.Get(ts.URL + "/query")
		}, http.StatusBadRequest},
		{"wrong method", func() (*http.Response, error) {
			req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/query", nil)
			return http.DefaultClient.Do(req)
		}, http.StatusMethodNotAllowed},
	} {
		resp, err := tc.do()
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		var e errorResponse
		if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.status || e.Error == "" {
			t.Errorf("%s: status %d body %+v, want %d with error", tc.name, resp.StatusCode, e, tc.status)
		}
	}

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var h map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if h["status"] != "ok" || h["fragments"].(float64) < 2 {
		t.Errorf("healthz = %v", h)
	}
}

// TestServeUnknownAlgorithmIs400: a client-input error must never be
// classified as a cluster-side 502. The NaiveCentralized baseline is not
// a served algorithm either.
func TestServeUnknownAlgorithmIs400(t *testing.T) {
	ts := testServer(t, paxq.TransportLocal)
	for _, algo := range []string{"bogus", "naive"} {
		body, _ := json.Marshal(queryRequest{Query: "//stock/code", Algorithm: algo})
		resp, err := http.Post(ts.URL+"/query", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("algorithm %q: status = %s, want 400", algo, resp.Status)
		}
	}
}
