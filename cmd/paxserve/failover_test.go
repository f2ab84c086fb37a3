package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"paxq"
)

// TestFailoverCountersScrape drives a real failover through the HTTP
// layer and checks it surfaces end to end: a replicated cluster serves a
// query while its primary site is down for a drill, the answer comes
// back unchanged, and the failover counters move in the per-query stats,
// in /metrics (Prometheus text) and in /statsz (JSON).
func TestFailoverCountersScrape(t *testing.T) {
	doc, err := paxq.ParseDocumentString(brokerDoc)
	if err != nil {
		t.Fatal(err)
	}
	cluster, err := paxq.NewCluster(doc, paxq.ClusterOptions{
		CutPaths: []string{"//broker"},
		Sites:    2,
		Replicas: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cluster.Close)
	ts := httptest.NewServer(newServer(cluster, 0).handler())
	t.Cleanup(ts.Close)

	query := `//broker[//stock/code = "GOOG"]/name`
	post := func(phase string) queryResponse {
		t.Helper()
		body, _ := json.Marshal(queryRequest{Query: query, Algorithm: "pax3"})
		resp, err := http.Post(ts.URL+"/query", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		qr := decodeQueryResponse(t, resp)
		if len(qr.Answers) != 1 || qr.Answers[0].Value != "Smith" {
			t.Fatalf("%s: answers = %+v, want [Smith]", phase, qr.Answers)
		}
		return qr
	}

	// Healthy fleet first: the answer, with no failovers.
	if qr := post("healthy"); qr.Stats.Failovers != 0 {
		t.Fatalf("healthy query reported %d failovers", qr.Stats.Failovers)
	}

	// Take the primary of the first replica group down for the next three
	// calls; the default replicated retry policy must rotate to its twin.
	if err := cluster.DrillSiteOutage(0, 1, 2); err != nil {
		t.Fatal(err)
	}
	qr := post("during outage")
	if qr.Stats.Failovers == 0 || qr.Stats.Retries == 0 {
		t.Fatalf("outage query stats = retries %d, failovers %d; want both > 0", qr.Stats.Retries, qr.Stats.Failovers)
	}

	// /metrics: the three failover counters are exposed and non-zero.
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	text := string(raw)
	for _, name := range []string{
		"paxserve_failover_retries_total",
		"paxserve_failovers_total",
		"paxserve_failover_dead_sites_total",
	} {
		if !strings.Contains(text, "# TYPE "+name+" counter") {
			t.Errorf("/metrics missing %s", name)
		}
	}
	for _, nonzero := range []string{"paxserve_failover_retries_total 0\n", "paxserve_failovers_total 0\n", "paxserve_failover_dead_sites_total 0\n"} {
		if strings.Contains(text, nonzero) {
			t.Errorf("/metrics still reports %q after a served failover", strings.TrimSpace(nonzero))
		}
	}

	// /statsz agrees.
	resp, err = http.Get(ts.URL + "/statsz")
	if err != nil {
		t.Fatal(err)
	}
	var statsz struct {
		Failover struct {
			Retries            int64 `json:"retries"`
			Failovers          int64 `json:"failovers"`
			DeadSiteDetections int64 `json:"dead_site_detections"`
		} `json:"failover"`
	}
	err = json.NewDecoder(resp.Body).Decode(&statsz)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if statsz.Failover.Retries == 0 || statsz.Failover.Failovers == 0 || statsz.Failover.DeadSiteDetections == 0 {
		t.Fatalf("/statsz failover = %+v; want non-zero retries, failovers and dead-site detections", statsz.Failover)
	}
}
