package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"

	"paxq"
)

func postEdit(t *testing.T, url string, req editRequest) *http.Response {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/edit", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func queryAnswers(t *testing.T, url, query string) []paxq.Answer {
	t.Helper()
	resp, err := http.Get(url + "/query?q=" + strings.ReplaceAll(query, " ", "%20"))
	if err != nil {
		t.Fatal(err)
	}
	return decodeQueryResponse(t, resp).Answers
}

// TestServeEditEndpoint drives a fragment edit over HTTP — insert, rename,
// delete — addressed by the coordinates /query answers report, checking the
// document visible through /query tracks every step and the edit counters
// surface in /statsz and /metrics.
func TestServeEditEndpoint(t *testing.T) {
	ts := cacheTestServer(t)

	// Warm the Stage-1 cache with a qualifier query so the edit below has
	// entries to retain.
	warmQuery := `//broker[//stock/code = "GOOG"]/name`
	body, err := json.Marshal(queryRequest{Query: warmQuery, Algorithm: "pax3"})
	if err != nil {
		t.Fatal(err)
	}
	warmResp, err := http.Post(ts.URL+"/query", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	decodeQueryResponse(t, warmResp)

	brokers := queryAnswers(t, ts.URL, `//broker[name = "Smith"]`)
	if len(brokers) != 1 {
		t.Fatalf("found %d Smith brokers, want 1", len(brokers))
	}
	target := brokers[0]

	resp := postEdit(t, ts.URL, editRequest{
		Fragment:   target.Fragment,
		Op:         "insert",
		Node:       target.Node,
		Pos:        0,
		SubtreeXML: "<note><v>hello</v></note>",
	})
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("POST /edit: %s: %s", resp.Status, b)
	}
	var er editResponse
	if err := json.NewDecoder(resp.Body).Decode(&er); err != nil {
		t.Fatal(err)
	}
	if er.Result == nil || er.Result.NewVersion == 0 {
		t.Fatalf("edit response %+v, want an applied result", er)
	}
	if er.Result.Retained+er.Result.Patched == 0 {
		t.Errorf("disjoint insert retained no cache entries: %+v", er.Result)
	}

	notes := queryAnswers(t, ts.URL, `//note/v`)
	if len(notes) != 1 || notes[0].Value != "hello" {
		t.Fatalf("//note/v after insert = %+v", notes)
	}
	note := queryAnswers(t, ts.URL, `//note`)[0]

	resp = postEdit(t, ts.URL, editRequest{Fragment: note.Fragment, Op: "rename", Node: note.Node, Label: "memo"})
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("rename: %s", resp.Status)
	}
	if memos := queryAnswers(t, ts.URL, `//memo/v`); len(memos) != 1 || memos[0].Value != "hello" {
		t.Fatalf("//memo/v after rename = %+v", memos)
	}

	memo := queryAnswers(t, ts.URL, `//memo`)[0]
	resp = postEdit(t, ts.URL, editRequest{Fragment: memo.Fragment, Op: "delete", Node: memo.Node})
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("delete: %s", resp.Status)
	}
	if memos := queryAnswers(t, ts.URL, `//memo`); len(memos) != 0 {
		t.Fatalf("//memo after delete = %+v", memos)
	}
	if got := queryAnswers(t, ts.URL, warmQuery); len(got) != 1 || got[0].Value != "Smith" {
		t.Fatalf("qualifier query after edit round trip = %+v", got)
	}

	// Counters: 3 applied edits in /statsz, scoped retention in /metrics.
	sresp, err := http.Get(ts.URL + "/statsz")
	if err != nil {
		t.Fatal(err)
	}
	defer sresp.Body.Close()
	var statsz struct {
		Edits      int64 `json:"edits"`
		EditErrors int64 `json:"edit_errors"`
		SiteCache  struct {
			ScopedRetained int64 `json:"scoped_retained"`
		} `json:"sitecache"`
	}
	if err := json.NewDecoder(sresp.Body).Decode(&statsz); err != nil {
		t.Fatal(err)
	}
	if statsz.Edits != 3 || statsz.EditErrors != 0 {
		t.Errorf("statsz edits = %d (errors %d), want 3 (0)", statsz.Edits, statsz.EditErrors)
	}
	if statsz.SiteCache.ScopedRetained == 0 {
		t.Error("statsz sitecache.scoped_retained = 0 after a disjoint edit")
	}
	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	metrics, _ := io.ReadAll(mresp.Body)
	for _, want := range []string{"paxserve_edits_total 3", "paxserve_sitecache_scoped_retained_total"} {
		if !strings.Contains(string(metrics), want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// TestServeEditRejections checks the endpoint's failure modes: wrong
// method, malformed body, unknown op, and an edit the fragment layer
// rejects — all without mutating the document.
func TestServeEditRejections(t *testing.T) {
	ts := testServer(t, paxq.TransportLocal)

	resp, err := http.Get(ts.URL + "/edit")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /edit: %s, want 405", resp.Status)
	}

	resp, err = http.Post(ts.URL+"/edit", "application/json", strings.NewReader("{not json"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed body: %s, want 400", resp.Status)
	}

	for _, req := range []editRequest{
		{Fragment: 0, Op: "truncate", Node: 1},
		{Fragment: 99, Op: "delete", Node: 1},
		{Fragment: 0, Op: "delete", Node: 0},                           // fragment root
		{Fragment: 0, Op: "insert", Node: 0, SubtreeXML: "<a><b></a>"}, // malformed subtree
	} {
		resp := postEdit(t, ts.URL, req)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%+v: %s, want 400", req, resp.Status)
		}
	}

	if got := queryAnswers(t, ts.URL, `//broker/name`); len(got) != 2 {
		t.Fatalf("document changed after rejected edits: %+v", got)
	}
}
