package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"sync/atomic"
	"time"

	"paxq"
)

// server wires a Cluster to HTTP. The Cluster is safe for concurrent
// evaluation, so requests are served directly on net/http's per-connection
// goroutines — the cluster is the serving layer, the server only
// translates. Each request's context (client disconnect + the configured
// per-request timeout) is propagated through the cluster down to the
// transport, so a hung site can never wedge an HTTP worker.
type server struct {
	cluster *paxq.Cluster
	started time.Time
	// timeout bounds each evaluation; 0 = no server-imposed deadline.
	timeout time.Duration

	queries    atomic.Int64 // completed evaluations
	errors     atomic.Int64 // failed evaluations (bad query, site failure)
	overloaded atomic.Int64 // evaluations shed by admission control
	timeouts   atomic.Int64 // evaluations that hit a deadline
	edits      atomic.Int64 // applied fragment edits
	editErrors atomic.Int64 // rejected or failed fragment edits
}

// queryRequest is the POST /query body. GET /query?q=... fills only Query
// and takes the defaults.
type queryRequest struct {
	Query string `json:"query"`
	// Algorithm: "pax2" (default), "pax3" or "naive".
	Algorithm string `json:"algorithm,omitempty"`
	// Annotations toggles the §5 pruning optimization; defaults to true.
	Annotations *bool `json:"annotations,omitempty"`
	// ShipXML returns serialized answer subtrees.
	ShipXML bool `json:"shipxml,omitempty"`
}

// queryResponse is the /query response body.
type queryResponse struct {
	Answers []paxq.Answer `json:"answers"`
	Stats   *paxq.Stats   `json:"stats"`
}

type errorResponse struct {
	Error string `json:"error"`
}

func newServer(cluster *paxq.Cluster, timeout time.Duration) *server {
	return &server{cluster: cluster, started: time.Now(), timeout: timeout}
}

// handler returns the server's route table.
func (s *server) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/query", s.handleQuery)
	mux.HandleFunc("/edit", s.handleEdit)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/statsz", s.handleStatsz)
	mux.HandleFunc("/metrics", s.handleMetrics)
	return mux
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func (s *server) handleQuery(w http.ResponseWriter, r *http.Request) {
	var req queryRequest
	switch r.Method {
	case http.MethodGet:
		req.Query = r.URL.Query().Get("q")
	case http.MethodPost:
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			writeJSON(w, http.StatusBadRequest, errorResponse{Error: fmt.Sprintf("bad request body: %v", err)})
			return
		}
	default:
		w.Header().Set("Allow", "GET, POST")
		writeJSON(w, http.StatusMethodNotAllowed, errorResponse{Error: "use GET /query?q=... or POST /query"})
		return
	}
	if req.Query == "" {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: "missing query"})
		return
	}
	switch strings.ToLower(req.Algorithm) {
	case "", "pax2", "pax3", "naive":
	default:
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: fmt.Sprintf("unknown algorithm %q (want pax2, pax3 or naive)", req.Algorithm)})
		return
	}
	annotations := true
	if req.Annotations != nil {
		annotations = *req.Annotations
	}
	ctx := r.Context()
	if s.timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.timeout)
		defer cancel()
	}
	answers, stats, err := s.cluster.QueryContext(ctx, req.Query, paxq.QueryOptions{
		Algorithm:   req.Algorithm,
		Annotations: annotations,
		ShipXML:     req.ShipXML,
	})
	if err != nil {
		if errors.Is(err, context.Canceled) && r.Context().Err() != nil {
			// The client went away mid-evaluation; nobody reads this
			// response and the cluster did nothing wrong — don't count it
			// as a server error. 499 is the de-facto "client closed
			// request" status.
			writeJSON(w, statusClientClosedRequest, errorResponse{Error: err.Error()})
			return
		}
		s.errors.Add(1)
		writeJSON(w, s.statusFor(req.Query, err), errorResponse{Error: err.Error()})
		return
	}
	s.queries.Add(1)
	if answers == nil {
		answers = []paxq.Answer{}
	}
	writeJSON(w, http.StatusOK, queryResponse{Answers: answers, Stats: stats})
}

// editRequest is the POST /edit body: one fragment mutation, addressed by
// the fragment-local node IDs /query answers report.
type editRequest struct {
	Fragment int    `json:"fragment"`
	Op       string `json:"op"`            // "insert", "delete" or "rename"
	Node     int    `json:"node"`          // delete/rename target; insert parent
	Pos      int    `json:"pos,omitempty"` // insert slot among Node's children
	Label    string `json:"label,omitempty"`
	// SubtreeXML is the insert payload, a single-rooted XML snippet.
	SubtreeXML string `json:"subtree_xml,omitempty"`
}

// editResponse is the /edit response body.
type editResponse struct {
	Result *paxq.EditResult `json:"result"`
}

// handleEdit applies one fragment edit through the cluster: every replica
// hosting the fragment moves to the new version, and cached Stage-1
// state is patched through the edit instead of dropped (watch
// sitecache_scoped_retained in /metrics move). In-flight queries keep
// their consistent pre-edit view; queries arriving after the response see
// the edit.
func (s *server) handleEdit(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", "POST")
		writeJSON(w, http.StatusMethodNotAllowed, errorResponse{Error: "use POST /edit"})
		return
	}
	var req editRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: fmt.Sprintf("bad request body: %v", err)})
		return
	}
	var op paxq.EditOp
	switch strings.ToLower(req.Op) {
	case "insert":
		op = paxq.EditInsert
	case "delete":
		op = paxq.EditDelete
	case "rename":
		op = paxq.EditRename
	default:
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: fmt.Sprintf("unknown edit op %q (want insert, delete or rename)", req.Op)})
		return
	}
	ctx := r.Context()
	if s.timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.timeout)
		defer cancel()
	}
	res, err := s.cluster.ApplyEditContext(ctx, paxq.Edit{
		Fragment:   req.Fragment,
		Op:         op,
		Node:       req.Node,
		Pos:        req.Pos,
		Label:      req.Label,
		SubtreeXML: req.SubtreeXML,
	})
	if err != nil {
		s.editErrors.Add(1)
		status := http.StatusBadRequest
		if errors.Is(err, context.DeadlineExceeded) {
			s.timeouts.Add(1)
			status = http.StatusGatewayTimeout
		}
		writeJSON(w, status, errorResponse{Error: err.Error()})
		return
	}
	s.edits.Add(1)
	writeJSON(w, http.StatusOK, editResponse{Result: res})
}

// statusClientClosedRequest is nginx's non-standard 499: the client
// disconnected before the evaluation finished.
const statusClientClosedRequest = 499

// statusFor classifies an evaluation failure: shed load is 503 (retryable,
// with Retry-After semantics left to the client), a deadline is 504, a
// malformed query is the client's 400, and anything else from a valid
// query is a cluster-side 502. (A client disconnect is handled before this
// is called.)
func (s *server) statusFor(query string, err error) int {
	switch {
	case errors.Is(err, paxq.ErrOverloaded):
		s.overloaded.Add(1)
		return http.StatusServiceUnavailable
	case errors.Is(err, context.DeadlineExceeded):
		s.timeouts.Add(1)
		return http.StatusGatewayTimeout
	case paxq.CompileCheck(query) == nil:
		return http.StatusBadGateway
	default:
		return http.StatusBadRequest
	}
}

func (s *server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"status":    "ok",
		"fragments": s.cluster.Fragments(),
		"sites":     s.cluster.Sites(),
	})
}

func (s *server) handleStatsz(w http.ResponseWriter, r *http.Request) {
	uptime := time.Since(s.started)
	queries := s.queries.Load()
	qps := 0.0
	if secs := uptime.Seconds(); secs > 0 {
		qps = float64(queries) / secs
	}
	ts := s.cluster.TransportStats()
	cache := ts.SiteCache
	writeJSON(w, http.StatusOK, map[string]any{
		"queries":         queries,
		"errors":          s.errors.Load(),
		"overloaded":      s.overloaded.Load(),
		"timeouts":        s.timeouts.Load(),
		"edits":           s.edits.Load(),
		"edit_errors":     s.editErrors.Load(),
		"uptime_seconds":  uptime.Seconds(),
		"queries_per_sec": qps,
		"sitecache": map[string]any{
			"hits":                  cache.Hits,
			"misses":                cache.Misses,
			"evictions":             cache.Evictions,
			"expirations":           cache.Expirations,
			"invalidations":         cache.Invalidations,
			"scoped_invalidations":  cache.ScopedInvalidations,
			"scoped_retained":       cache.ScopedRetained,
			"entries":               cache.Entries,
			"generation":            cache.Generation,
			"saved_compute_seconds": cache.SavedCompute.Seconds(),
		},
		"failover": map[string]any{
			"retries":                ts.Failover.Retries,
			"failovers":              ts.Failover.Failovers,
			"dead_site_detections":   ts.Failover.DeadSiteDetections,
			"reestablished_sessions": ts.Failover.ReestablishedSessions,
		},
	})
}

// handleMetrics exposes the serving counters and the transport's lifetime
// cost counters in the Prometheus text exposition format.
func (s *server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	ts := s.cluster.TransportStats()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	var b strings.Builder
	counter := func(name, help string, v any) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s counter\n%s %v\n", name, help, name, name, v)
	}
	counter("paxserve_queries_total", "Completed evaluations.", s.queries.Load())
	counter("paxserve_errors_total", "Failed evaluations.", s.errors.Load())
	counter("paxserve_overloaded_total", "Evaluations shed by admission control.", s.overloaded.Load())
	counter("paxserve_timeouts_total", "Evaluations that exceeded a deadline.", s.timeouts.Load())
	counter("paxserve_edits_total", "Applied fragment edits.", s.edits.Load())
	counter("paxserve_edit_errors_total", "Rejected or failed fragment edits.", s.editErrors.Load())
	counter("paxserve_transport_sent_bytes_total", "Bytes sent coordinator to sites.", ts.BytesSent)
	counter("paxserve_transport_received_bytes_total", "Bytes received from sites.", ts.BytesReceived)
	counter("paxserve_transport_site_visits_total", "Site calls completed.", ts.TotalVisits)
	counter("paxserve_transport_compute_seconds_total", "Summed site computation time.", ts.TotalCompute.Seconds())
	counter("paxserve_sitecache_hits_total", "Stage-1 cache hits across sites.", ts.SiteCache.Hits)
	counter("paxserve_sitecache_misses_total", "Stage-1 cache misses across sites.", ts.SiteCache.Misses)
	counter("paxserve_sitecache_evictions_total", "Stage-1 cache entries displaced by capacity.", ts.SiteCache.Evictions)
	counter("paxserve_sitecache_expirations_total", "Stage-1 cache entries dropped by TTL.", ts.SiteCache.Expirations)
	counter("paxserve_sitecache_invalidations_total", "Stage-1 cache entries dropped by generation bumps.", ts.SiteCache.Invalidations)
	counter("paxserve_sitecache_scoped_invalidations_total", "Stage-1 cache entries a fragment edit had to drop.", ts.SiteCache.ScopedInvalidations)
	counter("paxserve_sitecache_scoped_retained_total", "Stage-1 cache entries carried across a fragment edit.", ts.SiteCache.ScopedRetained)
	counter("paxserve_sitecache_saved_compute_seconds_total", "Site computation avoided by cache hits.", ts.SiteCache.SavedCompute.Seconds())
	counter("paxserve_failover_retries_total", "Stage calls retried after a retriable failure.", ts.Failover.Retries)
	counter("paxserve_failovers_total", "Stage calls rotated to a replica site.", ts.Failover.Failovers)
	counter("paxserve_failover_dead_sites_total", "Transport-level dead-site detections.", ts.Failover.DeadSiteDetections)
	counter("paxserve_failover_reestablished_sessions_total", "Query sessions re-established on a replica by stage replay.", ts.Failover.ReestablishedSessions)
	fmt.Fprintf(&b, "# HELP paxserve_sitecache_entries Live Stage-1 cache entries across sites.\n# TYPE paxserve_sitecache_entries gauge\npaxserve_sitecache_entries %d\n",
		ts.SiteCache.Entries)
	fmt.Fprintf(&b, "# HELP paxserve_uptime_seconds Seconds since start.\n# TYPE paxserve_uptime_seconds gauge\npaxserve_uptime_seconds %f\n",
		time.Since(s.started).Seconds())
	for site, visits := range ts.SiteVisits {
		fmt.Fprintf(&b, "paxserve_site_visits_total{site=\"%d\"} %d\n", site, visits)
	}
	w.Write([]byte(b.String()))
}
