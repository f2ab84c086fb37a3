// Command paxserve is the multi-query serving layer: it fragments a
// document over a cluster once at startup and then serves XPath queries
// over HTTP/JSON, evaluating any number of them concurrently with the
// paper's per-query guarantees intact (each response's stats — visit
// counts, bytes, computation — cover that query alone).
//
// Serve an XML file fragmented four ways over two in-process sites:
//
//	paxserve -addr :8377 -file data.xml -frags 4 -sites 2
//
// Serve a generated XMark document over real TCP sites on loopback, with
// admission control and per-request deadlines:
//
//	paxserve -xmark-mb 5 -sites 4 -tcp -max-inflight 64 -request-timeout 5s
//
// Query it:
//
//	curl 'localhost:8377/query?q=//person/name'
//	curl -d '{"query":"//broker[//stock/code = \"GOOG\"]/name","algorithm":"pax3"}' localhost:8377/query
//	curl localhost:8377/healthz
//	curl localhost:8377/statsz
//	curl localhost:8377/metrics
//
// Operational behavior:
//
//   - -max-inflight bounds concurrently admitted evaluations; excess load
//     is shed at once with HTTP 503.
//   - -request-timeout bounds each evaluation end to end; a deadline hit
//     returns HTTP 504. The deadline travels as a context down to the
//     site transport, so a hung site cannot wedge an HTTP worker.
//   - -replicas deploys each fragment group on that many replica sites;
//     a site that dies or restarts mid-query is survived by running the
//     query again on the next replica (budget via -retry-attempts), with
//     the answer still byte-identical to centralized evaluation. Failover
//     counters appear in /metrics and /statsz.
//   - SIGINT/SIGTERM trigger graceful shutdown: the listener stops, then
//     in-flight requests get up to -shutdown-grace to finish before the
//     cluster is torn down.
//   - /metrics exposes serving, transport and failover lifetime counters
//     in the Prometheus text format.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"paxq"
)

func main() {
	addr := flag.String("addr", ":8377", "HTTP listen address")
	file := flag.String("file", "", "XML document to serve")
	xmarkMB := flag.Float64("xmark-mb", 0, "generate an XMark document of ~this many MB instead of -file")
	xmarkSites := flag.Int("xmark-sites", 4, "XMark site subtrees when generating")
	frags := flag.Int("frags", 4, "number of random fragments")
	var cuts multiFlag
	flag.Var(&cuts, "cut", "XPath selecting cut elements (repeatable; overrides -frags)")
	maxNodes := flag.Int("max-nodes", 0, "size-based fragmentation cap (overrides -frags)")
	sites := flag.Int("sites", 0, "number of sites (default one per fragment)")
	tcp := flag.Bool("tcp", false, "deploy sites as TCP servers on loopback instead of in-process")
	seed := flag.Int64("seed", 1, "fragmentation / generation seed")
	maxInflight := flag.Int("max-inflight", 0, "admission control: max concurrently evaluated queries (0 = unlimited)")
	reqTimeout := flag.Duration("request-timeout", 30*time.Second, "per-request evaluation deadline (0 = none)")
	grace := flag.Duration("shutdown-grace", 10*time.Second, "graceful-shutdown window for in-flight requests")
	replicas := flag.Int("replicas", 1, "replica sites per fragment group; >1 deploys a replicated fleet with failover")
	retryAttempts := flag.Int("retry-attempts", 0, "max runs of one query before it aborts (0 = default: 4 when replicated, 1 otherwise)")
	flag.Parse()

	var doc *paxq.Document
	switch {
	case *file != "":
		f, err := os.Open(*file)
		if err != nil {
			fatal(err)
		}
		var perr error
		doc, perr = paxq.ParseDocument(f)
		f.Close()
		if perr != nil {
			fatal(perr)
		}
	case *xmarkMB > 0:
		doc = paxq.GenerateXMark(*xmarkSites, *xmarkMB, *seed)
	default:
		fmt.Fprintln(os.Stderr, "paxserve: one of -file or -xmark-mb is required")
		os.Exit(2)
	}

	transport := paxq.TransportLocal
	if *tcp {
		transport = paxq.TransportTCP
	}
	cluster, err := paxq.NewCluster(doc, paxq.ClusterOptions{
		Fragments:        *frags,
		CutPaths:         cuts,
		MaxFragmentNodes: *maxNodes,
		Sites:            *sites,
		Transport:        transport,
		Seed:             *seed,
		MaxInFlight:      *maxInflight,
		Replicas:         *replicas,
		RetryMaxAttempts: *retryAttempts,
	})
	if err != nil {
		fatal(err)
	}
	defer cluster.Close()

	log.Printf("paxserve: %d nodes, %d fragments over %d sites (tcp=%v), listening on %s",
		doc.Nodes(), cluster.Fragments(), cluster.Sites(), *tcp, *addr)
	srv := &http.Server{Addr: *addr, Handler: newServer(cluster, *reqTimeout).handler()}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.ListenAndServe() }()

	select {
	case err := <-serveErr:
		fatal(err)
	case <-ctx.Done():
	}
	stop() // a second signal kills immediately
	log.Printf("paxserve: shutting down (up to %v for in-flight requests)", *grace)
	shutdownCtx, cancel := context.WithTimeout(context.Background(), *grace)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Printf("paxserve: shutdown: %v", err)
	}
	log.Printf("paxserve: bye")
}

// multiFlag collects a repeatable string flag.
type multiFlag []string

func (m *multiFlag) String() string { return fmt.Sprint([]string(*m)) }
func (m *multiFlag) Set(v string) error {
	*m = append(*m, v)
	return nil
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "paxserve: %v\n", err)
	os.Exit(1)
}
