package paxq_test

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"paxq"
)

// TestClusterAdmissionControl exercises the public admission-control
// surface: a cluster with MaxInFlight 1 sheds concurrent queries with
// ErrOverloaded, and recovers once load drops.
func TestClusterAdmissionControl(t *testing.T) {
	doc := paxq.GenerateXMark(2, 0.05, 1)
	cluster, err := paxq.NewCluster(doc, paxq.ClusterOptions{
		Fragments:   4,
		Sites:       2,
		MaxInFlight: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()

	const workers = 8
	var wg sync.WaitGroup
	var mu sync.Mutex
	served, shed := 0, 0
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, _, err := cluster.Query("//person/name", paxq.QueryOptions{Algorithm: "pax3"})
			mu.Lock()
			defer mu.Unlock()
			switch {
			case err == nil:
				served++
			case errors.Is(err, paxq.ErrOverloaded):
				shed++
			default:
				t.Errorf("unexpected error: %v", err)
			}
		}()
	}
	wg.Wait()
	if served == 0 {
		t.Error("no query was served")
	}
	if served+shed != workers {
		t.Errorf("served %d + shed %d != %d workers", served, shed, workers)
	}
	// Load gone: admission must recover.
	if _, _, err := cluster.Query("//person/name", paxq.QueryOptions{}); err != nil {
		t.Errorf("query after overload: %v", err)
	}
}

// TestClusterQueryContextTimeout: an expired context fails the query with
// the context's error through the public API.
func TestClusterQueryContextTimeout(t *testing.T) {
	doc := paxq.GenerateXMark(1, 0.02, 1)
	cluster, err := paxq.NewCluster(doc, paxq.ClusterOptions{Fragments: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := cluster.QueryContext(ctx, "//person/name", paxq.QueryOptions{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestTransportStatsAccumulate: lifetime counters grow with traffic and
// count every site visit.
func TestTransportStatsAccumulate(t *testing.T) {
	doc := paxq.GenerateXMark(2, 0.02, 1)
	cluster, err := paxq.NewCluster(doc, paxq.ClusterOptions{Fragments: 4, Sites: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	before := cluster.TransportStats()
	if _, _, err := cluster.Query("//person/name", paxq.QueryOptions{}); err != nil {
		t.Fatal(err)
	}
	after := cluster.TransportStats()
	if after.BytesSent <= before.BytesSent || after.BytesReceived <= before.BytesReceived {
		t.Errorf("bytes did not grow: %+v -> %+v", before, after)
	}
	if after.TotalVisits <= before.TotalVisits || after.TotalCompute <= 0 {
		t.Errorf("visits/compute did not grow: %+v", after)
	}
	if len(after.SiteVisits) == 0 {
		t.Error("no per-site visit counts")
	}
}

// TestTransportStatsCountStage1Memo: SiteCache counts the sites' Stage-1
// memo lookups. Queries seen for the first time never hit (a site keeps a
// text's results only from its second session on), while a query
// repeated on the same cluster does, over both transports.
func TestTransportStatsCountStage1Memo(t *testing.T) {
	for _, tk := range []paxq.TransportKind{paxq.TransportLocal, paxq.TransportTCP} {
		doc := paxq.GenerateXMark(2, 0.05, 1)
		cluster, err := paxq.NewCluster(doc, paxq.ClusterOptions{Fragments: 6, Sites: 3, Transport: tk, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		for i, opts := range []paxq.QueryOptions{{Algorithm: "pax3"}, {Algorithm: "pax2"}, {Algorithm: "pax2", Annotations: true}} {
			q := fmt.Sprintf(`/sites/site/people/person[profile/age > %d]/name`, 20+i)
			if _, _, err := cluster.Query(q, opts); err != nil {
				t.Fatal(err)
			}
		}
		first := cluster.TransportStats().SiteCache
		if first.Hits != 0 || first.Misses == 0 {
			t.Errorf("transport %v: three first-sighting queries counted %+v, want misses and no hits", tk, first)
		}
		for _, opts := range []paxq.QueryOptions{{Algorithm: "pax3"}, {Algorithm: "pax2"}, {Algorithm: "pax3"}} {
			if _, _, err := cluster.Query(`//person[address/country = "US"]/name`, opts); err != nil {
				t.Fatal(err)
			}
		}
		repeated := cluster.TransportStats().SiteCache
		if repeated.Hits == 0 {
			t.Errorf("transport %v: a query run three times counted %+v, want hits", tk, repeated)
		}
		if repeated.Evictions != 0 {
			t.Errorf("transport %v: %d memo entries replaced without an edit", tk, repeated.Evictions)
		}
		cluster.Close()
	}
}

// TestClusterQueueTimeoutMode: with queueing configured, a held slot makes
// a second query wait; it must eventually fail with ErrOverloaded rather
// than hang, within roughly the configured deadline.
func TestClusterQueueTimeoutMode(t *testing.T) {
	doc := paxq.GenerateXMark(2, 0.1, 1)
	cluster, err := paxq.NewCluster(doc, paxq.ClusterOptions{
		Fragments:    4,
		MaxInFlight:  1,
		QueueTimeout: 20 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()

	// Saturate the single slot from many goroutines; with a 20ms queue
	// every loser either gets served within the deadline or sheds typed.
	var wg sync.WaitGroup
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, _, err := cluster.Query("//open_auctions//annotation", paxq.QueryOptions{})
			if err != nil && !errors.Is(err, paxq.ErrOverloaded) {
				t.Errorf("unexpected error: %v", err)
			}
		}()
	}
	wg.Wait()
}
