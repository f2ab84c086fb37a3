package harness

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"time"

	"paxq/internal/pax"
	"paxq/internal/xmark"
)

// LoadReport summarizes a concurrent-load run: the serving throughput of
// one engine under many simultaneous queries, and whether the paper's
// per-query visit bound held for every single evaluation.
type LoadReport struct {
	Workers    int           // concurrent query streams
	Queries    int           // completed evaluations
	Errors     int           // failed evaluations
	Wall       time.Duration // wall time of the whole run
	QPS        float64       // Queries / Wall
	MaxVisits  int           // worst per-query max site visits observed
	VisitBound int           // the bound every query must satisfy (3: PaX3)
	Violations int           // queries whose Result exceeded the bound
	Sites      int
	Fragments  int
}

func (r *LoadReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Concurrent serving (TCP transport): %d workers over %d fragments / %d sites\n",
		r.Workers, r.Fragments, r.Sites)
	fmt.Fprintf(&b, "  %d queries (%d errors) in %v — %.1f queries/sec\n", r.Queries, r.Errors, r.Wall.Round(time.Millisecond), r.QPS)
	fmt.Fprintf(&b, "  worst per-query site visits: %d (bound %d, violations %d)\n", r.MaxVisits, r.VisitBound, r.Violations)
	return b.String()
}

// ConcurrentLoad deploys an XMark fragmentation over TCP sites on loopback
// and drives it with `workers` concurrent query streams, each evaluating
// `perWorker` queries (the paper's Q1–Q4, PaX3 alternating with and
// without annotations). Every Result is checked against the PaX3 visit
// bound individually — the per-query guarantee the serving layer
// preserves under concurrency.
//
// Fragments are packed two per site so each stage request fans out over
// several fragments, exercising site-side parallel fragment evaluation.
func ConcurrentLoad(ctx context.Context, cfg Config, workers, perWorker int) (*LoadReport, error) {
	cfg = cfg.withDefaults()
	if workers < 1 {
		workers = 1
	}
	if perWorker < 1 {
		perWorker = 1
	}
	cal := xmark.Calibrate()
	ft, err := ft1(cfg, 4, cfg.paperMB(4), cal)
	if err != nil {
		return nil, err
	}
	numSites := (ft.Len() + 1) / 2
	topo := pax.RoundRobin(ft, numSites)
	tcp, _, shutdown, err := pax.BuildTCPCluster(topo)
	if err != nil {
		return nil, err
	}
	defer shutdown()
	eng := pax.NewEngine(topo, tcp)

	queries := []string{Q1, Q2, Q3, Q4}
	rep := &LoadReport{
		Workers:    workers,
		VisitBound: 3,
		Sites:      len(topo.Sites()),
		Fragments:  ft.Len(),
	}
	var mu sync.Mutex
	var firstErr error
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				opts := pax.Options{Algorithm: pax.PaX3, Annotations: i%2 == 1}
				res, err := eng.RunContext(ctx, queries[(w+i)%len(queries)], opts)
				mu.Lock()
				if err != nil {
					rep.Errors++
					if firstErr == nil {
						firstErr = err
					}
				} else {
					rep.Queries++
					if res.MaxVisits > rep.MaxVisits {
						rep.MaxVisits = res.MaxVisits
					}
					if res.MaxVisits > rep.VisitBound {
						rep.Violations++
					}
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	rep.Wall = time.Since(start)
	if secs := rep.Wall.Seconds(); secs > 0 {
		rep.QPS = float64(rep.Queries) / secs
	}
	if firstErr != nil {
		return rep, fmt.Errorf("harness: concurrent load: %w", firstErr)
	}
	return rep, nil
}
