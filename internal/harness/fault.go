package harness

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"

	"paxq/internal/centeval"
	"paxq/internal/dist"
	"paxq/internal/fragment"
	"paxq/internal/pax"
	"paxq/internal/testutil"
	"paxq/internal/xmltree"
	"paxq/internal/xpath"
)

// The fault-injection harness checks the failover layer's promises the
// same way the differential harness checks the paper's: mechanically, on
// randomized instances, over the real transports. Each schedule deploys a
// replicated fleet, injects a randomized kill/restart schedule — hook
// faults on the in-process transport, real server kills and restarts on
// TCP — and demands that every surviving query answers byte-identically
// to the centralized evaluator, every answer shipping its document
// subtree as XML (stitched across fragment boundaries, bodies fetched
// in failed-over re-runs too), that per-site visits stay within the
// documented failover bound MaxVisits <= B*(1+Retries), and that the sum
// of the per-query ledgers still equals the transport's lifetime totals
// (the aborted-call attribution rule) whenever no query aborted.

// FaultOptions tune one fault-injection schedule.
type FaultOptions struct {
	Transport DiffTransport
	// Queries per schedule (default 4).
	Queries int
}

// FaultResult aggregates the checks of one or more fault schedules.
type FaultResult struct {
	Schedules        int // randomized kill/restart schedules executed
	Queries          int // query evaluations attempted under faults
	Survived         int // queries that completed despite injected faults
	Aborted          int // queries that failed (every replica exhausted)
	Mismatches       int // surviving answer != centralized answer
	BoundExceeded    int // MaxVisits above B*(1+Retries)
	LedgerViolations int // Σ per-query ledgers != transport lifetime totals
	Kills            int // site kills injected (hook kills or server closes)
	Restarts         int // site restarts performed (state wiped)
	Retries          int // stage-call retries observed across queries
	Failovers        int // replica rotations observed across queries
	FailureDetails   []string
}

// Merge folds other into r.
func (r *FaultResult) Merge(other *FaultResult) {
	r.Schedules += other.Schedules
	r.Queries += other.Queries
	r.Survived += other.Survived
	r.Aborted += other.Aborted
	r.Mismatches += other.Mismatches
	r.BoundExceeded += other.BoundExceeded
	r.LedgerViolations += other.LedgerViolations
	r.Kills += other.Kills
	r.Restarts += other.Restarts
	r.Retries += other.Retries
	r.Failovers += other.Failovers
	if len(r.FailureDetails) < 10 {
		r.FailureDetails = append(r.FailureDetails, other.FailureDetails...)
	}
}

// Ok reports whether every correctness check of every merged schedule
// held. Aborts are not failures by themselves — a schedule may kill a
// whole group — but surviving queries must be exact, bounded and
// conserved.
func (r *FaultResult) Ok() bool {
	return r.Mismatches == 0 && r.BoundExceeded == 0 && r.LedgerViolations == 0
}

func (r *FaultResult) String() string {
	return fmt.Sprintf("fault injection: %d schedules, %d queries (%d survived, %d aborted) under %d kills/%d restarts — %d mismatches, %d bound violations, %d ledger violations (%d retries, %d failovers observed)",
		r.Schedules, r.Queries, r.Survived, r.Aborted, r.Kills, r.Restarts,
		r.Mismatches, r.BoundExceeded, r.LedgerViolations, r.Retries, r.Failovers)
}

// faultFleet is one schedule's deployment: a replicated topology, an
// engine wired for failover, and transport-specific controls for killing
// and restarting sites.
type faultFleet struct {
	eng  *pax.Engine
	topo *pax.Topology
	tr   dist.Transport

	// local-mode controls
	plan  *dist.FaultPlan
	sites map[dist.SiteID]*pax.Site

	// tcp-mode controls
	servers map[dist.SiteID]*dist.TCPServer
	addrs   map[dist.SiteID]string
	down    map[dist.SiteID]bool

	shutdown func()
}

// killTCP closes the site's server — in-flight and pooled connections
// die, later dials are refused — modelling a site process crash.
func (f *faultFleet) killTCP(site dist.SiteID) {
	if srv, ok := f.servers[site]; ok && !f.down[site] {
		srv.Close()
		f.down[site] = true
	}
}

// restartTCP rebinds the site's address with its state wiped — caches,
// compiled queries and previous fragment versions gone, like a restarted
// process. The address
// is the ephemeral port the kernel picked at first bind, so while the site
// was down another test's listener or outgoing connection may have been
// handed it: an address-in-use failure is retried for up to 0.6 s, any
// other error fails at once.
func (f *faultFleet) restartTCP(site dist.SiteID) error {
	if !f.down[site] {
		return nil
	}
	f.sites[site].Restart()
	var srv *dist.TCPServer
	var err error
	for wait := 5 * time.Millisecond; ; wait *= 2 {
		srv, err = dist.NewTCPServer(f.addrs[site], f.sites[site].Handler())
		if !errors.Is(err, syscall.EADDRINUSE) || wait > 320*time.Millisecond {
			break
		}
		time.Sleep(wait)
	}
	if err != nil {
		return err
	}
	f.servers[site] = srv
	f.down[site] = false
	return nil
}

// RunFaultInjection executes one randomized kill/restart schedule,
// deterministic in seed: generate a tree, a fragmentation, a replicated
// topology and a batch of queries; injure the fleet per the schedule; and
// check every surviving query against the centralized evaluator, the
// failover visit bound, and (when nothing aborted) exact ledger
// conservation. Errors are environmental (fragmentation, server setup);
// check failures are reported in the FaultResult.
func RunFaultInjection(ctx context.Context, seed int64, opts FaultOptions) (*FaultResult, error) {
	if opts.Queries <= 0 {
		opts.Queries = 4
	}
	r := rand.New(rand.NewSource(seed))
	res := &FaultResult{Schedules: 1}

	tree, isXMark := diffTree(r, seed)
	cuts := fragment.RandomCuts(tree, 1+r.Intn(7), seed+1)
	ft, err := fragment.Cut(tree, cuts)
	if err != nil {
		return nil, fmt.Errorf("harness: fault seed %d: %w", seed, err)
	}
	origins := ft.Origins()
	numGroups := 1 + r.Intn(3)
	replication := 2 + r.Intn(2) // 2 or 3 replicas per group
	topo := pax.RoundRobinReplicated(ft, numGroups, replication)

	fleet, err := buildFaultFleet(topo, opts.Transport)
	if err != nil {
		return nil, fmt.Errorf("harness: fault seed %d: %w", seed, err)
	}
	defer fleet.shutdown()

	fail := func(format string, args ...any) {
		if len(res.FailureDetails) < 10 {
			res.FailureDetails = append(res.FailureDetails, fmt.Sprintf(format, args...))
		}
	}

	// The kill/restart schedule. Local mode injects per-call faults
	// through the transport hook: deterministic in the per-site call
	// counts, never in wall time. TCP mode kills and restarts real
	// servers between queries (mid-call TCP faults additionally arise
	// whenever a query is in flight toward a freshly killed server's
	// pooled connection). Both modes keep at least one member of every
	// group alive so most queries can survive.
	if opts.Transport == DiffLocal {
		var faults []dist.SiteFault
		for _, p := range topo.Primaries() {
			group := topo.ReplicasOf(p)
			if r.Intn(3) == 0 {
				continue // this group runs fault-free
			}
			// One member gets killed (down for a few calls or for good) …
			victim := group[r.Intn(len(group))]
			faults = append(faults, dist.SiteFault{
				Site:   victim,
				Call:   1 + r.Intn(5),
				Action: dist.FaultKill,
				Down:   r.Intn(6), // 0 = restart on the very next call
			})
			res.Kills++
			// … and another member may additionally throw one transient
			// error or drop, exercising a second rotation.
			if len(group) > 1 && r.Intn(2) == 0 {
				others := make([]dist.SiteID, 0, len(group)-1)
				for _, m := range group {
					if m != victim {
						others = append(others, m)
					}
				}
				action := dist.FaultError
				if r.Intn(2) == 0 {
					action = dist.FaultDrop
				}
				faults = append(faults, dist.SiteFault{Site: others[r.Intn(len(others))], Call: 1 + r.Intn(5), Action: action})
			}
		}
		fleet.plan = dist.NewFaultPlan(faults...)
		fleet.plan.OnRestart = func(id dist.SiteID) { fleet.sites[id].Restart() }
		fleet.tr.(*dist.Local).FaultHook = fleet.plan.Hook
	}

	var sumSent, sumRecv int64
	var sumCompute time.Duration
	for q := 0; q < opts.Queries; q++ {
		if opts.Transport == DiffTCP {
			// Between queries: maybe kill one live member per group, maybe
			// restart a downed one — never the last live member.
			for _, p := range topo.Primaries() {
				group := topo.ReplicasOf(p)
				for _, m := range group {
					if fleet.down[m] && r.Intn(2) == 0 {
						if err := fleet.restartTCP(m); err != nil {
							return nil, fmt.Errorf("harness: fault seed %d: restart site %d: %w", seed, m, err)
						}
						res.Restarts++
					}
				}
				live := 0
				for _, m := range group {
					if !fleet.down[m] {
						live++
					}
				}
				if live > 1 && r.Intn(3) == 0 {
					victim := group[r.Intn(len(group))]
					if !fleet.down[victim] {
						fleet.killTCP(victim)
						res.Kills++
					}
				}
			}
		}

		var query string
		if isXMark {
			query = randomXMarkQuery(r)
		} else {
			query = testutil.RandomQuery(seed*1000 + int64(q))
		}
		c, err := xpath.Compile(query)
		if err != nil {
			return nil, fmt.Errorf("harness: fault seed %d: generated query %q does not compile: %w", seed, query, err)
		}
		want := append([]xmltree.NodeID(nil), centeval.EvalVector(tree, c)...)
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })

		alg := pax.PaX3
		if r.Intn(2) == 0 {
			alg = pax.PaX2
		}
		ann := r.Intn(2) == 0
		res.Queries++
		out, err := fleet.eng.RunContext(ctx, query, pax.Options{Algorithm: alg, Annotations: ann, ShipXML: true})
		if err != nil {
			// The fleet may legitimately have been injured beyond the retry
			// budget; the query aborts, its partial calls stay charged to the
			// transport totals (which is why the conservation check below
			// only runs on abort-free schedules).
			res.Aborted++
			continue
		}
		res.Survived++
		res.Retries += out.Retries
		res.Failovers += out.Failovers
		sumSent += out.BytesSent
		sumRecv += out.BytesRecv
		sumCompute += out.TotalCompute
		if got := origAnswerIDs(origins, out.Answers); !testutil.EqualIDs(got, want) {
			res.Mismatches++
			fail("fault seed %d %s q%d %v(XA=%v) %q: answers diverged under faults: %d vs %d nodes",
				seed, opts.Transport, q, alg, ann, query, len(got), len(want))
		}
		for _, a := range out.Answers {
			if xml := xmltree.SerializeString(tree.Node(origins[a.Frag][a.Node])); a.XML != xml {
				res.Mismatches++
				fail("fault seed %d %s q%d %v(XA=%v) %q: answer %d/%d ships %q under faults, the document's subtree is %q",
					seed, opts.Transport, q, alg, ann, query, a.Frag, a.Node, a.XML, xml)
				break
			}
		}
		if bound := visitBound(alg) * (1 + out.Retries); out.MaxVisits > bound {
			res.BoundExceeded++
			fail("fault seed %d %s q%d %v %q: MaxVisits %d > B(1+Retries) = %d",
				seed, opts.Transport, q, alg, query, out.MaxVisits, bound)
		}
	}

	if fleet.plan != nil {
		st := fleet.plan.Stats()
		res.Restarts += int(st.Restarts)
	}

	// The aborted-call attribution rule: every completed physical call —
	// those of failed runs, failed-but-completed calls — was charged to its query's
	// ledger, so with no aborted queries the per-query sums equal the
	// transport's lifetime totals exactly, faults and failovers included.
	if res.Aborted == 0 {
		//paxlint:allow ledger(fault-harness conservation check: comparing Σ per-query ledgers against the lifetime totals is the invariant itself)
		sent, recv := fleet.tr.Metrics().Bytes()
		//paxlint:allow ledger(fault-harness conservation check, see above)
		total := fleet.tr.Metrics().TotalCompute()
		if sent != sumSent || recv != sumRecv || total != sumCompute {
			res.LedgerViolations++
			fail("fault seed %d %s: ledger conservation broken: Σ per-query %d/%d bytes %v compute, transport %d/%d bytes %v compute",
				seed, opts.Transport, sumSent, sumRecv, sumCompute, sent, recv, total)
		}
	}
	return res, nil
}

// buildFaultFleet deploys the replicated topology on the chosen
// transport with full replica coverage plus two extra attempts per query,
// on the engine's own backoff schedule.
func buildFaultFleet(topo *pax.Topology, transport DiffTransport) (*faultFleet, error) {
	replication := 0
	for _, p := range topo.Primaries() {
		if n := len(topo.ReplicasOf(p)); n > replication {
			replication = n
		}
	}
	attempts := pax.WithMaxAttempts(replication + 2)
	f := &faultFleet{topo: topo, sites: make(map[dist.SiteID]*pax.Site)}
	if transport == DiffTCP {
		f.servers = make(map[dist.SiteID]*dist.TCPServer)
		f.addrs = make(map[dist.SiteID]string)
		f.down = make(map[dist.SiteID]bool)
		for _, sid := range topo.Sites() {
			var frags []*fragment.Fragment
			for _, fid := range topo.FragsAt(sid) {
				frags = append(frags, topo.FT.Frag(fid))
			}
			site := pax.NewSite(sid, frags)
			srv, err := dist.NewTCPServer("127.0.0.1:0", site.Handler())
			if err != nil {
				for _, s := range f.servers {
					s.Close()
				}
				return nil, err
			}
			f.sites[sid] = site
			f.servers[sid] = srv
			f.addrs[sid] = srv.Addr()
		}
		tcp := dist.NewTCP(f.addrs)
		f.tr = tcp
		f.eng = pax.NewEngine(topo, tcp, attempts)
		f.shutdown = func() {
			tcp.Close()
			for _, s := range f.servers {
				s.Close()
			}
		}
		return f, nil
	}
	local, sites := pax.BuildLocalCluster(topo)
	for _, s := range sites {
		f.sites[s.ID()] = s
	}
	f.tr = local
	f.eng = pax.NewEngine(topo, local, attempts)
	f.shutdown = func() {}
	return f, nil
}

// FaultSweep runs n fault-injection schedules (seeds base..base+n-1),
// several at a time — schedules are fully independent deployments — and
// merges their results. The first environmental error aborts the sweep.
func FaultSweep(ctx context.Context, base int64, n int, opts FaultOptions) (*FaultResult, error) {
	total := &FaultResult{}
	workers := runtime.GOMAXPROCS(0)
	if workers > n {
		workers = n
	}
	if workers < 1 {
		workers = 1
	}
	var (
		mu       sync.Mutex
		wg       sync.WaitGroup
		firstErr error
	)
	seeds := make(chan int64)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for seed := range seeds {
				r, err := RunFaultInjection(ctx, seed, opts)
				mu.Lock()
				if err != nil && firstErr == nil {
					firstErr = err
				}
				if r != nil {
					total.Merge(r)
				}
				mu.Unlock()
			}
		}()
	}
	for i := 0; i < n; i++ {
		seeds <- base + int64(i)
	}
	close(seeds)
	wg.Wait()
	return total, firstErr
}
