// Package paxq is a distributed XPath query engine with performance
// guarantees, reproducing "Distributed Query Evaluation with Performance
// Guarantees" (Cong, Fan, Kementsietsidis — SIGMOD 2007).
//
// An XML document is fragmented into subtrees distributed over sites; paxq
// evaluates data-selecting XPath queries (downward axes + qualifiers) over
// the fragmented tree using partial evaluation: every site evaluates the
// whole query over its fragments, producing residual Boolean formulas over
// variables that stand for the data other sites hold; the coordinator
// unifies them. The guarantees, independent of how the tree is fragmented
// and distributed:
//
//   - each site is visited at most 3 times (PaX3), at most 2 (PaX2), and
//     as little as once with the annotation optimization;
//   - network traffic is O(|Q|·|fragments| + |answer|) — never O(|tree|);
//   - total computation is comparable to the best centralized algorithm.
//
// Quick start:
//
//	doc, _ := paxq.ParseDocument(strings.NewReader(xmlText))
//	cluster, _ := paxq.NewCluster(doc, paxq.ClusterOptions{Fragments: 4, Sites: 2})
//	defer cluster.Close()
//	answers, _ := cluster.Evaluate(`//broker[//stock/code = "GOOG"]/name`)
//
// # Concurrency and serving
//
// A Cluster is a long-lived serving object: once built, any number of
// goroutines may call Evaluate, Query and EvaluateBool concurrently —
// cmd/paxserve exposes exactly this over HTTP. Each evaluation carries a
// private cost ledger fed by per-call transport costs, so the Stats of
// one query are attributed to that query alone and the paper's per-query
// guarantees (visit bound, traffic bound) can be asserted even under
// concurrent load. Sites evaluate queries concurrently, but one stage
// request's fragments one after another: the site is the unit of
// parallelism, and a visit's computation cost is its handler time as the
// transport measures it. Compiled query plans are cached and
// shared between evaluations. Close must not be called while evaluations
// are in flight; in-flight queries then fail with transport errors.
//
// # Overload and deadlines
//
// ClusterOptions.MaxInFlight enables admission control: beyond the bound,
// evaluations fail fast with ErrOverloaded, or first queue for up to
// ClusterOptions.QueueTimeout. QueryContext bounds a single evaluation
// with a context whose deadline travels down to the site transport.
// TransportStats exposes the transport's lifetime cost counters for
// monitoring (paxserve serves them at /metrics).
package paxq

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"io"
	"strings"
	"time"

	"paxq/internal/centeval"
	"paxq/internal/dist"
	"paxq/internal/fragment"
	"paxq/internal/pax"
	"paxq/internal/xmark"
	"paxq/internal/xmltree"
	"paxq/internal/xpath"
)

// ErrOverloaded is returned by Query/Evaluate when the cluster's admission
// limit (ClusterOptions.MaxInFlight) is reached and the evaluation was
// shed, or timed out queueing for a slot (ClusterOptions.QueueTimeout).
// The query never started; retrying later is safe. Match with errors.Is.
var ErrOverloaded = pax.ErrOverloaded

// Document is a parsed XML document.
type Document struct {
	tree *xmltree.Tree
}

// ParseDocument reads an XML document.
func ParseDocument(r io.Reader) (*Document, error) {
	t, err := xmltree.Parse(r)
	if err != nil {
		return nil, err
	}
	return &Document{tree: t}, nil
}

// ParseDocumentString is ParseDocument over a string.
func ParseDocumentString(s string) (*Document, error) {
	return ParseDocument(strings.NewReader(s))
}

// Nodes returns the number of nodes in the document.
func (d *Document) Nodes() int { return d.tree.Size() }

// Bytes returns the estimated serialized size.
func (d *Document) Bytes() int { return d.tree.ComputeStats().Bytes }

// XML serializes the document.
func (d *Document) XML() string { return xmltree.SerializeString(d.tree.Root) }

// GenerateXMark generates a synthetic XMark-like document (the workload of
// the paper's experiments): a "sites" root with the given number of XMark
// site subtrees, totalling approximately mb megabytes. Deterministic in
// seed.
func GenerateXMark(sites int, mb float64, seed int64) *Document {
	if sites < 1 {
		sites = 1
	}
	if mb <= 0 {
		mb = 0.1
	}
	cal := xmark.Calibrate()
	spec := cal.SpecForBytes(int(mb * 1e6 / float64(sites)))
	return &Document{tree: xmark.Generate(sites, spec, seed)}
}

// Answer is one element of a query answer. A query's answers come
// ordered by Fragment, then by Node, which within a fragment is document
// order. The coordinator places each answer straight from its site
// response into the Answer slice a query returns, with no intermediate
// copy.
type Answer struct {
	// Fragment and Node identify the element within the fragmented tree.
	Fragment int
	Node     int
	// Label and Value are the element's tag and string value.
	Label string
	Value string
	// XML is the serialized subtree when requested via ShipXML.
	XML string
}

// Stats reports the cost profile of one distributed evaluation — the
// quantities the paper's guarantees bound.
type Stats struct {
	Algorithm     string
	Stages        int
	MaxSiteVisits int
	BytesSent     int64
	BytesReceived int64
	Wall          time.Duration
	TotalCompute  time.Duration
	// ParallelCompute is the paper's parallel computation cost: per stage,
	// the maximum computation time across sites — the evaluation time
	// perceived on a cluster with one machine per site.
	ParallelCompute time.Duration
	RelevantFrags   int
	TotalFrags      int
	// Retries counts the times the failover layer ran this query again
	// after a retriable stage failure; Failovers counts the replica groups
	// those re-runs rotated to a different member. Both 0 on a fault-free
	// run, where MaxSiteVisits obeys the paper's exact bound; each run
	// visits a site at most that often, so under faults MaxSiteVisits <=
	// bound * (1 + Retries).
	Retries   int
	Failovers int
}

// TransportKind selects how coordinator and sites communicate.
type TransportKind int

// Transports: in-process (default) or real TCP servers on loopback.
const (
	TransportLocal TransportKind = iota
	TransportTCP
)

// ClusterOptions configures fragmentation and deployment.
type ClusterOptions struct {
	// Fragments requests a random fragmentation with this many fragments
	// (at least 1). Ignored when CutPaths or MaxFragmentNodes is set.
	Fragments int
	// CutPaths fragments the document at the elements selected by these
	// XPath queries — precise, declarative fragmentation.
	CutPaths []string
	// MaxFragmentNodes fragments by size: no fragment much exceeds this
	// node count.
	MaxFragmentNodes int
	// Sites is the number of sites fragments are spread over
	// (round-robin). Defaults to one site per fragment.
	Sites int
	// Transport selects in-process or TCP deployment.
	Transport TransportKind
	// Seed drives random fragmentation.
	Seed int64

	// MaxInFlight bounds the number of concurrently admitted evaluations
	// (admission control). Beyond it, Query fails fast with ErrOverloaded —
	// or queues, see QueueTimeout. 0 means unlimited.
	MaxInFlight int
	// QueueTimeout switches admission from immediate shedding to
	// queue-with-deadline: an evaluation arriving at a full cluster waits
	// up to this long for a slot before failing with ErrOverloaded.
	// Meaningful only with MaxInFlight > 0.
	QueueTimeout time.Duration

	// Replicas deploys every site as a replica group of this many members
	// hosting identical fragment copies: the coordinator addresses the
	// group's primary and, when a site dies mid-query, runs the query
	// again on the next replica of its group, so answers survive site
	// failures unchanged. 0 or 1 means no replication.
	Replicas int
	// Registry, when non-empty, is the path of a site-registry JSON file
	// (see pax.Registry) describing which replica sites host each fragment.
	// It overrides Sites and Replicas: the topology — replica groups
	// included — is exactly what the file says. The fragmentation options
	// (Fragments/CutPaths/MaxFragmentNodes/Seed) must produce the fragment
	// count the registry covers. NewCluster still instantiates every site
	// itself (in-process or loopback TCP); the registry's address list is
	// a deployment artifact for cmd/paxsite fleets and is not dialed here.
	Registry string
	// RetryMaxAttempts bounds how many times one query runs before it
	// fails (first run included); each re-run follows a retriable stage
	// failure and rotates the failed replica groups. 0 picks
	// the default: 4 when replicated, 1 (no retrying) otherwise; negative
	// is an error. Replication or a retry policy is how a query survives a
	// site restart: the transport never waits to redial, so on an
	// unreplicated cluster without RetryMaxAttempts > 1 a call to a
	// restarting site fails at once with a retriable error.
	RetryMaxAttempts int
	// RetryBackoff is the wait before a query's second run; each further
	// run doubles it. It needs RetryMaxAttempts > 0
	// (NewCluster rejects it otherwise, and any negative retry option); the
	// default policy waits 2ms.
	RetryBackoff time.Duration
	// RetryMaxBackoff caps the exponential backoff schedule. It needs
	// RetryMaxAttempts > 0, like RetryBackoff; the default caps at 50ms.
	RetryMaxBackoff time.Duration
}

// Cluster is a fragmented, distributed document plus a coordinator. It is
// safe for concurrent use: many queries may be evaluated at once, each
// receiving its own independent Stats (see the package comment).
type Cluster struct {
	ft       *fragment.Fragmentation
	topo     *pax.Topology
	engine   *pax.Engine
	tr       dist.Transport
	sites    []*pax.Site
	shutdown func()
}

// NewCluster fragments doc and deploys the fragments over sites. The
// element name fragment-ref is reserved: it marks fragment boundaries in
// the fragments' XML form, and a document using it is rejected.
func NewCluster(doc *Document, opts ClusterOptions) (*Cluster, error) {
	if opts.RetryMaxAttempts < 0 || opts.RetryBackoff < 0 || opts.RetryMaxBackoff < 0 {
		return nil, fmt.Errorf("paxq: negative retry option (RetryMaxAttempts %d, RetryBackoff %v, RetryMaxBackoff %v)",
			opts.RetryMaxAttempts, opts.RetryBackoff, opts.RetryMaxBackoff)
	}
	if opts.RetryMaxAttempts == 0 && (opts.RetryBackoff != 0 || opts.RetryMaxBackoff != 0) {
		return nil, errors.New("paxq: RetryBackoff and RetryMaxBackoff need RetryMaxAttempts > 0")
	}
	var cuts []xmltree.NodeID
	switch {
	case len(opts.CutPaths) > 0:
		seen := make(map[xmltree.NodeID]bool)
		for _, path := range opts.CutPaths {
			q, err := xpath.Parse(path)
			if err != nil {
				return nil, fmt.Errorf("paxq: cut path %q: %w", path, err)
			}
			for _, n := range centeval.EvalNaive(doc.tree, q) {
				if n.Parent == nil {
					continue // cannot cut at the root
				}
				if !seen[n.ID] {
					seen[n.ID] = true
					cuts = append(cuts, n.ID)
				}
			}
		}
	case opts.MaxFragmentNodes > 0:
		cuts = fragment.CutsBySize(doc.tree, opts.MaxFragmentNodes)
	case opts.Fragments > 1:
		cuts = fragment.RandomCuts(doc.tree, opts.Fragments-1, opts.Seed)
	}
	ft, err := fragment.Cut(doc.tree, cuts)
	if err != nil {
		return nil, fmt.Errorf("paxq: %w", err)
	}
	sites := opts.Sites
	if sites <= 0 {
		sites = ft.Len()
	}
	var topo *pax.Topology
	switch {
	case opts.Registry != "":
		reg, rerr := pax.LoadRegistry(opts.Registry)
		if rerr != nil {
			return nil, fmt.Errorf("paxq: %w", rerr)
		}
		topo, err = reg.Topology(ft)
		if err != nil {
			return nil, fmt.Errorf("paxq: %w", err)
		}
	case opts.Replicas > 1:
		topo = pax.RoundRobinReplicated(ft, sites, opts.Replicas)
	default:
		topo = pax.RoundRobin(ft, sites)
	}
	c := &Cluster{ft: ft, topo: topo}
	engOpts := []pax.EngineOption{
		pax.WithMaxInFlight(opts.MaxInFlight),
		pax.WithQueueTimeout(opts.QueueTimeout),
	}
	if opts.RetryMaxAttempts > 0 {
		engOpts = append(engOpts, pax.WithRetryPolicy(pax.RetryPolicy{
			MaxAttempts: opts.RetryMaxAttempts,
			Backoff:     opts.RetryBackoff,
			MaxBackoff:  opts.RetryMaxBackoff,
		}))
	}
	switch opts.Transport {
	case TransportLocal:
		local, sites := pax.BuildLocalCluster(topo)
		c.engine = pax.NewEngine(topo, local, engOpts...)
		c.tr = local
		c.sites = sites
		c.shutdown = func() {}
	case TransportTCP:
		tcp, sites, stop, err := pax.BuildTCPCluster(topo)
		if err != nil {
			return nil, fmt.Errorf("paxq: %w", err)
		}
		c.engine = pax.NewEngine(topo, tcp, engOpts...)
		c.tr = tcp
		c.sites = sites
		c.shutdown = stop
	default:
		return nil, fmt.Errorf("paxq: unknown transport %d", opts.Transport)
	}
	return c, nil
}

// Close releases cluster resources (TCP servers, connections).
func (c *Cluster) Close() {
	if c.shutdown != nil {
		c.shutdown()
	}
}

// Fragments returns the number of fragments.
func (c *Cluster) Fragments() int { return c.ft.Len() }

// Sites returns the number of sites.
func (c *Cluster) Sites() int { return len(c.topo.Sites()) }

// QueryOptions tune one evaluation.
type QueryOptions struct {
	// Algorithm: "pax2" (default), "pax3" or "naive".
	Algorithm string
	// Annotations enables the §5 fragment-pruning optimization
	// (default on for Evaluate).
	Annotations bool
	// ShipXML returns serialized answer subtrees.
	ShipXML bool
}

func (o QueryOptions) toPax() (pax.Options, error) {
	alg, err := pax.ParseAlgorithm(o.Algorithm)
	return pax.Options{Algorithm: alg, Annotations: o.Annotations, ShipXML: o.ShipXML}, err
}

// Query evaluates an XPath query with explicit options and returns the
// answers plus the evaluation's cost profile. Safe for concurrent use;
// the returned Stats cover this evaluation alone.
func (c *Cluster) Query(query string, opts QueryOptions) ([]Answer, *Stats, error) {
	//paxlint:allow ctxflow(public blocking wrapper: Query's documented contract is an unbounded evaluation; QueryContext is the flowed form)
	return c.QueryContext(context.Background(), query, opts)
}

// QueryContext is Query bounded by a context: the deadline (or
// cancellation) covers admission queueing and every site round trip, and
// is propagated through the transport so a slow or unreachable site fails
// the query instead of wedging the caller. Under admission control
// (ClusterOptions.MaxInFlight), a full cluster sheds or queues; both
// surface as ErrOverloaded. The answers come ordered by fragment, then by
// node within a fragment, which is document order there.
func (c *Cluster) QueryContext(ctx context.Context, query string, opts QueryOptions) ([]Answer, *Stats, error) {
	po, err := opts.toPax()
	if err != nil {
		return nil, nil, err
	}
	res, answers, err := pax.RunAs(ctx, c.engine, query, po, newAnswer, byNode)
	if err != nil {
		return nil, nil, err
	}
	stats := &Stats{
		Algorithm:       po.Algorithm.String(),
		Stages:          res.Stages,
		MaxSiteVisits:   res.MaxVisits,
		BytesSent:       res.BytesSent,
		BytesReceived:   res.BytesRecv,
		Wall:            res.Wall,
		TotalCompute:    res.TotalCompute,
		ParallelCompute: res.ParallelCompute,
		RelevantFrags:   res.RelevantFrags,
		TotalFrags:      res.TotalFrags,
		Retries:         res.Retries,
		Failovers:       res.Failovers,
	}
	return answers, stats, nil
}

// newAnswer builds the Answer of a site's answer record.
func newAnswer(a *pax.AnswerNode) Answer {
	return Answer{Fragment: int(a.Frag), Node: int(a.Node), Label: a.Label, Value: a.Value, XML: a.XML}
}

// byNode orders two answers of one fragment.
func byNode(a, b Answer) int { return cmp.Compare(a.Node, b.Node) }

// Evaluate runs the query with the best default configuration: PaX2 with
// XPath annotations.
func (c *Cluster) Evaluate(query string) ([]Answer, error) {
	ans, _, err := c.Query(query, QueryOptions{Algorithm: "pax2", Annotations: true})
	return ans, err
}

// EvaluateBool evaluates a Boolean query (a bare qualifier such as
// "[//stock/code = 'GOOG']") using the distributed ParBoX protocol — the
// single-pass Boolean algorithm the paper's Stage 1 extends. Every site is
// visited at most once.
func (c *Cluster) EvaluateBool(query string) (bool, error) {
	//paxlint:allow ctxflow(public blocking wrapper: EvaluateBoolContext is the flowed form)
	return c.EvaluateBoolContext(context.Background(), query)
}

// EvaluateBoolContext is EvaluateBool bounded by a context, with the same
// deadline and admission-control semantics as QueryContext.
func (c *Cluster) EvaluateBoolContext(ctx context.Context, query string) (bool, error) {
	ok, _, err := c.engine.RunBooleanContext(ctx, query, pax.Options{})
	return ok, err
}

// SiteCacheStats are the sites' Stage-1 memo counters, summed over the
// cluster's sites. Each site keeps, beside a repeated query's compiled
// form, the query's Stage-1 result per hosted fragment version, and looks
// it up once per fragment a qualifier stage or a PaX2 combined visit
// evaluates: Hits found the result for the fragment version asked about,
// Misses ran the qualifier pass, and Evictions counts results a miss
// replaced because an edit had moved their fragment to another version.
type SiteCacheStats struct {
	Hits      int64
	Misses    int64
	Evictions int64
}

// FailoverStats are the coordinator's lifetime failover counters (all zero
// without replication or retries): how often a query was run again after
// a retriable stage failure, how often a replica group rotated to another
// member, and how many transport-level dead-site detections were
// observed. Surfaced in TransportStats and paxserve's /metrics.
type FailoverStats struct {
	Retries            int64
	Failovers          int64
	DeadSiteDetections int64
}

// TransportStats are the cluster transport's cumulative lifetime counters:
// the sum of the cost of every site call ever made, across all queries —
// plus the coordinator's failover counters. Per-query accounting lives in Stats; these totals feed
// monitoring (e.g. paxserve's /metrics endpoint).
type TransportStats struct {
	BytesSent     int64
	BytesReceived int64
	TotalCompute  time.Duration
	TotalVisits   int
	SiteVisits    map[int]int
	// SiteCache counts the sites' Stage-1 memo lookups (see
	// SiteCacheStats).
	SiteCache SiteCacheStats
	Failover  FailoverStats
}

// TransportStats returns a snapshot of the transport's lifetime counters.
// Safe for concurrent use with in-flight queries.
func (c *Cluster) TransportStats() TransportStats {
	//paxlint:allow ledger(read-only snapshot of the lifetime totals for monitoring; never resets, never feeds per-query Stats)
	snap := c.tr.Metrics().Snapshot()
	out := TransportStats{
		BytesSent:     snap.Sent,
		BytesReceived: snap.Recv,
		TotalVisits:   snap.TotalVisits(),
		SiteVisits:    make(map[int]int, len(snap.Visits)),
	}
	for site, n := range snap.Visits {
		out.SiteVisits[int(site)] = n
	}
	for _, d := range snap.Compute {
		out.TotalCompute += d
	}
	for _, s := range c.sites {
		ms := s.MemoStats()
		out.SiteCache.Hits += ms.Hits
		out.SiteCache.Misses += ms.Misses
		out.SiteCache.Evictions += ms.Replaced
	}
	fs := c.engine.FailoverStats()
	out.Failover = FailoverStats{
		Retries:            fs.Retries,
		Failovers:          fs.Failovers,
		DeadSiteDetections: fs.DeadSites,
	}
	return out
}

// Replicas returns the cluster's replication factor: the size of the
// largest replica group (1 when unreplicated).
func (c *Cluster) Replicas() int {
	max := 1
	for _, p := range c.topo.Primaries() {
		if n := len(c.topo.ReplicasOf(p)); n > max {
			max = n
		}
	}
	return max
}

// SaveRegistry writes the cluster's fragment-to-replica-site assignment as
// a registry file (see ClusterOptions.Registry) — a deployment artifact
// for reconstructing the same topology, e.g. across a cmd/paxsite fleet.
// Addresses are included only for TCP clusters.
func (c *Cluster) SaveRegistry(path string) error {
	addrs := map[dist.SiteID]string{}
	if tcp, ok := c.tr.(*dist.TCP); ok {
		addrs = tcp.Addrs()
	}
	return pax.NewRegistry(c.topo, addrs).Save(path)
}

// DrillSiteOutage schedules a deterministic site outage on an in-process
// cluster — the transport-level fault injection behind the harness,
// exposed so a deployment can rehearse failover and watch its monitoring
// move: the site's after-th upcoming call fails, the site stays
// unreachable for the next down calls, and it then restarts with all
// in-memory state (compiled queries, Stage-1 results, previous fragment
// versions) wiped, exactly like a crashed and supervised process. On a replicated
// cluster, or one with a retry policy, a query that meets the outage runs
// again, on the next replica of the dead site's group — answers
// unchanged, the failover counters of TransportStats (and paxserve's
// /metrics and /statsz) advancing — while an unprotected cluster sees the
// affected query fail. Scheduling a drill replaces any
// previous one; schedule only while no queries are in flight. TCP
// clusters drill for real — kill the site's process — so an error is
// returned for them and for unknown sites.
func (c *Cluster) DrillSiteOutage(site, after, down int) error {
	local, ok := c.tr.(*dist.Local)
	if !ok {
		return fmt.Errorf("paxq: outage drills are in-process only; on a TCP fleet, kill the site's process")
	}
	var target *pax.Site
	for _, s := range c.sites {
		if int(s.ID()) == site {
			target = s
		}
	}
	if target == nil {
		return fmt.Errorf("paxq: no site %d in this cluster", site)
	}
	if after < 1 {
		after = 1
	}
	if down < 0 {
		down = 0
	}
	plan := dist.NewFaultPlan(dist.SiteFault{Site: dist.SiteID(site), Call: after, Action: dist.FaultKill, Down: down})
	plan.OnRestart = func(dist.SiteID) { target.Restart() }
	local.FaultHook = plan.Hook
	return nil
}

// EditOp selects the kind of fragment edit Cluster.ApplyEdit performs.
type EditOp int

// Fragment edit operations.
const (
	// EditInsert attaches the subtree parsed from Edit.SubtreeXML as child
	// number Edit.Pos of element Edit.Node.
	EditInsert EditOp = iota
	// EditDelete removes the subtree rooted at Edit.Node.
	EditDelete
	// EditRename relabels element Edit.Node to Edit.Label.
	EditRename
)

// Edit describes one mutation of a fragment's subtree, addressed by the
// fragment-local node IDs that Answer.Node and Answer.Fragment report.
// The fragmentation skeleton is fixed: fragment roots and the virtual
// cut points connecting fragments can be neither deleted nor renamed,
// and inserted subtrees must be element-rooted. Invalid edits fail
// without changing anything.
type Edit struct {
	// Fragment is the fragment to edit, 0..Cluster.Fragments()-1.
	Fragment int
	// Op is the operation to perform.
	Op EditOp
	// Node is the fragment-local target: the delete/rename subject, or
	// the insert parent.
	Node int
	// Pos is the insert slot among Node's children (text children
	// counted), 0..len(children); ignored for delete and rename.
	Pos int
	// Label is the rename's new label, an XML name without a colon and
	// not fragment-ref; ignored otherwise.
	Label string
	// SubtreeXML is the insert's payload, a single-rooted XML snippet
	// such as "<broker><name>Ada</name></broker>"; ignored otherwise.
	SubtreeXML string
}

// toFragment renders the public edit as the internal one, parsing the
// insert payload.
func (e Edit) toFragment() (fragment.Edit, error) {
	ed := fragment.Edit{Node: xmltree.NodeID(e.Node), Pos: e.Pos, Label: e.Label}
	switch e.Op {
	case EditInsert:
		ed.Op = fragment.EditInsert
		t, err := xmltree.ParseString(e.SubtreeXML)
		if err != nil {
			return ed, fmt.Errorf("paxq: edit subtree: %w", err)
		}
		ed.Subtree = t.Root
	case EditDelete:
		ed.Op = fragment.EditDelete
	case EditRename:
		ed.Op = fragment.EditRename
	default:
		return ed, fmt.Errorf("paxq: unknown edit op %d", int(e.Op))
	}
	return ed, nil
}

// EditResult reports one applied edit: where the fragment's version moved
// and the edit's own transport ledger. Like a query's Stats, the
// ledger is private to this edit; summed with every query's Stats it
// accounts for the transport's lifetime totals exactly.
type EditResult struct {
	// Fragment echoes the edited fragment; NewVersion is its version on
	// every replica after the edit.
	Fragment   int
	NewVersion uint64
	// Sites is the replica-group size the edit was delivered to; Replayed
	// counts members that acknowledged idempotently instead of re-applying
	// (they already held this edit from an earlier, partially failed
	// delivery).
	Sites    int
	Replayed int
	// Dropped, Retained and Patched are always 0. They counted the fates
	// of a site-side Stage-1 cache that no longer exists, and stay only
	// because the benchmark module still reads them.
	Dropped  int
	Retained int
	Patched  int
	// Retries counts per-replica deliveries attempted again after a
	// transport failure.
	Retries       int
	BytesSent     int64
	BytesReceived int64
	TotalCompute  time.Duration
}

// ApplyEdit applies one edit to the fragment's subtree on every replica
// hosting it. Edits on a cluster serialize with each other; queries keep running
// concurrently, and each in-flight query sees one consistent fragment
// version end to end — either fully before or fully after the edit, never
// a mix.
//
// On error no fragment version has advanced, and re-issuing the same edit
// is the safe and exact recovery: replicas that did apply it acknowledge
// idempotently (counted in EditResult.Replayed), the rest apply it.
//
// Note that coordinator planning is intentionally not re-derived: it
// depends only on facts the edit restrictions pin (fragment count, the
// cut-point skeleton, spine annotations), so plans compiled before an
// edit remain exact after it.
func (c *Cluster) ApplyEdit(e Edit) (*EditResult, error) {
	//paxlint:allow ctxflow(public blocking wrapper: ApplyEditContext is the flowed form)
	return c.ApplyEditContext(context.Background(), e)
}

// ApplyEditContext is ApplyEdit bounded by a context covering every
// replica delivery, including retry backoff while a replica is down.
func (c *Cluster) ApplyEditContext(ctx context.Context, e Edit) (*EditResult, error) {
	if e.Fragment < 0 || e.Fragment >= c.ft.Len() {
		return nil, fmt.Errorf("paxq: no fragment %d in this cluster (have %d)", e.Fragment, c.ft.Len())
	}
	ed, err := e.toFragment()
	if err != nil {
		return nil, err
	}
	res, err := c.engine.ApplyEdit(ctx, fragment.FragID(e.Fragment), ed)
	if err != nil {
		return nil, err
	}
	return &EditResult{
		Fragment:      int(res.Frag),
		NewVersion:    res.NewVersion,
		Sites:         res.Sites,
		Replayed:      res.Replayed,
		Retries:       res.Retries,
		BytesSent:     res.BytesSent,
		BytesReceived: res.BytesRecv,
		TotalCompute:  res.Compute,
	}, nil
}

// EvaluateCentralized evaluates query over the unfragmented document with
// the efficient O(|T|·|Q|) centralized algorithm — the single-site
// baseline. Returns the matched elements' labels, values and serialized
// subtrees: the oracle for what a ShipXML query ships, whatever the cut.
func EvaluateCentralized(doc *Document, query string) ([]Answer, error) {
	c, err := xpath.Compile(query)
	if err != nil {
		return nil, err
	}
	var out []Answer
	for _, n := range centeval.EvalVectorNodes(doc.tree, c) {
		out = append(out, Answer{Fragment: 0, Node: int(n.ID), Label: n.Label, Value: n.Value(), XML: xmltree.SerializeString(n)})
	}
	return out, nil
}

// CompileCheck parses and compiles a query, returning a descriptive error
// for invalid input. Useful for validating user queries up front.
func CompileCheck(query string) error {
	_, err := xpath.Compile(query)
	return err
}

// NormalForm renders the §2.2 normal form of a query.
func NormalForm(query string) (string, error) {
	q, err := xpath.Parse(query)
	if err != nil {
		return "", err
	}
	return xpath.NormalForm(q), nil
}
