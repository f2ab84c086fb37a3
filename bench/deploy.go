package main

import (
	"context"
	"fmt"
	"strings"

	"paxq"
	"paxq/internal/centeval"
	"paxq/internal/dist"
	"paxq/internal/fragment"
	"paxq/internal/pax"
	"paxq/internal/xmltree"
	"paxq/internal/xpath"
)

// deployment is the slice of the public API the load loop drives.
// *paxq.Cluster is the real one; tracedCluster is the hand-assembled twin
// whose layer boundaries are wrapped.
type deployment interface {
	QueryContext(ctx context.Context, query string, opts paxq.QueryOptions) ([]paxq.Answer, *paxq.Stats, error)
	ApplyEditContext(ctx context.Context, e paxq.Edit) (*paxq.EditResult, error)
	Close()
}

// tracedCluster is the deployment paxq.NewCluster builds with zero
// performance options, assembled from the same constructors so that the
// transport and the site handlers can be wrapped. The smoke test holds it
// to NewCluster's answers, stages, visits and bytes, so it cannot drift
// from the default deployment unnoticed.
type tracedCluster struct {
	rec     *recorder
	engine  *pax.Engine
	tcp     *dist.TCP
	servers []*dist.TCPServer
	// fragments is the number of fragments deployed.
	fragments int
}

// cutsFor mirrors NewCluster's choice of cut nodes.
func cutsFor(tree *xmltree.Tree, opts paxq.ClusterOptions) ([]xmltree.NodeID, error) {
	if len(opts.CutPaths) == 0 {
		return fragment.RandomCuts(tree, opts.Fragments-1, opts.Seed), nil
	}
	var cuts []xmltree.NodeID
	seen := make(map[xmltree.NodeID]bool)
	for _, path := range opts.CutPaths {
		q, err := xpath.Parse(path)
		if err != nil {
			return nil, fmt.Errorf("cut path %q: %w", path, err)
		}
		for _, n := range centeval.EvalNaive(tree, q) {
			if n.Parent != nil && !seen[n.ID] {
				seen[n.ID] = true
				cuts = append(cuts, n.ID)
			}
		}
	}
	return cuts, nil
}

func newTracedCluster(tree *xmltree.Tree, opts paxq.ClusterOptions) (*tracedCluster, error) {
	cuts, err := cutsFor(tree, opts)
	if err != nil {
		return nil, err
	}
	ft, err := fragment.Cut(tree, cuts)
	if err != nil {
		return nil, err
	}
	topo := pax.RoundRobin(ft, opts.Sites)
	tc := &tracedCluster{rec: newRecorder(), fragments: ft.Len()}
	addrs := make(map[dist.SiteID]string)
	for _, sid := range topo.Sites() {
		var frags []*fragment.Fragment
		for _, fid := range topo.FragsAt(sid) {
			frags = append(frags, ft.Frag(fid))
		}
		site := pax.NewSite(sid, frags)
		srv, err := dist.NewTCPServer("127.0.0.1:0", tc.rec.wrapHandler(sid, site.Handler()))
		if err != nil {
			tc.Close()
			return nil, err
		}
		tc.servers = append(tc.servers, srv)
		addrs[sid] = srv.Addr()
	}
	tc.tcp = dist.NewTCP(addrs)
	tc.engine = pax.NewEngine(topo, &tracedTransport{Transport: tc.tcp, rec: tc.rec})
	return tc, nil
}

func (tc *tracedCluster) Close() {
	if tc.tcp != nil {
		tc.tcp.Close()
	}
	for _, s := range tc.servers {
		s.Close()
	}
}

// QueryContext is paxq.Cluster.QueryContext with the evaluation timed as a
// "query" root span.
func (tc *tracedCluster) QueryContext(ctx context.Context, query string, opts paxq.QueryOptions) ([]paxq.Answer, *paxq.Stats, error) {
	po := pax.Options{Annotations: opts.Annotations, ShipXML: opts.ShipXML}
	switch strings.ToLower(opts.Algorithm) {
	case "", "pax2":
		po.Algorithm = pax.PaX2
	case "pax3":
		po.Algorithm = pax.PaX3
	default:
		return nil, nil, fmt.Errorf("bench: algorithm %q is not part of any workload", opts.Algorithm)
	}
	var res *pax.Result
	var err error
	tc.rec.root(ctx, "query", func(ctx context.Context) {
		res, err = tc.engine.RunContext(ctx, query, po)
	})
	if err != nil {
		return nil, nil, err
	}
	answers := make([]paxq.Answer, len(res.Answers))
	for i, a := range res.Answers {
		answers[i] = paxq.Answer{Fragment: int(a.Frag), Node: int(a.Node), Label: a.Label, Value: a.Value, XML: a.XML}
	}
	return answers, &paxq.Stats{
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
	}, nil
}

// ApplyEditContext is paxq.Cluster.ApplyEditContext (inserts and deletes
// only — the workloads use nothing else) timed as an "edit" root span.
func (tc *tracedCluster) ApplyEditContext(ctx context.Context, e paxq.Edit) (*paxq.EditResult, error) {
	ed := fragment.Edit{Node: xmltree.NodeID(e.Node), Pos: e.Pos}
	switch e.Op {
	case paxq.EditInsert:
		ed.Op = fragment.EditInsert
		t, err := xmltree.ParseString(e.SubtreeXML)
		if err != nil {
			return nil, fmt.Errorf("bench: edit subtree: %w", err)
		}
		ed.Subtree = t.Root
	case paxq.EditDelete:
		ed.Op = fragment.EditDelete
	default:
		return nil, fmt.Errorf("bench: edit op %d is not part of any workload", int(e.Op))
	}
	var res *pax.EditResult
	var err error
	tc.rec.root(ctx, "edit", func(ctx context.Context) {
		res, err = tc.engine.ApplyEdit(ctx, fragment.FragID(e.Fragment), ed)
	})
	if err != nil {
		return nil, err
	}
	return &paxq.EditResult{
		Fragment: int(res.Frag), NewVersion: res.NewVersion, Sites: res.Sites, Replayed: res.Replayed,
		Dropped: int(res.Dropped), Retained: int(res.Retained), Patched: int(res.Patched), Retries: res.Retries,
		BytesSent: res.BytesSent, BytesReceived: res.BytesRecv, TotalCompute: res.Compute,
	}, nil
}

// checkConservation requires the call spans' bytes to add up to the
// transport's own lifetime counters exactly: every call the transport
// metered went through the wrapper, and nothing else did. Call it on the
// quiescent deployment.
func (tc *tracedCluster) checkConservation(spans []span) error {
	var sent, recv int64
	for i := range spans {
		sent += spans[i].Sent
		recv += spans[i].Recv
	}
	//paxlint:allow ledger(read-only comparison of the lifetime totals with the spans' sum; feeds no metric)
	snap := tc.tcp.Metrics().Snapshot()
	if sent != snap.Sent || recv != snap.Recv {
		return fmt.Errorf("span bytes %d/%d differ from the transport's lifetime counters %d/%d", sent, recv, snap.Sent, snap.Recv)
	}
	return nil
}
