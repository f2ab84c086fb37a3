package pax

import (
	"context"
	"fmt"
	"strings"

	"paxq/internal/centeval"
	"paxq/internal/dist"
	"paxq/internal/fragment"
	"paxq/internal/xmltree"
	"paxq/internal/xpath"
)

// runNaive implements the NaiveCentralized baseline of §3: fetch every
// fragment to the coordinator, reassemble the tree, and evaluate centrally.
// Its network traffic is proportional to |T| — the cost the partial
// evaluation algorithms exist to avoid — and is visible directly in the
// Result's byte counters.
func (e *Engine) runNaive(ctx context.Context, r *run, c *xpath.Compiled, opts Options) (*Result, error) {
	n := e.topo.FT.Len()
	res := &Result{RelevantFrags: n}
	resps, err := r.stage(ctx, res, func(dist.SiteID) any { return &FetchReq{} })
	if err != nil {
		return nil, err
	}
	frags := make([]*fragment.Fragment, n)
	for site, resp := range resps {
		fr, err := respAs[*FetchResp](site, resp, "fetch")
		if err != nil {
			return nil, err
		}
		for _, wf := range fr.Frags {
			if wf.ID < 0 || int(wf.ID) >= n {
				return nil, fmt.Errorf("pax: naive fetch returned unknown fragment %d", wf.ID)
			}
			f, err := fragment.ReadFragment(strings.NewReader(wf.XML), wf.ID, n)
			if err != nil {
				return nil, fmt.Errorf("pax: naive fetch from site %d: %w", site, err)
			}
			f.Parent = e.topo.FT.Frags[wf.ID].Parent
			frags[wf.ID] = f
		}
	}
	ft, err := fragment.Assemble(frags)
	if err != nil {
		return nil, fmt.Errorf("pax: naive fetch: %w", err)
	}
	tree := ft.Reassemble()
	// Answers carry the fragment and local node each document node came
	// from, the identities PaX answers carry.
	ft.RecomputeOrigins()
	type origin struct {
		frag fragment.FragID
		node xmltree.NodeID
	}
	origins := make([]origin, tree.Size())
	for _, f := range ft.Frags {
		for local, g := range f.Origin {
			if _, virtual := f.VirtualAt(xmltree.NodeID(local)); !virtual {
				origins[g] = origin{f.ID, xmltree.NodeID(local)}
			}
		}
	}
	ids := centeval.EvalVector(tree, c)
	answers := make([]AnswerNode, len(ids))
	for i, id := range ids {
		nd, o := tree.Node(id), origins[id]
		answers[i] = AnswerNode{Frag: o.frag, Node: o.node, Label: nd.Label, Value: nd.Value()}
		if opts.ShipXML {
			answers[i].XML = xmltree.SerializeString(nd)
		}
	}
	res.runs = [][]AnswerNode{answers}
	return res, nil
}
