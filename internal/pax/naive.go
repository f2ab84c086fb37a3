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
// Result's byte counters. The fetch is one final-stage round that asks
// each primary for the bodies of all its fragments, which the site reads
// from one fragment-set snapshot, so a concurrent edit yields either the
// pre- or the post-edit version of every fragment — never a torn read.
func (e *Engine) runNaive(ctx context.Context, r *run, c *xpath.Compiled, opts Options) (*Result, error) {
	n := e.topo.FT.Len()
	res := &Result{RelevantFrags: n}
	resps, err := r.stage(ctx, res, func(p dist.SiteID) any {
		return &AnsStageReq{QID: r.qid, Bodies: e.topo.FragsAt(p)}
	})
	if err != nil {
		return nil, err
	}
	frags := make([]*fragment.Fragment, n)
	for site, resp := range resps {
		ar, err := respAs[*AnsStageResp](site, resp, "fetch")
		if err != nil {
			return nil, err
		}
		for _, wf := range ar.Bodies {
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
	type origin struct {
		frag fragment.FragID
		node xmltree.NodeID
	}
	origins := make([]origin, tree.Size())
	for fid, local := range ft.Origins() {
		f := ft.Frags[fid]
		for l, g := range local {
			if !f.VirtualMask.Get(l) {
				origins[g] = origin{f.ID, xmltree.NodeID(l)}
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
