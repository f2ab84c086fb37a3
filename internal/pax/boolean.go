package pax

import (
	"context"
	"fmt"

	"paxq/internal/boolexpr"
	"paxq/internal/dist"
	"paxq/internal/fragment"
	"paxq/internal/parbox"
	"paxq/internal/xpath"
)

// RunBooleanContext evaluates a Boolean query (a bare qualifier such as
// "[//stock/code = 'GOOG']") with the distributed ParBoX protocol of
// [Buneman et al., VLDB 2006], which the paper's Stage 1 extends: every
// site is visited exactly once — the qualifier pass — and the coordinator
// unifies the returned residual vectors to a single truth value. This is
// the one-visit guarantee ParBoX offers and PaX3/PaX2 generalize.
//
// It runs through RunContext's skeleton (serve), whose admission-control,
// deadline and retry semantics it shares: it is safe for concurrent use
// and attributes costs to its own Result alone.
func (e *Engine) RunBooleanContext(ctx context.Context, query string, opts Options) (truth bool, res *Result, err error) {
	res, err = e.serve(ctx, query, Options{Sequential: opts.Sequential}, func(r *run, p *plan) (*Result, error) {
		t, res, err := e.runBoolean(ctx, r, query, p.c)
		truth = t
		return res, err
	})
	if err != nil {
		return false, nil, err
	}
	return truth, res, nil
}

// runBoolean is one run of a Boolean query: the qualifier pass over every
// site, then unification to the root's truth value.
func (e *Engine) runBoolean(ctx context.Context, r *run, query string, c *xpath.Compiled) (bool, *Result, error) {
	if len(c.Sel) != 2 || c.Sel[1].Kind != xpath.SelStep || !c.Sel[1].Test.Wild {
		return false, nil, fmt.Errorf("pax: %q is not a Boolean query; use a bare qualifier like %q", query, "[//a/b = 'x']")
	}
	res := &Result{RelevantFrags: e.topo.FT.Len()}
	if !c.HasQualifiers() {
		return true, res, nil
	}
	ft := e.topo.FT
	vs := parbox.NewVarScheme(c, ft.Len())
	resps, err := r.stage(ctx, res, func(dist.SiteID) any {
		return &QualStageReq{QID: r.qid, Query: query, NumFrags: int32(ft.Len())}
	})
	if err != nil {
		return false, nil, err
	}
	roots := make(map[fragment.FragID]parbox.RootVecs, ft.Len())
	var rootSelQual []*boolexpr.Formula
	for site, resp := range resps {
		qr, err := respAs[*QualStageResp](site, resp, "qualifier")
		if err != nil {
			return false, nil, err
		}
		if err := decodeRoots(qr.Roots, roots); err != nil {
			return false, nil, err
		}
		for _, rv := range qr.Roots {
			if rv.Frag == fragment.RootFrag && rv.RootSelQual != nil {
				rootSelQual, err = boolexpr.DecodeVec(rv.RootSelQual)
				if err != nil {
					return false, nil, err
				}
			}
		}
	}
	if len(rootSelQual) < 2 {
		return false, nil, fmt.Errorf("pax: root fragment did not report its qualifier value")
	}
	env, err := parbox.ResolveQualVars(roots, vs)
	if err != nil {
		return false, nil, err
	}
	truth, ok := env.Resolve(rootSelQual[1]).IsConst()
	if !ok {
		return false, nil, fmt.Errorf("pax: root qualifier not ground after unification")
	}
	return truth, res, nil
}
