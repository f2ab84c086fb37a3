package pax

import (
	"context"
	"fmt"
	"time"

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
// Like RunContext — whose admission-control and deadline semantics it
// shares — it is safe for concurrent use and attributes costs to its own
// Result alone.
func (e *Engine) RunBooleanContext(ctx context.Context, query string, opts Options) (truth bool, res *Result, err error) {
	// Admit before planning, like RunContext: shed queries never compile.
	release, aerr := e.admit(ctx)
	if aerr != nil {
		return false, nil, aerr
	}
	defer release()
	p, perr := e.plan(query, false, false)
	if perr != nil {
		return false, nil, perr
	}
	c := p.c
	if len(c.Sel) != 2 || c.Sel[1].Kind != xpath.SelStep || !c.Sel[1].Test.Wild {
		return false, nil, fmt.Errorf("pax: %q is not a Boolean query; use a bare qualifier like %q", query, "[//a/b = 'x']")
	}
	defer func() {
		if r := recover(); r != nil {
			truth, res, err = false, nil, inconsistentError(query, r)
		}
	}()
	usage := dist.NewMetrics()
	rt := e.newRoute()
	start := time.Now()

	res = &Result{RelevantFrags: e.topo.FT.Len(), TotalFrags: e.topo.FT.Len()}
	truth = true
	if c.HasQualifiers() {
		ft := e.topo.FT
		vs := parbox.NewVarScheme(c, ft.Len())
		qid := QueryID(e.qid.Add(1))
		resps, err := e.stage(ctx, res, usage, opts.Sequential, rt, func(dist.SiteID) any {
			return &QualStageReq{QID: qid, Query: query, NumFrags: int32(ft.Len()), Final: true}
		})
		if err != nil {
			return false, nil, err
		}
		roots := make(map[fragment.FragID]parbox.RootVecs, ft.Len())
		var rootSelQual []*boolexpr.Formula
		for site, r := range resps {
			qr, err := respAs[*QualStageResp](site, r, "qualifier")
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
		val, ok := env.Resolve(rootSelQual[1]).IsConst()
		if !ok {
			return false, nil, fmt.Errorf("pax: root qualifier not ground after unification")
		}
		truth = val
	}
	res.Wall = time.Since(start)
	retries, failovers := rt.counters()
	res.Retries, res.Failovers = int(retries), int(failovers)
	e.finishResult(res, usage)
	return truth, res, nil
}
