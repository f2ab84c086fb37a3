package pax

import (
	"context"
	"path/filepath"

	"paxq/internal/dist"
	"paxq/internal/fragment"
)

// EvalFromDisk is the paper's §1 secondary-storage application of partial
// evaluation: when a tree is too large for main memory, fragment it and
// load one fragment at a time. It runs PaX2 through the engine, over one
// in-process site per fragment that loads its fragment from dir on each
// call and drops it when the call returns. The engine runs Sequential, so
// one site call, and thus one fragment, is in memory at a time, and the
// coordinator keeps only vectors between calls. Peak memory is the
// largest fragment plus O(|Q|·|FT|) vectors — independent of |T|.
//
// dir must contain a fragmentation saved by Fragmentation.Save (or the
// paxfrag tool). Answers carry fragment/node identities exactly like the
// distributed engines.
func EvalFromDisk(dir, query string) ([]AnswerNode, error) {
	m, err := fragment.LoadManifest(filepath.Join(dir, fragment.ManifestName))
	if err != nil {
		return nil, err
	}
	return evalStored(m, query, func(id fragment.FragID) (*fragment.Fragment, error) {
		return m.LoadFragment(dir, id)
	})
}

// evalStored is EvalFromDisk over the fragmentation m describes, each
// fragment read by load whenever a stage visits it.
func evalStored(m *fragment.Manifest, query string, load func(fragment.FragID) (*fragment.Fragment, error)) ([]AnswerNode, error) {
	ft, err := m.Skeleton()
	if err != nil {
		return nil, err
	}
	topo := RoundRobin(ft, ft.Len())
	local := dist.NewLocal()
	for i := range ft.Len() {
		id := fragment.FragID(i)
		local.AddSite(topo.SiteOf[id], func(req any) (any, error) {
			f, err := load(id)
			if err != nil {
				return nil, err
			}
			return NewSite(topo.SiteOf[id], []*fragment.Fragment{f}).Handler()(req)
		})
	}
	//paxlint:allow ctxflow(public blocking wrapper: EvalFromDisk is a local evaluation with no caller context to flow, and its sites are in-process)
	res, err := NewEngine(topo, local).RunContext(context.Background(), query, Options{Algorithm: PaX2, Sequential: true})
	if err != nil {
		return nil, err
	}
	return res.Answers, nil
}
