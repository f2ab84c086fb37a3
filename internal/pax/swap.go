package pax

import (
	"fmt"
	"path/filepath"

	"paxq/internal/boolexpr"
	"paxq/internal/fragment"
	"paxq/internal/parbox"
	"paxq/internal/xpath"
)

// EvalFromDisk is the paper's §1 secondary-storage application of partial
// evaluation: when a tree is too large for main memory, fragment it and
// load one fragment at a time, evaluating the query with PaX2's combined
// visit (evalCombined: the Stage-1 mask pass, then the selection
// traversal) and keeping only the residual partial answers between loads.
// Peak memory is the largest fragment plus O(|Q|·|FT|) vectors —
// independent of |T|.
//
// dir must contain a fragmentation saved by Fragmentation.Save (or the
// paxfrag tool). Answers carry fragment/node identities exactly like the
// distributed engines.
func EvalFromDisk(dir, query string) ([]AnswerNode, error) {
	m, err := fragment.LoadManifest(filepath.Join(dir, fragment.ManifestName))
	if err != nil {
		return nil, err
	}
	c, err := xpath.Compile(query)
	if err != nil {
		return nil, err
	}
	vs := parbox.NewVarScheme(c, m.Len())

	// Pass over fragments one at a time, retaining only vectors, contexts
	// and candidates. Candidate nodes are re-materialized in a second
	// targeted load below.
	roots := make(map[fragment.FragID]parbox.RootVecs, m.Len())
	var contexts []WireContext
	cands := make(map[fragment.FragID][]candidate)
	for id := 0; id < m.Len(); id++ {
		f, err := m.LoadFragment(dir, fragment.FragID(id))
		if err != nil {
			return nil, err
		}
		b := &boolexpr.Builder{}
		var init []*boolexpr.Formula
		if f.ID == fragment.RootFrag {
			init = xpath.DocSelVector[*boolexpr.Formula](b, c)
		} else {
			init = zInit(b, vs, f.ID, c)
		}
		outc := evalCombined(b, f, c, vs, init, false)
		roots[f.ID] = outc.roots
		for _, ctx := range outc.contexts {
			contexts = append(contexts, WireContext{Frag: ctx.frag, SV: boolexpr.EncodeVec(ctx.sv)})
		}
		// Definite answers are final; candidates await unification.
		cands[f.ID] = append(cands[f.ID], outc.candidates...)
		for _, a := range outc.answers {
			cands[f.ID] = append(cands[f.ID], candidate{node: a.Node, f: boolexpr.True()})
		}
		// f goes out of scope here: the fragment is "swapped out".
	}

	// Unification, exactly as the distributed coordinator does it.
	env, err := parbox.ResolveQualVars(roots, vs)
	if err != nil {
		return nil, err
	}
	// resolveContexts grounds every z variable into env as a side effect;
	// the per-fragment vectors themselves are not needed here.
	if _, err := resolveContexts(env, vs, contexts); err != nil {
		return nil, err
	}

	// Resolve candidates and re-load only the fragments that contribute
	// answers, to materialize labels and values.
	var answers []AnswerNode
	for id := 0; id < m.Len(); id++ {
		fid := fragment.FragID(id)
		pending := cands[fid]
		if len(pending) == 0 {
			continue
		}
		var winners []candidate
		for _, cd := range pending {
			if env.MustResolveConst(cd.f) {
				winners = append(winners, cd)
			}
		}
		if len(winners) == 0 {
			continue
		}
		f, err := m.LoadFragment(dir, fid)
		if err != nil {
			return nil, err
		}
		at := f.Tree
		for _, cd := range winners {
			if int(cd.node) >= at.Len() || at.LabelID[cd.node] < 0 {
				return nil, fmt.Errorf("pax: fragment %d lost node %d between passes", fid, cd.node)
			}
			answers = append(answers, answerOf(f, cd.node, false))
		}
	}
	return mergeAnswers(m.Len(), answers)
}
