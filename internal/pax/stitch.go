// Stitching ShipXML answers across fragment boundaries: an answer ships as
// a slice of its fragment's file form, each sub-fragment below it as a
// stub, and the coordinator fills every stub with the sub-fragment's body.

package pax

import (
	"context"
	"fmt"
	"slices"
	"strconv"
	"strings"

	"paxq/internal/dist"
	"paxq/internal/fragment"
	"paxq/internal/wirefmt"
)

// The stub a fragment's file form holds for a virtual node standing for
// sub-fragment K: <fragment-ref ref="K"/>. An exact search finds every
// stub, because Cut and the edit checks reserve the label and the writer
// escapes every '<' in text and attribute values.
const (
	stubOpen  = "<" + fragment.RefLabel + ` ref="`
	stubClose = `"/>`
)

// closeBelow closes the sub-fragments reported below answers and
// candidates under the fragment tree: a body's own stubs need bodies too.
// The result is ascending and free of duplicates. A reported ID that names
// no sub-fragment is a malformed site response.
func closeBelow(ft *fragment.Fragmentation, below []fragment.FragID) ([]fragment.FragID, error) {
	if len(below) == 0 {
		return nil, nil
	}
	seen := make([]bool, ft.Len())
	var out []fragment.FragID
	for len(below) > 0 {
		k := below[len(below)-1]
		below = below[:len(below)-1]
		if k <= fragment.RootFrag || int(k) >= ft.Len() {
			return nil, fmt.Errorf("pax: a site reported sub-fragment %d below an answer, which is not a sub-fragment", k)
		}
		if seen[k] {
			continue
		}
		seen[k] = true
		out = append(out, k)
		below = append(below, ft.Children(k)...)
	}
	slices.Sort(out)
	return out, nil
}

// finalStage runs a query's final stage: the candidate walks in reqs
// (keyed by site, possibly none) and, when the query stitches, the fetch
// of the bodies of the sub-fragments below answers and candidates, each
// from the site hosting it, at the version vers names when an earlier
// stage read it. No site is visited more than the algorithm's bound: the
// stage is the last one for every site it reaches. runs holds the answers
// of the earlier stages, one run per response, and the stage adds one per
// response of its own; the answers then have their stubs filled in place,
// and res.runs keeps them all for RunAs to place. Bodies no answer used —
// those below candidates that resolved false — are counted in
// Result.SpeculativeBytes. It returns res, completed.
func (e *Engine) finalStage(ctx context.Context, r *run, res *Result, reqs map[dist.SiteID]any, below []fragment.FragID, vers versions, runs [][]AnswerNode) (*Result, error) {
	need, err := closeBelow(e.topo.FT, below)
	if err != nil {
		return nil, err
	}
	for _, k := range need {
		site := e.topo.SiteOf[k]
		req, _ := reqs[site].(*AnsStageReq)
		if req == nil {
			req = &AnsStageReq{QID: r.qid}
			reqs[site] = req
		}
		req.Bodies = append(req.Bodies, k)
		req.Versions = vers.pin(req.Versions, k)
	}
	if len(reqs) > 0 {
		resps, err := r.stage(ctx, res, func(site dist.SiteID) any { return reqs[site] })
		if err != nil {
			return nil, err
		}
		var bodies map[fragment.FragID]string
		if len(need) > 0 {
			bodies = make(map[fragment.FragID]string, len(need))
		}
		for site, resp := range resps {
			ar, err := respAs[*AnsStageResp](site, resp, "answer")
			if err != nil {
				return nil, err
			}
			runs = append(runs, ar.Answers)
			for _, b := range ar.Bodies {
				if bodies != nil {
					bodies[b.ID] = b.XML
				}
			}
		}
		if len(need) > 0 {
			if err := stitch(res, runs, bodies); err != nil {
				return nil, err
			}
		}
	}
	res.runs = runs
	return res, nil
}

// stitch fills the stubs of every answer's XML in runs with the bodies
// shipped, recursively, and counts the bodies no answer used as
// speculative bytes.
func stitch(res *Result, runs [][]AnswerNode, bodies map[fragment.FragID]string) error {
	st := &stitcher{raw: bodies, filled: make(map[fragment.FragID]string, len(bodies))}
	for _, run := range runs {
		for i := range run {
			xml, err := st.fill(run[i].XML)
			if err != nil {
				return err
			}
			run[i].XML = xml
		}
	}
	for k, xml := range st.raw {
		res.SpeculativeBytes += int64(wirefmt.UvarintLen(uint64(uint32(k))) + wirefmt.UvarintLen(uint64(len(xml))) + len(xml))
	}
	return nil
}

// stitcher fills stubs from raw, the bodies as shipped. A body leaves raw
// when its own stubs are filled, into filled, so each is filled once, what
// stays in raw is unused, and a stub reached again while its body is being
// filled — a cycle only a corrupt site can ship — finds no body.
type stitcher struct {
	raw    map[fragment.FragID]string
	filled map[fragment.FragID]string
}

// fill returns xml with every stub replaced by its sub-fragment's filled
// body.
func (st *stitcher) fill(xml string) (string, error) {
	i := strings.Index(xml, stubOpen)
	if i < 0 {
		return xml, nil
	}
	var b strings.Builder
	for ; i >= 0; i = strings.Index(xml, stubOpen) {
		b.WriteString(xml[:i])
		xml = xml[i+len(stubOpen):]
		j := strings.Index(xml, stubClose)
		if j < 0 {
			return "", fmt.Errorf("pax: shipped XML holds an unterminated %s stub", fragment.RefLabel)
		}
		k, err := strconv.Atoi(xml[:j])
		if err != nil {
			return "", fmt.Errorf("pax: shipped XML holds a %s stub with ref %q", fragment.RefLabel, xml[:j])
		}
		body, err := st.body(fragment.FragID(k))
		if err != nil {
			return "", err
		}
		b.WriteString(body)
		xml = xml[j+len(stubClose):]
	}
	b.WriteString(xml)
	return b.String(), nil
}

// body returns sub-fragment k's body with its own stubs filled.
func (st *stitcher) body(k fragment.FragID) (string, error) {
	if xml, ok := st.filled[k]; ok {
		return xml, nil
	}
	raw, ok := st.raw[k]
	if !ok {
		return "", fmt.Errorf("pax: an answer holds a stub for fragment %d, whose body no site shipped", k)
	}
	delete(st.raw, k)
	xml, err := st.fill(raw)
	if err != nil {
		return "", err
	}
	st.filled[k] = xml
	return xml, nil
}
