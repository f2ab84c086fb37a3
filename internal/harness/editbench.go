package harness

import (
	"context"
	"fmt"
	"slices"
	"strings"
	"testing"

	"paxq/internal/fragment"
	"paxq/internal/pax"
	"paxq/internal/sitecache"
	"paxq/internal/xmark"
	"paxq/internal/xmltree"
)

// EditBenchResult measures one invalidation policy under a mixed
// edit-and-query workload on the TCP transport.
type EditBenchResult struct {
	// Scoped is true for delta-scoped invalidation; false for the
	// bump-everything baseline that wipes every site cache after each edit.
	Scoped         bool    `json:"scoped"`
	Ops            int     `json:"ops"`
	OpsPerSec      float64 `json:"ops_per_sec"`
	NsPerOp        int64   `json:"ns_per_op"`
	Edits          int64   `json:"edits"`
	Hits           int64   `json:"cache_hits"`
	Misses         int64   `json:"cache_misses"`
	ScopedRetained int64   `json:"scoped_retained"`
	ScopedDropped  int64   `json:"scoped_invalidations"`
}

// EditBenchReport is the machine-readable baseline paxbench -exp edit
// emits: a repeated-query workload with fragment edits landing every few
// operations, run once under bump-everything invalidation and once under
// delta-scoped invalidation. The scoped policy patches every cached
// Stage-1 entry through each edit and keeps it warm, while the bump
// baseline re-pays the qualifier sweep after every edit — RetainedPerEdit
// reports how many entries each edit saved.
type EditBenchReport struct {
	Scale           float64           `json:"scale"`
	Fragments       int               `json:"fragments"`
	Sites           int               `json:"sites"`
	Transport       string            `json:"transport"`
	EditEvery       int               `json:"edit_every"`
	Results         []EditBenchResult `json:"results"`
	RetainedPerEdit float64           `json:"retained_per_edit"`
	Speedup         float64           `json:"speedup"`
}

func (r *EditBenchReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Edit-invalidation baseline (TCP transport, %d fragments / %d sites, scale %g, edit every %d ops):\n",
		r.Fragments, r.Sites, r.Scale, r.EditEvery)
	fmt.Fprintf(&b, "  %-8s %10s %10s %8s %8s %8s %10s %10s\n",
		"policy", "ops/s", "ns/op", "edits", "hits", "misses", "retained", "dropped")
	for _, res := range r.Results {
		policy := "bump"
		if res.Scoped {
			policy = "scoped"
		}
		fmt.Fprintf(&b, "  %-8s %10.1f %10d %8d %8d %8d %10d %10d\n",
			policy, res.OpsPerSec, res.NsPerOp, res.Edits, res.Hits, res.Misses, res.ScopedRetained, res.ScopedDropped)
	}
	fmt.Fprintf(&b, "  entries retained per edit: %.1f; mixed-workload speedup: %.2fx\n", r.RetainedPerEdit, r.Speedup)
	return b.String()
}

// EditBench deploys the Experiment-1 fragmentation twice over real TCP
// sites on loopback, both with the Stage-1 cache, and drives each with the
// same mixed workload: the paper's qualified queries (Q3, Q4) repeated
// under PaX3, with a label-disjoint fragment insert landing every few
// operations. The baseline variant wipes every site's cache after each
// edit (the only safe policy without delta scoping); the scoped variant
// lets the sites' delta-scoped invalidation decide. Before timing, both
// variants' answers are checked against each other across a warm-up edit —
// the disjoint edits never change the queries' answers, which is exactly
// why retaining their cached Stage-1 entries is sound.
func EditBench(ctx context.Context, cfg Config) (*EditBenchReport, error) {
	cfg = cfg.withDefaults()
	cal := xmark.Calibrate()
	ft, err := ft1(cfg, 4, cfg.paperMB(4), cal)
	if err != nil {
		return nil, err
	}
	numSites := (ft.Len() + 1) / 2
	topo := pax.RoundRobin(ft, numSites)
	const editEvery = 5
	report := &EditBenchReport{Scale: cfg.Scale, Fragments: ft.Len(), Sites: len(topo.Sites()), Transport: "tcp", EditEvery: editEvery}

	queries := []string{Q3, Q4}
	wantAnswers := make(map[string][]pax.AnswerNode, len(queries))
	for _, scoped := range []bool{false, true} {
		tcp, sites, shutdown, err := pax.BuildTCPCluster(topo, pax.WithSiteCache(32))
		if err != nil {
			return nil, err
		}
		eng := pax.NewEngine(topo, tcp)
		res := EditBenchResult{Scoped: scoped}

		applyEdit := func() error {
			fid := fragment.FragID(res.Edits % int64(ft.Len()))
			ed := fragment.Edit{
				Op:   fragment.EditInsert,
				Node: 0, Pos: 0,
				Subtree: xmltree.El("patch", xmltree.ElT("v", fmt.Sprint(res.Edits))),
			}
			if _, err := eng.ApplyEdit(ctx, fid, ed); err != nil {
				return fmt.Errorf("harness: edit bench: edit %d of fragment %d: %w", res.Edits, fid, err)
			}
			if !scoped {
				// The pre-scoping world: an edit's only safe invalidation
				// is dropping everything.
				for _, s := range sites {
					s.BumpCacheGeneration()
				}
			}
			res.Edits++
			return nil
		}

		// Warm-up and correctness gate: queries, then an edit, then the
		// queries again — both passes must agree across the two variants
		// (the baseline records, the scoped variant compares), so a
		// retention bug can never masquerade as a speedup.
		for pass := 0; pass < 2; pass++ {
			for _, q := range queries {
				r, err := eng.RunContext(ctx, q, pax.Options{Algorithm: pax.PaX3, Annotations: true})
				if err != nil {
					shutdown()
					return nil, fmt.Errorf("harness: edit bench %s: %w", q, err)
				}
				key := fmt.Sprintf("%d/%s", pass, q)
				if !scoped {
					wantAnswers[key] = r.Answers
				} else if !slices.Equal(r.Answers, wantAnswers[key]) {
					shutdown()
					return nil, fmt.Errorf("harness: edit bench %s: scoped variant diverged on warm-up pass %d (%d vs %d answers)",
						q, pass, len(r.Answers), len(wantAnswers[key]))
				}
			}
			if pass == 0 {
				if err := applyEdit(); err != nil {
					shutdown()
					return nil, err
				}
			}
		}
		br := testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if i%editEvery == editEvery-1 {
					if err := applyEdit(); err != nil {
						b.Fatal(err)
					}
					continue
				}
				q := queries[i%len(queries)]
				if _, err := eng.RunContext(ctx, q, pax.Options{Algorithm: pax.PaX3, Annotations: true}); err != nil {
					b.Fatal(err)
				}
			}
		})
		res.Ops = br.N
		res.NsPerOp = br.NsPerOp()
		if res.NsPerOp > 0 {
			res.OpsPerSec = 1e9 / float64(res.NsPerOp)
		}
		var agg sitecache.Stats
		for _, s := range sites {
			agg.Merge(s.CacheStats())
		}
		res.Hits = agg.Hits
		res.Misses = agg.Misses
		res.ScopedRetained = agg.ScopedRetained
		res.ScopedDropped = agg.ScopedInvalidations
		shutdown()
		report.Results = append(report.Results, res)
	}
	if len(report.Results) == 2 {
		if report.Results[0].OpsPerSec > 0 {
			report.Speedup = report.Results[1].OpsPerSec / report.Results[0].OpsPerSec
		}
		if scoped := report.Results[1]; scoped.Edits > 0 {
			report.RetainedPerEdit = float64(scoped.ScopedRetained) / float64(scoped.Edits)
		}
	}
	return report, nil
}
