package harness

import (
	"context"
	"fmt"

	"paxq/internal/fragment"
	"paxq/internal/pax"
	"paxq/internal/xmark"
	"paxq/internal/xmltree"
)

// FT2 layout (Fig. 8 right, Experiment 2): four XMark sites fragmented
// unevenly into ten fragments. In paper-MB at the 100-unit baseline:
//
//	F0 root + site A (whole)                       ≈ 5
//	F3 site B (whole)                              ≈ 5
//	site C: F1 site shell (people+closed)          ≈ 5
//	        F4 regions minus namerica              ≈ 12
//	        F6 namerica (nested inside F4)         ≈ 12
//	        F5 open_auctions                       ≈ 12
//	site D: F2 site shell (people)                 ≈ 5
//	        F7 regions                             ≈ 28
//	        F8 closed_auctions                     ≈ 12
//	        F9 open_auctions                       ≈ 8
//
// Total 104 units ≈ the paper's "approximately 100MB". Fragment IDs below
// are assigned in document order, so the numbering differs from the
// paper's; FT2Sizes reports the realized sizes for verification.
//
// ft2SizeUnits sums the per-fragment units.
const ft2SizeUnits = 104.0

// buildFT2 generates the FT2 tree and fragmentation for a cumulative size
// of totalUnits paper-MB-units scaled by cfg.Scale.
func buildFT2(cfg Config, totalUnits float64, cal xmark.Calibration) (*fragment.Fragmentation, error) {
	u := float64(cfg.paperMB(totalUnits)) / ft2SizeUnits // bytes per unit
	people := func(units float64) int { return atLeast1(units * u / cal.PerPerson) }
	open := func(units float64) int { return atLeast1(units * u / cal.PerOpen) }
	closed := func(units float64) int { return atLeast1(units * u / cal.PerClosed) }
	items := func(units float64, regions float64) int { return atLeast1(units * u / cal.PerItem / regions) }

	siteA := cal.SpecForBytes(int(5 * u))
	siteB := cal.SpecForBytes(int(5 * u))
	siteC := xmark.SiteSpec{
		// Shell ≈ 5 units split between people and closed auctions.
		People:         people(3),
		ClosedAuctions: closed(2),
		OpenAuctions:   open(12),
		ItemsPerRegion: items(12, 5), // non-namerica regions ≈ 12 units
		NamericaItems:  items(12, 1), // namerica ≈ 12 units
	}
	siteD := xmark.SiteSpec{
		People:         people(5),
		ClosedAuctions: closed(12),
		OpenAuctions:   open(8),
		ItemsPerRegion: items(28, 6),
		NamericaItems:  items(28, 6),
	}
	tree := xmark.GenerateSites([]xmark.SiteSpec{siteA, siteB, siteC, siteD}, cfg.Seed)

	var sites []*xmltree.Node
	tree.Root.ElementChildren(func(n *xmltree.Node) bool {
		sites = append(sites, n)
		return true
	})
	if len(sites) != 4 {
		return nil, fmt.Errorf("harness: FT2 expects 4 sites, got %d", len(sites))
	}
	cut := func(n *xmltree.Node, label string) (xmltree.NodeID, error) {
		c := childByLabel(n, label)
		if c == nil {
			return 0, fmt.Errorf("harness: site missing %q", label)
		}
		return c.ID, nil
	}
	var cuts []xmltree.NodeID
	add := func(id xmltree.NodeID, err error) error {
		if err != nil {
			return err
		}
		cuts = append(cuts, id)
		return nil
	}
	siteC0, siteD0 := sites[2], sites[3]
	regionsC := childByLabel(siteC0, "regions")
	if regionsC == nil {
		return nil, fmt.Errorf("harness: site C missing regions")
	}
	for _, step := range []error{
		add(sites[1].ID, nil),          // site B whole
		add(sites[2].ID, nil),          // site C shell
		add(regionsC.ID, nil),          // C regions
		add(cut(regionsC, "namerica")), // nested inside C regions
		add(cut(siteC0, "open_auctions")),
		add(sites[3].ID, nil), // site D shell
		add(cut(siteD0, "regions")),
		add(cut(siteD0, "closed_auctions")),
		add(cut(siteD0, "open_auctions")),
	} {
		if step != nil {
			return nil, step
		}
	}
	return fragment.Cut(tree, cuts)
}

func atLeast1(f float64) int {
	n := int(f + 0.5)
	if n < 1 {
		n = 1
	}
	return n
}

// FT2Sizes reports the realized fragment sizes (in bytes) of the FT2
// layout at the 100-unit baseline — the Experiment-2 size table.
func FT2Sizes(cfg Config) ([]int, error) {
	cfg = cfg.withDefaults()
	ft, err := buildFT2(cfg, 100, xmark.Calibrate())
	if err != nil {
		return nil, err
	}
	out := make([]int, ft.Len())
	for i, f := range ft.Frags {
		out[i] = f.Tree.ToTree().ComputeStats().Bytes
	}
	return out, nil
}

// Experiment23 reproduces Figures 10(a–d) (parallel/evaluation time vs data
// size) and 11(a–d) (total computation vs data size) in one sweep: both
// metrics come from the same runs, exactly as in the paper where
// Experiment 3 "uses exactly the same setting".
func Experiment23(ctx context.Context, cfg Config) (fig10, fig11 []*Figure, err error) {
	cfg = cfg.withDefaults()
	cal := xmark.Calibrate()

	type figSpec struct {
		id    string
		query string
		vars  []variant
	}
	specs := []figSpec{
		{"a", Q1, []variant{pax3NA, pax3XA}},
		{"b", Q2, []variant{pax3NA, pax3XA}},
		{"c", Q3, []variant{pax3NA, pax2NA, pax2XA}},
		{"d", Q4, []variant{pax3NA, pax2NA}},
	}
	fig10 = make([]*Figure, len(specs))
	fig11 = make([]*Figure, len(specs))
	for i, s := range specs {
		fig10[i] = &Figure{ID: "10" + s.id, Title: "Evaluation time vs data size, query Q" + fmt.Sprint(i+1),
			XLabel: "paper-MB", YLabel: "seconds"}
		fig11[i] = &Figure{ID: "11" + s.id, Title: "Total computation vs data size, query Q" + fmt.Sprint(i+1),
			XLabel: "paper-MB", YLabel: "seconds"}
		for range s.vars {
			fig10[i].Series = append(fig10[i].Series, Series{})
			fig11[i].Series = append(fig11[i].Series, Series{})
		}
		for v := range s.vars {
			fig10[i].Series[v].Name = s.vars[v].name
			fig11[i].Series[v].Name = s.vars[v].name
		}
	}

	for step := 0; step < cfg.Steps; step++ {
		units := 100.0 + 20.0*float64(step)
		ft, err := buildFT2(cfg, units, cal)
		if err != nil {
			return nil, nil, err
		}
		eng := engineFor(ft)
		for i, s := range specs {
			for v, vr := range s.vars {
				m, err := measure(ctx, eng, s.query, vr, cfg.Runs)
				if err != nil {
					return nil, nil, err
				}
				fig10[i].Series[v].Points = append(fig10[i].Series[v].Points, Point{X: units, Y: m.parallelSec})
				fig11[i].Series[v].Points = append(fig11[i].Series[v].Points, Point{X: units, Y: m.totalSec})
			}
		}
	}
	return fig10, fig11, nil
}

// TrafficExperiment verifies the §3.4 communication bound empirically:
// PaX2 traffic vs NaiveCentralized traffic as |T| grows with the fragment
// count fixed. PaX traffic stays flat (O(|Q|·|FT|+|ans|)); naive traffic
// grows linearly (Θ(|T|)).
func TrafficExperiment(ctx context.Context, cfg Config) (*Figure, error) {
	cfg = cfg.withDefaults()
	cal := xmark.Calibrate()
	fig := &Figure{ID: "A1", Title: "Network traffic vs data size (empty-answer query //zzz)",
		XLabel: "paper-MB", YLabel: "bytes"}
	paxS := Series{Name: "PaX2"}
	nvS := Series{Name: "NaiveCentralized"}
	for step := 0; step < cfg.Steps; step++ {
		units := 100.0 + 20.0*float64(step)
		ft, err := buildFT2(cfg, units, cal)
		if err != nil {
			return nil, err
		}
		eng := engineFor(ft)
		m, err := measure(ctx, eng, "//zzz", pax2NA, 1)
		if err != nil {
			return nil, err
		}
		paxS.Points = append(paxS.Points, Point{X: units, Y: float64(m.bytes)})
		mn, err := measure(ctx, eng, "//zzz", variant{"naive", pax.Options{Algorithm: pax.Naive}}, 1)
		if err != nil {
			return nil, err
		}
		nvS.Points = append(nvS.Points, Point{X: units, Y: float64(mn.bytes)})
	}
	fig.Series = []Series{paxS, nvS}
	return fig, nil
}
