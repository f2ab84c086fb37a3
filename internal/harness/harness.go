// The §6 experiment reproductions; package docs in doc.go.

package harness

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"strings"

	"paxq/internal/fragment"
	"paxq/internal/pax"
	"paxq/internal/xmark"
	"paxq/internal/xmltree"
)

// Queries Q1–Q4 of Fig. 7.
var (
	Q1 = "/sites/site/people/person"
	Q2 = "/sites/site/open_auctions//annotation"
	Q3 = `/sites/site/people/person[profile/age > 20 and address/country = "US"]/creditcard`
	Q4 = `/sites//people/person[profile/age > 20 and address/country = "US"]/creditcard`

	// PaperQueries indexes them 1-based as the paper does.
	PaperQueries = map[string]string{"Q1": Q1, "Q2": Q2, "Q3": Q3, "Q4": Q4}
)

// Config sizes an experiment run.
type Config struct {
	// Scale is the dataset size as a fraction of the paper's baseline
	// (1.0 reproduces 100 MB cumulative data; the default 0.02 keeps the
	// full suite in CI range).
	Scale float64
	// MaxFrags is the number of Experiment-1 iterations (paper: 10).
	MaxFrags int
	// Steps is the number of Experiment-2/3 iterations (paper: 10,
	// growing 100 MB → 280 MB in 20 MB steps).
	Steps int
	// Runs per data point; the median is reported.
	Runs int
	Seed int64
}

// DefaultConfig returns the CI-sized configuration.
func DefaultConfig() Config {
	return Config{Scale: 0.02, MaxFrags: 10, Steps: 10, Runs: 3, Seed: 1}
}

func (c Config) withDefaults() Config {
	d := DefaultConfig()
	if c.Scale <= 0 {
		c.Scale = d.Scale
	}
	if c.MaxFrags <= 0 {
		c.MaxFrags = d.MaxFrags
	}
	if c.Steps <= 0 {
		c.Steps = d.Steps
	}
	if c.Runs <= 0 {
		c.Runs = d.Runs
	}
	if c.Seed == 0 {
		c.Seed = d.Seed
	}
	return c
}

// paperMB converts "paper megabytes" to generated bytes under the scale.
func (c Config) paperMB(mb float64) int {
	return int(mb * 1e6 * c.Scale)
}

// Point is one measurement: X is the sweep variable (fragment count or
// paper-MB), Y the metric (seconds or bytes).
type Point struct {
	X float64
	Y float64
}

// Series is one line of a figure.
type Series struct {
	Name   string
	Points []Point
}

// Figure is one reproduced figure.
type Figure struct {
	ID     string // e.g. "9a"
	Title  string
	XLabel string
	YLabel string
	Series []Series
}

// Table renders the figure as an aligned text table, series as columns.
func (f *Figure) Table() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure %s — %s\n", f.ID, f.Title)
	fmt.Fprintf(&b, "%-12s", f.XLabel)
	for _, s := range f.Series {
		fmt.Fprintf(&b, " %16s", s.Name)
	}
	b.WriteString("\n")
	if len(f.Series) == 0 {
		return b.String()
	}
	for i := range f.Series[0].Points {
		fmt.Fprintf(&b, "%-12.4g", f.Series[0].Points[i].X)
		for _, s := range f.Series {
			fmt.Fprintf(&b, " %16.6g", s.Points[i].Y)
		}
		b.WriteString("\n")
	}
	return b.String()
}

// CSV renders the figure as comma-separated values.
func (f *Figure) CSV() string {
	var b strings.Builder
	b.WriteString(f.XLabel)
	for _, s := range f.Series {
		b.WriteString(",")
		b.WriteString(s.Name)
	}
	b.WriteString("\n")
	if len(f.Series) == 0 {
		return b.String()
	}
	for i := range f.Series[0].Points {
		fmt.Fprintf(&b, "%g", f.Series[0].Points[i].X)
		for _, s := range f.Series {
			fmt.Fprintf(&b, ",%g", s.Points[i].Y)
		}
		b.WriteString("\n")
	}
	return b.String()
}

// variant names an algorithm configuration with the paper's labels.
type variant struct {
	name string
	opts pax.Options
}

var (
	pax3NA = variant{"PaX3-NA", pax.Options{Algorithm: pax.PaX3}}
	pax3XA = variant{"PaX3-XA", pax.Options{Algorithm: pax.PaX3, Annotations: true}}
	pax2NA = variant{"PaX2-NA", pax.Options{Algorithm: pax.PaX2}}
	pax2XA = variant{"PaX2-XA", pax.Options{Algorithm: pax.PaX2, Annotations: true}}
)

// measurement is one run's cost profile.
type measurement struct {
	parallelSec float64 // §3.4 parallel computation cost (max site per stage)
	totalSec    float64 // Σ per-site computation (total cost)
	bytes       int64   // bytes on the wire, both directions
	answers     int
}

// measure runs query under the variant Runs times and returns the median
// by parallel time. Site calls are issued sequentially so that the
// per-site computation times underlying the parallel-cost metric do not
// overlap — this makes the paper's "evaluation time" (the time perceived
// with one machine per site) measurable even on a single-core host; on a
// real cluster wall time would track it.
func measure(ctx context.Context, eng *pax.Engine, query string, v variant, runs int) (measurement, error) {
	opts := v.opts
	opts.Sequential = true
	ms := make([]measurement, 0, runs)
	for i := 0; i < runs; i++ {
		// Level the allocator between runs so one variant's garbage does
		// not tax the next variant's measurement.
		runtime.GC()
		res, err := eng.RunContext(ctx, query, opts)
		if err != nil {
			return measurement{}, fmt.Errorf("%s on %q: %w", v.name, query, err)
		}
		ms = append(ms, measurement{
			parallelSec: res.ParallelCompute.Seconds(),
			totalSec:    res.TotalCompute.Seconds(),
			bytes:       res.BytesSent + res.BytesRecv,
			answers:     len(res.Answers),
		})
	}
	sort.Slice(ms, func(i, j int) bool { return ms[i].parallelSec < ms[j].parallelSec })
	return ms[len(ms)/2], nil
}

// childByLabel finds the first element child with the given label.
func childByLabel(n *xmltree.Node, label string) *xmltree.Node {
	for _, c := range n.Children {
		if c.Kind == xmltree.Element && c.Label == label {
			return c
		}
	}
	return nil
}

// engineFor builds a one-fragment-per-site local cluster.
func engineFor(ft *fragment.Fragmentation) *pax.Engine {
	topo := pax.RoundRobin(ft, ft.Len())
	local, _ := pax.BuildLocalCluster(topo)
	return pax.NewEngine(topo, local)
}

// ft1 builds the Experiment-1 layout: j XMark sites of equal size, each its
// own fragment; the root fragment keeps the first site (Fig. 8 left).
func ft1(cfg Config, j int, totalBytes int, cal xmark.Calibration) (*fragment.Fragmentation, error) {
	spec := cal.SpecForBytes(totalBytes / j)
	tree := xmark.Generate(j, spec, cfg.Seed)
	var cuts []xmltree.NodeID
	idx := 0
	tree.Root.ElementChildren(func(site *xmltree.Node) bool {
		if idx > 0 { // first site stays in the root fragment
			cuts = append(cuts, site.ID)
		}
		idx++
		return true
	})
	return fragment.Cut(tree, cuts)
}

// Experiment1 reproduces Fig. 9(a) and 9(b): evaluation time vs the number
// of fragments/machines, at constant cumulative data size.
func Experiment1(ctx context.Context, cfg Config) (fig9a, fig9b *Figure, err error) {
	cfg = cfg.withDefaults()
	cal := xmark.Calibrate()
	totalBytes := cfg.paperMB(100)

	fig9a = &Figure{ID: "9a", Title: "Evaluation vs fragmentation, query Q1", XLabel: "fragments", YLabel: "seconds"}
	fig9b = &Figure{ID: "9b", Title: "Evaluation vs fragmentation, query Q4", XLabel: "fragments", YLabel: "seconds"}
	a1 := Series{Name: pax3NA.name}
	a2 := Series{Name: pax3XA.name}
	b1 := Series{Name: pax3NA.name}
	b2 := Series{Name: pax2NA.name}

	for j := 1; j <= cfg.MaxFrags; j++ {
		ft, err := ft1(cfg, j, totalBytes, cal)
		if err != nil {
			return nil, nil, err
		}
		eng := engineFor(ft)
		x := float64(j)
		for _, job := range []struct {
			q string
			v variant
			s *Series
		}{
			{Q1, pax3NA, &a1},
			{Q1, pax3XA, &a2},
			{Q4, pax3NA, &b1},
			{Q4, pax2NA, &b2},
		} {
			m, err := measure(ctx, eng, job.q, job.v, cfg.Runs)
			if err != nil {
				return nil, nil, err
			}
			job.s.Points = append(job.s.Points, Point{X: x, Y: m.parallelSec})
		}
	}
	fig9a.Series = []Series{a1, a2}
	fig9b.Series = []Series{b1, b2}
	return fig9a, fig9b, nil
}
