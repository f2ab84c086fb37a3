package harness

import (
	"context"
	"strings"
	"testing"

	"paxq/internal/pax"
	"paxq/internal/xmark"
)

// tinyConfig keeps harness tests fast: ~0.2 paper-MB and few iterations.
func tinyConfig() Config {
	return Config{Scale: 0.002, MaxFrags: 3, Steps: 2, Runs: 1, Seed: 1}
}

func TestDefaultsApplied(t *testing.T) {
	c := Config{}.withDefaults()
	d := DefaultConfig()
	if c != d {
		t.Errorf("withDefaults = %+v want %+v", c, d)
	}
	// Partial override is preserved.
	c = Config{Runs: 7}.withDefaults()
	if c.Runs != 7 || c.Scale != d.Scale {
		t.Errorf("partial defaults: %+v", c)
	}
}

func TestExperiment1Shapes(t *testing.T) {
	figA, figB, err := Experiment1(context.Background(), tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range []*Figure{figA, figB} {
		if len(f.Series) != 2 {
			t.Fatalf("figure %s: %d series", f.ID, len(f.Series))
		}
		for _, s := range f.Series {
			if len(s.Points) != 3 {
				t.Fatalf("figure %s series %s: %d points", f.ID, s.Name, len(s.Points))
			}
			for _, p := range s.Points {
				if p.Y <= 0 {
					t.Errorf("figure %s series %s: non-positive time %g", f.ID, s.Name, p.Y)
				}
			}
		}
	}
	if figA.Series[0].Name != "PaX3-NA" || figA.Series[1].Name != "PaX3-XA" {
		t.Errorf("figure 9a series: %s, %s", figA.Series[0].Name, figA.Series[1].Name)
	}
	if figB.Series[1].Name != "PaX2-NA" {
		t.Errorf("figure 9b series: %s", figB.Series[1].Name)
	}
}

func TestExperiment23Shapes(t *testing.T) {
	fig10, fig11, err := Experiment23(context.Background(), tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(fig10) != 4 || len(fig11) != 4 {
		t.Fatalf("figures: %d/%d", len(fig10), len(fig11))
	}
	wantSeries := []int{2, 2, 3, 2}
	for i := range fig10 {
		if len(fig10[i].Series) != wantSeries[i] {
			t.Errorf("figure %s: %d series want %d", fig10[i].ID, len(fig10[i].Series), wantSeries[i])
		}
		for _, s := range fig10[i].Series {
			if len(s.Points) != 2 {
				t.Errorf("figure %s series %s: %d points", fig10[i].ID, s.Name, len(s.Points))
			}
		}
		// Total computation >= parallel time at every point (it is a sum
		// over sites).
		for si := range fig10[i].Series {
			for pi := range fig10[i].Series[si].Points {
				par := fig10[i].Series[si].Points[pi].Y
				tot := fig11[i].Series[si].Points[pi].Y
				if tot <= 0 || par <= 0 {
					t.Errorf("figure %s: non-positive time", fig10[i].ID)
				}
			}
		}
	}
	// X axis follows the paper: 100, 120, ...
	if fig10[0].Series[0].Points[0].X != 100 || fig10[0].Series[0].Points[1].X != 120 {
		t.Errorf("X values: %+v", fig10[0].Series[0].Points)
	}
}

func TestFT2SizesRatios(t *testing.T) {
	cfg := tinyConfig()
	cfg.Scale = 0.01
	sizes, err := FT2Sizes(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(sizes) != 10 {
		t.Fatalf("fragments = %d want 10", len(sizes))
	}
	total := 0
	smallest, largest := sizes[0], sizes[0]
	for _, s := range sizes {
		total += s
		if s < smallest {
			smallest = s
		}
		if s > largest {
			largest = s
		}
	}
	// The paper's layout is markedly uneven: 5 MB shells vs a 28 MB
	// regions fragment. Expect at least a 2.5x spread.
	if largest < smallest*5/2 {
		t.Errorf("FT2 sizes too uniform: %v", sizes)
	}
	// Total should approximate 100 paper-MB at the configured scale.
	want := float64(cfg.paperMB(100))
	if f := float64(total); f < want*0.6 || f > want*1.6 {
		t.Errorf("FT2 total = %d want ≈ %g", total, want)
	}
}

func TestTrafficExperimentShape(t *testing.T) {
	cfg := tinyConfig()
	cfg.Steps = 3
	fig, err := TrafficExperiment(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Series) != 2 {
		t.Fatalf("series = %d", len(fig.Series))
	}
	paxFirst := fig.Series[0].Points[0].Y
	paxLast := fig.Series[0].Points[len(fig.Series[0].Points)-1].Y
	nvFirst := fig.Series[1].Points[0].Y
	nvLast := fig.Series[1].Points[len(fig.Series[1].Points)-1].Y
	// PaX traffic is size-independent; naive grows with the data.
	if paxLast > paxFirst*1.5 {
		t.Errorf("PaX traffic grew with |T|: %g -> %g", paxFirst, paxLast)
	}
	if nvLast < nvFirst*1.2 {
		t.Errorf("naive traffic did not grow: %g -> %g", nvFirst, nvLast)
	}
	if nvFirst < 3*paxFirst {
		t.Errorf("naive traffic (%g) should dominate PaX traffic (%g)", nvFirst, paxFirst)
	}
}

// TestFT1Deployment: one Experiment-1 sweep point — three equal fragments,
// one site each — answers Q1.
func TestFT1Deployment(t *testing.T) {
	cfg := tinyConfig().withDefaults()
	ft, err := ft1(cfg, 3, cfg.paperMB(100), xmark.Calibrate())
	if err != nil {
		t.Fatal(err)
	}
	res, err := engineFor(ft).RunContext(context.Background(), Q1, pax.Options{Algorithm: pax.PaX2})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Answers) == 0 {
		t.Error("Q1 must select persons on FT1")
	}
	if res.TotalFrags != 3 {
		t.Errorf("fragments = %d want 3", res.TotalFrags)
	}
}

// TestFT2Deployment: the ten-fragment FT2 layout of Experiments 2/3
// answers Q3, and annotations prune part of it.
func TestFT2Deployment(t *testing.T) {
	cfg := tinyConfig().withDefaults()
	ft, err := buildFT2(cfg, 100, xmark.Calibrate())
	if err != nil {
		t.Fatal(err)
	}
	res, err := engineFor(ft).RunContext(context.Background(), Q3, pax.Options{Algorithm: pax.PaX2, Annotations: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalFrags != 10 {
		t.Errorf("FT2 fragments = %d want 10", res.TotalFrags)
	}
	if res.RelevantFrags >= res.TotalFrags {
		t.Errorf("Q3 with annotations should prune some of FT2, relevant=%d", res.RelevantFrags)
	}
	if len(res.Answers) == 0 {
		t.Error("Q3 must select creditcards")
	}
}

func TestFigureRendering(t *testing.T) {
	fig := &Figure{ID: "t", Title: "test", XLabel: "x", YLabel: "y",
		Series: []Series{
			{Name: "s1", Points: []Point{{1, 2}, {3, 4}}},
			{Name: "s2", Points: []Point{{1, 5}, {3, 6}}},
		}}
	table := fig.Table()
	for _, want := range []string{"Figure t", "s1", "s2", "x"} {
		if !strings.Contains(table, want) {
			t.Errorf("table missing %q:\n%s", want, table)
		}
	}
	csv := fig.CSV()
	lines := strings.Split(strings.TrimSpace(csv), "\n")
	if len(lines) != 3 || lines[0] != "x,s1,s2" || lines[1] != "1,2,5" {
		t.Errorf("csv:\n%s", csv)
	}
	empty := &Figure{ID: "e", XLabel: "x"}
	if empty.Table() == "" || empty.CSV() == "" {
		t.Error("empty figure must still render headers")
	}
}

func TestPaperQueriesIndexed(t *testing.T) {
	if len(PaperQueries) != 4 {
		t.Fatalf("PaperQueries = %d", len(PaperQueries))
	}
	if PaperQueries["Q1"] != Q1 || PaperQueries["Q4"] != Q4 {
		t.Error("query index mismatch")
	}
}
