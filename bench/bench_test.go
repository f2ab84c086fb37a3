package main

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"paxq"
	"paxq/internal/dist"
	"paxq/internal/pax"
)

// TestSmoke runs every workload both ways with 1 s of measuring and
// requires every named metric to be present, finite and carrying its
// unit, with no failed operation. The traced run enforces the rest
// itself: profiles identical to NewCluster's, self times >= 0, span bytes
// equal to the transport's counters.
func TestSmoke(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			res, err := runAndRecord(ctx, w, 5, 1, traced, dir)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d", w.name, traced, res.Correct, res.Attempted, res.Failed)
			}
			defs := endToEnd
			if traced {
				defs = perLayer
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s traced=%v: %d metrics, want %d", w.name, traced, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := res.Metrics[d.name]
				if !ok || m.Unit != d.unit || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
					t.Errorf("%s traced=%v: metric %s = %+v (present %v), want a finite value in %s", w.name, traced, d.name, m, ok, d.unit)
				}
				if !traced && m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, must never be 0", w.name, d.name, m.Value)
				}
			}
		}
		if _, err := os.Stat(filepath.Join(dir, w.name+"-spans.jsonl")); err != nil {
			t.Errorf("%s: no span dump: %v", w.name, err)
		}
	}
}

// TestSpansConserveTheLedger drives the traced deployment sequentially —
// no window edge to straddle — and requires three views of the wire bytes
// to agree exactly: the call spans, the per-operation Stats/EditResults,
// and the transport's lifetime Metrics. Along the way the deployment must
// reproduce NewCluster's profile for every hot class.
func TestSpansConserveTheLedger(t *testing.T) {
	ctx := context.Background()
	for _, w := range []workload{workloads[0], workloads[2]} {
		text := w.prepare(2)
		doc, c, err := deploy(w, text)
		if err != nil {
			t.Fatal(err)
		}
		want := w.classes()
		if err := gate(ctx, c, doc, want); err != nil {
			t.Fatal(err)
		}
		c.Close()

		tree, err := w.loadTree(text)
		if err != nil {
			t.Fatal(err)
		}
		tc, err := newTracedCluster(tree, w.clusterOptions())
		if err != nil {
			t.Fatal(err)
		}
		defer tc.Close()
		led := &ledgerSum{deployment: tc}
		got := w.classes()
		if err := gate(ctx, led, doc, got); err != nil {
			t.Fatal(err)
		}
		for i := range got {
			if got[i].profile != want[i].profile {
				t.Errorf("%s %s: traced profile %+v, NewCluster's %+v", w.name, got[i].name, got[i].profile, want[i].profile)
			}
		}
		pairs, err := w.editPairs(ctx, led, tc.fragments, 2)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range pairs {
			for _, e := range []paxq.Edit{p.insert, p.remove} {
				if _, err := led.ApplyEditContext(ctx, e); err != nil {
					t.Fatalf("%s: edit %+v: %v", w.name, e, err)
				}
			}
		}

		spans := tc.rec.snapshot()
		if err := tc.checkConservation(spans); err != nil {
			t.Errorf("%s: %v", w.name, err)
		}
		roots := make(map[uint64]bool)
		var spanBytes int64
		for i := range spans {
			s := &spans[i]
			spanBytes += s.Sent + s.Recv
			if s.Parent == 0 {
				roots[s.ID] = true
			} else if p := spans[s.Parent-1]; s.Start < p.Start || s.End > p.End {
				t.Errorf("%s: span %d %s [%d,%d] outside its parent %s [%d,%d]", w.name, s.ID, s.Name, s.Start, s.End, p.Name, p.Start, p.End)
			}
		}
		if spanBytes != led.bytes {
			t.Errorf("%s: call spans carry %d bytes, Stats and EditResults %d", w.name, spanBytes, led.bytes)
		}
		lt := analyze(spans, roots)
		if lt.minSelf < 0 {
			t.Errorf("%s: negative self time %d ns", w.name, lt.minSelf)
		}
		if lt.edits != 4 || lt.queries < int64(len(got)) {
			t.Errorf("%s: analyzed %d queries and %d edits", w.name, lt.queries, lt.edits)
		}
		if lt.sent+lt.recv+lt.editSent+lt.editRecv != spanBytes {
			t.Errorf("%s: analyze attributes %d bytes to roots, spans carry %d", w.name, lt.sent+lt.recv+lt.editSent+lt.editRecv, spanBytes)
		}
		var sites int
		for i := range spans {
			if s := &spans[i]; strings.HasPrefix(s.Name, "site.") {
				sites++
				if s.Parent == 0 {
					t.Errorf("%s: site span %d %s joined no call span", w.name, s.ID, s.Name)
				}
			}
		}
		if int64(sites) != lt.calls+lt.edits {
			t.Errorf("%s: %d site spans for %d calls", w.name, sites, lt.calls+lt.edits)
		}
	}
}

// ledgerSum adds up the wire bytes the operations passing through it
// report in their Stats and EditResults.
type ledgerSum struct {
	deployment
	bytes int64
}

func (l *ledgerSum) QueryContext(ctx context.Context, query string, opts paxq.QueryOptions) ([]paxq.Answer, *paxq.Stats, error) {
	ans, st, err := l.deployment.QueryContext(ctx, query, opts)
	if err == nil {
		l.bytes += st.BytesSent + st.BytesReceived
	}
	return ans, st, err
}

func (l *ledgerSum) ApplyEditContext(ctx context.Context, e paxq.Edit) (*paxq.EditResult, error) {
	res, err := l.deployment.ApplyEditContext(ctx, e)
	if err == nil {
		l.bytes += res.BytesSent + res.BytesReceived
	}
	return res, err
}

func TestJoinKeys(t *testing.T) {
	batch := func(bodies ...string) *pax.BatchStageReq {
		r := &pax.BatchStageReq{}
		for _, b := range bodies {
			r.Subs = append(r.Subs, pax.BatchSub{Tag: dist.MsgTag(3), Body: []byte(b)})
		}
		return r
	}
	if keyOf(1, batch("a", "b")) != keyOf(1, batch("a", "b")) {
		t.Error("equal batch envelopes get different keys")
	}
	if keyOf(1, batch("a", "b")) == keyOf(1, batch("a", "c")) {
		t.Error("different batch envelopes share a key")
	}
	if keyOf(1, &pax.QualStageReq{QID: 9}) == keyOf(2, &pax.QualStageReq{QID: 9}) {
		t.Error("one query's calls to two sites share a key")
	}
	if keyOf(1, &pax.QualStageReq{QID: 9}) == keyOf(1, &pax.SelStageReq{QID: 9}) {
		t.Error("two stages of one query share a key")
	}
	if keyOf(1, &pax.EditReq{Frag: 2, BaseVersion: 4}) == keyOf(1, &pax.EditReq{Frag: 2, BaseVersion: 5}) {
		t.Error("two edits of one fragment share a key")
	}
}

func TestUnionLen(t *testing.T) {
	mk := func(iv ...[2]int64) []*span {
		var ss []*span
		for _, v := range iv {
			ss = append(ss, &span{Start: v[0], End: v[1]})
		}
		return ss
	}
	for _, tc := range []struct {
		spans []*span
		want  int64
	}{
		{nil, 0},
		{mk([2]int64{0, 10}), 10},
		{mk([2]int64{5, 10}, [2]int64{0, 7}), 10},
		{mk([2]int64{0, 4}, [2]int64{6, 10}), 8},
		{mk([2]int64{0, 10}, [2]int64{2, 3}, [2]int64{9, 12}), 12},
	} {
		if got := unionLen(tc.spans); got != tc.want {
			t.Errorf("unionLen = %d, want %d", got, tc.want)
		}
	}
}

// TestBenchmarkJSON holds BENCHMARK.json to the tables this program
// reports from.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metricJSON struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var bm struct {
		Command    []string
		Paths      []string
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metricJSON `json:"end_to_end"`
		PerLayer   []metricJSON `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bm); err != nil {
		t.Fatal(err)
	}
	if len(bm.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(bm.Workloads), len(workloads))
	}
	for i, w := range bm.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the program", i, w.Name, workloads[i].name)
		}
		if len(w.Why) == 0 || len(w.Why) > 200 {
			t.Errorf("workload %s: why has %d characters, want 1..200", w.Name, len(w.Why))
		}
	}
	check := func(kind string, got []metricJSON, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%d %s metrics in BENCHMARK.json, %d in the program", len(got), kind, len(want))
		}
		for i, m := range got {
			if m.Name != want[i].name || m.Unit != want[i].unit {
				t.Errorf("%s metric %d is %s [%s] in BENCHMARK.json, %s [%s] in the program", kind, i, m.Name, m.Unit, want[i].name, want[i].unit)
			}
			if m.Better != "higher" && m.Better != "lower" {
				t.Errorf("%s: better = %q", m.Name, m.Better)
			}
			if bounded != (m.Bound != nil) || (bounded && (*m.Bound <= 0 || *m.Bound > 0.25)) {
				t.Errorf("%s: bound %v", m.Name, m.Bound)
			}
		}
	}
	check("end-to-end", bm.EndToEnd, endToEnd, true)
	check("per-layer", bm.PerLayer, perLayer, false)
	if bm.RunSeconds < 10 {
		t.Errorf("run_seconds = %d: below 10 the program runs its shortened smoke schedule", bm.RunSeconds)
	}
}
