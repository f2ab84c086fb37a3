// Command bench is paxq's serving benchmark: four workloads driven through
// the public API exactly as a user gets it, end-to-end metrics from an
// untraced run, and per-layer metrics from a separate traced run that
// wraps the layer boundaries from outside. See README.md.
//
//	cd bench && go run . [-seed 1] [-workload name] [-seconds 20] [-trace 0|1]
//
// With -workload it runs that workload once, untraced (-trace 0) or traced
// (-trace 1), and prints the result as one JSON object on the last line of
// standard output — the form BENCHMARK.json's command is run in. Without
// -workload it runs every workload both ways and prints every metric.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"time"

	"paxq"
)

// metricDef names one metric and its unit. The two tables are the contract
// with BENCHMARK.json (bench_test.go compares them): an untraced run
// reports every endToEnd metric, a traced run every perLayer metric.
type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"qps", "1/s"},
	{"p50_ms", "ms"},
	{"p95_ms", "ms"},
	{"ok_ratio", "ratio"},
	{"allocs_per_query", "count"},
	{"alloc_kb_per_query", "KB"},
	{"wire_bytes_per_query", "B"},
	{"setup_s", "s"},
	{"resident_mb", "MB"},
	{"edit_p50_ms", "ms"},
	{"edit_p90_ms", "ms"},
}

var perLayer = []metricDef{
	{"pax.coord.self_us", "us"},
	{"pax.coord.calls_per_query", "count"},
	{"pax.coord.stages_per_query", "count"},
	{"pax.coord.max_site_visits", "count"},
	{"pax.coord.relevant_frag_ratio", "ratio"},
	{"pax.coord.parallel_compute_us", "us"},
	{"pax.coord.retries_per_query", "count"},
	{"pax.coord.edit_us", "us"},
	{"pax.site.qual_us", "us"},
	{"pax.site.sel_us", "us"},
	{"pax.site.combined_us", "us"},
	{"pax.site.ans_us", "us"},
	{"pax.site.edit_us", "us"},
	{"pax.site.reported_compute_us", "us"},
	{"pax.site.session_refused", "count"},
	{"sitecache.hit_ratio", "ratio"},
	{"sitecache.lookups_per_query", "count"},
	{"sitecache.evictions", "count"},
	{"sitecache.edit_dropped_per_edit", "count"},
	{"sitecache.edit_retained_per_edit", "count"},
	{"sitecache.edit_patched_per_edit", "count"},
	{"dist.wire_us", "us"},
	{"dist.sent_bytes_per_query", "B"},
	{"dist.recv_bytes_per_query", "B"},
	{"dist.codec_req_us", "us"},
	{"dist.codec_resp_us", "us"},
	{"dist.codec_resp_mb_s", "MB/s"},
	{"dist.codec_allocs_per_msg", "count"},
	{"xpath.compile_us", "us"},
	{"xmltree.parse_mb_s", "MB/s"},
	{"fragment.cut_ms", "ms"},
	{"arena.from_tree_ms", "ms"},
	{"trace.overhead_ratio", "ratio"},
}

// metricValue is one reported number.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output of a single-workload run.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// environment is recorded with every result file.
type environment struct {
	Commit     string `json:"commit"`
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"nproc"`
	Clients    int    `json:"clients"`
	Seed       int64  `json:"seed"`
	Seconds    int    `json:"seconds"`
	Workload   string `json:"workload"`
	Traced     bool   `json:"traced"`
}

func currentEnvironment(w workload, seed int64, seconds int, traced bool) environment {
	env := environment{
		Commit: "unknown", GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(),
		Clients: numClients(), Seed: seed, Seconds: seconds, Workload: w.name, Traced: traced,
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				env.Commit = s.Value
			}
		}
	}
	return env
}

// timing splits a run's -seconds between its phases. An untraced run
// measures one window of that length. A traced run has two loads and the
// probes to fit into the same wall time, so it measures a quarter of
// -seconds untraced on NewCluster's deployment and four tenths traced.
type timing struct {
	setups    int           // timed set-ups; setup_s is their median
	warmup    time.Duration // before the untraced run's window
	window    time.Duration // untraced run: the measured window
	idleEdits time.Duration // untraced run: edit pairs on the idle deployment (read-only workloads)

	tracedWarmup    time.Duration // before each of the traced run's windows
	reference       time.Duration // traced run: untraced window on NewCluster's deployment
	traced          time.Duration // traced run: window on the wrapped deployment
	tracedIdleEdits time.Duration // traced run: idle edit pairs, for the edit layers' numbers
}

func timingFor(seconds int) timing {
	s := time.Duration(seconds) * time.Second
	t := timing{
		setups: 21, warmup: 3 * time.Second, window: s, idleEdits: 3 * time.Second,
		tracedWarmup: 2 * time.Second, reference: s / 4, traced: s * 4 / 10, tracedIdleEdits: 250 * time.Millisecond,
	}
	if seconds < 10 { // smoke runs
		t.setups, t.warmup, t.tracedWarmup, t.idleEdits = 3, s/4, s/4, s/4
	}
	return t
}

func main() {
	name := flag.String("workload", "", "workload to run (default: all, traced and untraced)")
	seed := flag.Int64("seed", 1, "seed every generated input derives from")
	seconds := flag.Int("seconds", 20, "measuring time of one run")
	trace := flag.Int("trace", 0, "1: traced run reporting per-layer metrics; 0: untraced run reporting end-to-end metrics")
	out := flag.String("out", "out", "directory for result files and span dumps")
	flag.Parse()
	if *seconds < 1 || flag.NArg() > 0 || (*trace != 0 && *trace != 1) {
		flag.Usage()
		os.Exit(2)
	}
	ctx := context.Background()
	if *name == "" {
		ok := true
		for _, w := range workloads {
			for _, traced := range []bool{false, true} {
				res, err := runAndRecord(ctx, w, *seed, *seconds, traced, *out)
				if err != nil {
					fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
					os.Exit(1)
				}
				ok = ok && res.Correct
			}
		}
		if !ok {
			os.Exit(1)
		}
		return
	}
	w, known := workloadByName(*name)
	if !known {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *name)
		os.Exit(2)
	}
	res, err := runAndRecord(ctx, w, *seed, *seconds, *trace == 1, *out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// runAndRecord runs one workload one way, prints its metrics by name and
// writes the result, with its environment block, under dir.
func runAndRecord(ctx context.Context, w workload, seed int64, seconds int, traced bool, dir string) (*result, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	var res *result
	var defs []metricDef
	var err error
	mode := "trace0"
	if traced {
		mode = "trace1"
		defs = perLayer
		res, err = runTraced(ctx, w, seed, seconds, filepath.Join(dir, w.name+"-spans.jsonl"))
	} else {
		defs = endToEnd
		res, err = runEndToEnd(ctx, w, seed, seconds)
	}
	if err != nil {
		return nil, err
	}
	for _, d := range defs {
		m, ok := res.Metrics[d.name]
		if !ok || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return nil, fmt.Errorf("metric %s is missing or not finite", d.name)
		}
		fmt.Printf("%-10s %-34s %14.4f %s\n", w.name, d.name, m.Value, m.Unit)
	}
	fmt.Printf("%-10s attempted %d failed %d correct %v\n", w.name, res.Attempted, res.Failed, res.Correct)
	file, err := json.MarshalIndent(struct {
		Environment environment `json:"environment"`
		*result
	}{currentEnvironment(w, seed, seconds, traced), res}, "", "  ")
	if err != nil {
		return nil, err
	}
	return res, os.WriteFile(filepath.Join(dir, w.name+"-"+mode+".json"), append(file, '\n'), 0o644)
}

// report collects metric values against a definition table.
type report struct {
	defs    []metricDef
	metrics map[string]metricValue
}

func newReport(defs []metricDef) *report {
	return &report{defs: defs, metrics: make(map[string]metricValue, len(defs))}
}

func (r *report) set(name string, v float64) {
	for _, d := range r.defs {
		if d.name == name {
			r.metrics[name] = metricValue{Value: v, Unit: d.unit}
			return
		}
	}
	// A name outside the table is a bug in this file, not a run-time state.
	panic("bench: metric " + name + " is not in the table")
}

// ratio is a/b, and 0 when there was nothing to divide by.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// deployed is one set-up: the generate-or-parse step plus NewCluster.
func deploy(w workload, text string) (*paxq.Document, *paxq.Cluster, error) {
	doc, err := w.load(text)
	if err != nil {
		return nil, nil, err
	}
	c, err := paxq.NewCluster(doc, w.clusterOptions())
	return doc, c, err
}

// checkQuiesced requires every hot class to equal the oracle exactly on
// the now idle deployment — after edits, the proof that every pair was
// undone and no cached state went stale.
func checkQuiesced(ctx context.Context, d deployment, doc *paxq.Document, classes []queryClass) error {
	for _, c := range classes {
		ans, _, err := d.QueryContext(ctx, c.query, c.opts)
		if err != nil {
			return fmt.Errorf("quiesced %s: %w", c.name, err)
		}
		if err := checkOracle(doc, c.query, ans); err != nil {
			return fmt.Errorf("quiesced %s: %w", c.name, err)
		}
	}
	return nil
}

// outcome is what driving one deployment through a workload produced.
type outcome struct {
	classes []queryClass  // the hot classes with their verified profiles
	win     *windowResult // the measured window
	edits   *windowResult // where edit numbers come from: win on edit_mix, else the idle phase after it
	// Operations of the window and the idle phase; failed includes kept
	// cold answers that differ from the oracle's.
	attempted, failed int
}

// drive takes a fresh deployment through one workload: gate, warm-up and
// measured window, the oracle check of the kept cold answers, the idle edit
// phase of a read-only workload, and the final quiesced check. Gate
// failures are errors; failed operations are counted.
func drive(ctx context.Context, w workload, d deployment, doc *paxq.Document, fragments int, seed int64, warmup, window, idleEdits time.Duration) (*outcome, error) {
	out := &outcome{classes: w.classes()}
	if err := gate(ctx, d, doc, out.classes); err != nil {
		return nil, err
	}
	pairs, err := w.editPairs(ctx, d, fragments, seed)
	if err != nil {
		return nil, err
	}
	cfg := loadConfig{clients: numClients(), warmup: warmup, window: window, seed: seed, classes: out.classes}
	if w.editsInWindow {
		cfg.pairs = pairs
	}
	if w.cold {
		// The stream's first queries pass through the oracle on the way.
		cfg.cold = newColdStream(seed)
		for range coldTemplates {
			q := cfg.cold.next()
			ans, _, err := d.QueryContext(ctx, q, pax2xa)
			if err != nil {
				return nil, fmt.Errorf("gate %s: %w", q, err)
			}
			if err := checkOracle(doc, q, ans); err != nil {
				return nil, fmt.Errorf("gate: %w", err)
			}
		}
	}
	out.win = runLoad(ctx, d, cfg)
	out.attempted, out.failed = out.win.attempted(), out.win.failed()
	firstErr := out.win.firstErr

	for _, s := range out.win.coldSamples {
		want, err := paxq.EvaluateCentralized(doc, s.query)
		if err != nil {
			return nil, fmt.Errorf("oracle %s: %w", s.query, err)
		}
		if fingerprint(want) != s.fingerprint {
			out.failed++
			if firstErr == nil {
				firstErr = fmt.Errorf("%s: answers differ from the oracle's", s.query)
			}
		}
	}
	out.edits = out.win
	if !w.editsInWindow {
		out.edits = runIdleEdits(ctx, d, pairs, idleEdits)
		out.attempted += out.edits.attempted()
		out.failed += out.edits.failed()
		if firstErr == nil {
			firstErr = out.edits.firstErr
		}
	}
	if err := checkQuiesced(ctx, d, doc, out.classes); err != nil {
		return nil, err
	}
	if firstErr != nil {
		fmt.Fprintf(os.Stderr, "bench: %s: %d of %d operations failed; first: %v\n", w.name, out.failed, out.attempted, firstErr)
	}
	return out, nil
}

func (o *outcome) result(metrics map[string]metricValue) *result {
	return &result{Correct: o.failed == 0, Attempted: o.attempted, Failed: o.failed, Metrics: metrics}
}

// runEndToEnd is the untraced run: the deployment is paxq.NewCluster's,
// driven through Cluster.QueryContext and ApplyEditContext only.
func runEndToEnd(ctx context.Context, w workload, seed int64, seconds int) (*result, error) {
	tm := timingFor(seconds)
	text := w.prepare(seed)

	// Set-up, several times over: half of them before the window — the
	// last of those deployments is the one measured — and half after it,
	// so that the median does not rest on one moment of the host.
	var setups []float64
	setUp := func() (*paxq.Document, *paxq.Cluster, error) {
		runtime.GC()
		t := time.Now()
		doc, c, err := deploy(w, text)
		if err != nil {
			return nil, nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t).Seconds())
		return doc, c, nil
	}
	var doc *paxq.Document
	var cluster *paxq.Cluster
	var resident runtime.MemStats
	for i := 0; i <= tm.setups/2; i++ {
		if cluster != nil {
			cluster.Close()
		}
		var err error
		if doc, cluster, err = setUp(); err != nil {
			return nil, err
		}
		if i == 0 {
			// Memory is read on the process's first deployment: a closed
			// cluster stays reachable through its sockets' finalizers for
			// a collection or two, and would be counted with the next.
			runtime.GC()
			runtime.GC()
			runtime.ReadMemStats(&resident)
		}
	}
	defer cluster.Close()

	o, err := drive(ctx, w, cluster, doc, cluster.Fragments(), seed, tm.warmup, tm.window, tm.idleEdits)
	if err != nil {
		return nil, err
	}
	cluster.Close()
	for len(setups) < tm.setups {
		_, c, err := setUp()
		if err != nil {
			return nil, err
		}
		c.Close()
	}
	sort.Float64s(setups)
	win := o.win
	queries := float64(win.queries)
	r := newReport(endToEnd)
	r.set("qps", win.qps())
	r.set("p50_ms", win.latencyPercentile(false, 0.50, slices))
	r.set("p95_ms", win.latencyPercentile(false, 0.95, slices))
	r.set("ok_ratio", 1-ratio(float64(o.failed), float64(o.attempted)))
	r.set("allocs_per_query", ratio(float64(win.mallocs), queries))
	r.set("alloc_kb_per_query", ratio(float64(win.allocBytes)/1024, queries))
	r.set("wire_bytes_per_query", ratio(float64(win.wireBytes), queries))
	r.set("setup_s", setups[len(setups)/2])
	r.set("resident_mb", float64(resident.HeapAlloc)/(1<<20))
	r.set("edit_p50_ms", o.edits.latencyPercentile(true, 0.50, slices))
	r.set("edit_p90_ms", o.edits.latencyPercentile(true, 0.90, editTailSlices))
	fmt.Printf("%-10s samples: %d queries and %d edits, in %d slices each\n", w.name, win.succeeded(false), o.edits.succeeded(true), slices)
	return o.result(r.metrics), nil
}

// runTraced is the traced run. It measures an untraced reference window
// on NewCluster's deployment (for the tracing overhead and the site-cache
// counters), then the same load on the hand-assembled deployment whose
// transport and site handlers are wrapped, and finishes with the probes.
// No end-to-end metric comes from here.
func runTraced(ctx context.Context, w workload, seed int64, seconds int, spanFile string) (*result, error) {
	tm := timingFor(seconds)
	text := w.prepare(seed)
	opts := w.clusterOptions()
	tree, err := w.loadTree(text)
	if err != nil {
		return nil, err
	}
	setup, err := probeSetup(w, seed, text, tree, opts)
	if err != nil {
		return nil, err
	}

	// Reference: the default deployment, untraced.
	doc, cluster, err := deploy(w, text)
	if err != nil {
		return nil, err
	}
	defer cluster.Close()
	ref, err := drive(ctx, w, cluster, doc, cluster.Fragments(), seed, tm.tracedWarmup, tm.reference, tm.tracedIdleEdits)
	if err != nil {
		return nil, err
	}
	cluster.Close()

	// Traced: the same deployment from the same constructors, wrapped.
	tc, err := newTracedCluster(tree, opts)
	if err != nil {
		return nil, err
	}
	defer tc.Close()
	o, err := drive(ctx, w, tc, doc, tc.fragments, seed, tm.tracedWarmup, tm.traced, tm.tracedIdleEdits)
	if err != nil {
		return nil, fmt.Errorf("traced deployment: %w", err)
	}
	for i, c := range o.classes {
		if c.profile != ref.classes[i].profile {
			return nil, fmt.Errorf("traced deployment drifted from NewCluster's on %s: %+v, NewCluster %+v", c.name, c.profile, ref.classes[i].profile)
		}
	}

	// Fold the spans: query roots that started inside the window; edit
	// roots from the window (edit_mix) or the idle phase after it.
	win := o.win
	spans := tc.rec.snapshot()
	roots := make(map[uint64]bool)
	for i := range spans {
		s := &spans[i]
		inWindow := s.Start >= win.traceStart && s.Start < win.traceEnd
		switch s.Name {
		case "query":
			roots[s.ID] = inWindow
		case "edit":
			roots[s.ID] = inWindow == w.editsInWindow && s.Start >= win.traceStart
		}
	}
	lt := analyze(spans, roots)
	if lt.minSelf < 0 {
		return nil, fmt.Errorf("negative self time %d ns: a child span outlives its parent", lt.minSelf)
	}
	if err := tc.checkConservation(spans); err != nil {
		return nil, err
	}
	if err := writeSpans(spanFile, spans); err != nil {
		return nil, err
	}
	codec, err := probeCodec(tc.rec.captured)
	if err != nil {
		return nil, err
	}
	tc.Close()
	refused, err := probeSessionLeak(ctx)
	if err != nil {
		return nil, err
	}

	q, e := float64(lt.queries), float64(lt.edits)
	perQueryUS := func(ns int64) float64 { return ratio(float64(ns)/1e3, q) }
	cache := ref.win.cache
	r := newReport(perLayer)
	r.set("pax.coord.self_us", perQueryUS(lt.coordSelf))
	r.set("pax.coord.calls_per_query", ratio(float64(lt.calls), q))
	r.set("pax.coord.stages_per_query", ratio(float64(win.stages), float64(win.queries)))
	r.set("pax.coord.max_site_visits", float64(win.maxVisits))
	r.set("pax.coord.relevant_frag_ratio", ratio(float64(win.relevantFrags), float64(win.totalFrags)))
	r.set("pax.coord.parallel_compute_us", ratio(float64(win.parallelCompute.Microseconds()), float64(win.queries)))
	r.set("pax.coord.retries_per_query", ratio(float64(win.retries), float64(win.queries)))
	r.set("pax.coord.edit_us", ratio(float64(lt.editCoordSelf)/1e3, e))
	r.set("pax.site.qual_us", perQueryUS(lt.site["qual"]))
	r.set("pax.site.sel_us", perQueryUS(lt.site["sel"]))
	r.set("pax.site.combined_us", perQueryUS(lt.site["combined"]))
	r.set("pax.site.ans_us", perQueryUS(lt.site["ans"]))
	r.set("pax.site.edit_us", ratio(float64(lt.editSite)/1e3, e))
	r.set("pax.site.reported_compute_us", perQueryUS(lt.reported))
	r.set("pax.site.session_refused", float64(refused))
	r.set("sitecache.hit_ratio", ratio(float64(cache.Hits), float64(cache.Hits+cache.Misses)))
	r.set("sitecache.lookups_per_query", ratio(float64(cache.Hits+cache.Misses), float64(ref.win.queries)))
	r.set("sitecache.evictions", float64(cache.Evictions))
	r.set("sitecache.edit_dropped_per_edit", ratio(float64(ref.edits.editDropped), float64(ref.edits.edits)))
	r.set("sitecache.edit_retained_per_edit", ratio(float64(ref.edits.editRetained), float64(ref.edits.edits)))
	r.set("sitecache.edit_patched_per_edit", ratio(float64(ref.edits.editPatched), float64(ref.edits.edits)))
	r.set("dist.wire_us", perQueryUS(lt.wire))
	r.set("dist.sent_bytes_per_query", ratio(float64(lt.sent), q))
	r.set("dist.recv_bytes_per_query", ratio(float64(lt.recv), q))
	r.set("dist.codec_req_us", codec.reqUS)
	r.set("dist.codec_resp_us", codec.respUS)
	r.set("dist.codec_resp_mb_s", codec.respMBs)
	r.set("dist.codec_allocs_per_msg", codec.allocsPerMsg)
	r.set("xpath.compile_us", setup.compileUS)
	r.set("xmltree.parse_mb_s", setup.parseMBs)
	r.set("fragment.cut_ms", setup.cutMS)
	r.set("arena.from_tree_ms", setup.fromTreeMS)
	r.set("trace.overhead_ratio", 1-ratio(win.qps(), ref.win.qps()))
	fmt.Printf("%-10s samples: %d traced queries, %d traced edits, %d spans; untraced %.1f q/s, traced %.1f q/s\n",
		w.name, lt.queries, lt.edits, len(spans), ref.win.qps(), win.qps())
	return o.result(r.metrics), nil
}
