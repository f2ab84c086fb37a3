package main

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"time"

	"paxq"
)

const (
	// editEvery makes every editEvery-th operation of client 0 an edit
	// (edit_mix): about a fifth of all operations at two clients and some
	// 350 edits per 20 s window. Fewer left the edit percentiles moving by
	// more than a tenth between identical runs.
	editEvery = 3
	// coldCheckEvery is how often a cold query's answers are kept for
	// comparison with the oracle after the window.
	coldCheckEvery = 16
	// slices is the number of equal parts a window is cut into for the
	// timed metrics, which are read off the better quartile of the parts
	// (see quartileOverSlices). Edits are a fifth as frequent as queries,
	// so their 90th percentile is taken over editTailSlices longer parts
	// to keep several samples beyond it in each.
	slices         = 10
	editTailSlices = 5
)

// numClients is the closed loop's size: callers that wait for their reply,
// one per core up to four, all in the benchmark process.
func numClients() int { return min(runtime.NumCPU(), 4) }

// loadConfig is one closed-loop run against one deployment.
type loadConfig struct {
	clients int
	warmup  time.Duration // run, not measured
	window  time.Duration // measured
	seed    int64

	classes []queryClass // hot mix, verified by gate
	cold    *coldStream  // non-nil: query strings come from here instead
	pairs   []editPair   // non-nil: client 0 edits every editEvery-th operation
}

// op is one completed operation of the measured window.
type op struct {
	end  time.Duration // completion, since the window began
	lat  time.Duration
	edit bool
	ok   bool
}

// coldSample is a cold query kept for the oracle.
type coldSample struct {
	query       string
	fingerprint string
}

// windowResult is everything one measured window produced.
type windowResult struct {
	window time.Duration
	ops    []op

	// Sums over the window's correct queries, from their Stats.
	queries         int64
	wireBytes       int64 // sent + received
	stages          int64
	maxVisits       int
	relevantFrags   int64
	totalFrags      int64
	parallelCompute time.Duration
	retries         int64
	// Sums over the window's successful edits, from their EditResults.
	edits, editDropped, editRetained, editPatched int64

	mallocs, allocBytes uint64 // runtime.MemStats deltas over the window
	coldSamples         []coldSample
	firstErr            error // first failed operation, for the report

	// traceStart/traceEnd bracket the window on the recorder's clock
	// (traced deployments only).
	traceStart, traceEnd int64
	// cache is what the sites' Stage-1 caches counted during the window
	// (Hits, Misses and Evictions; NewCluster deployments only).
	cache paxq.SiteCacheStats
}

// clientState is what one client goroutine accumulates; merged afterwards.
type clientState struct {
	windowResult
	editing  bool // an overlapping insert may be in place: one more answer is allowed
	editStep int
}

// runLoad drives d with cfg.clients closed-loop clients through the
// warm-up and the measured window without a pause between them, and
// returns what completed inside the window. Operations never abort the
// run: an error, a wrong answer count or a visit-bound violation is
// counted as failed.
func runLoad(ctx context.Context, d deployment, cfg loadConfig) *windowResult {
	var coldMu sync.Mutex
	nextCold := func() (string, paxq.QueryOptions, bool) {
		coldMu.Lock()
		defer coldMu.Unlock()
		i := cfg.cold.i
		opts := pax2xa
		if i%2 == 1 {
			opts = pax3
		}
		return cfg.cold.next(), opts, i%coldCheckEvery == 0
	}

	start := time.Now()
	windowStart := start.Add(cfg.warmup)
	deadline := windowStart.Add(cfg.window)
	states := make([]*clientState, cfg.clients)
	var wg sync.WaitGroup
	for k := range states {
		st := &clientState{editing: cfg.pairs != nil}
		states[k] = st
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				t := time.Now()
				if !t.Before(deadline) {
					return
				}
				// An operation belongs to the window it starts in.
				measured := !t.Before(windowStart)
				o := op{}
				var err error
				switch {
				case k == 0 && cfg.pairs != nil && i%editEvery == editEvery-1:
					o.edit = true
					err = st.doEdit(ctx, d, cfg.pairs, measured)
				case cfg.cold != nil:
					q, opts, keep := nextCold()
					var ans []paxq.Answer
					ans, err = st.doQuery(ctx, d, q, opts, nil, measured)
					if keep && measured && err == nil {
						st.coldSamples = append(st.coldSamples, coldSample{q, fingerprint(ans)})
					}
				default:
					c := &cfg.classes[(i+k+int(cfg.seed&0xffff))%len(cfg.classes)]
					_, err = st.doQuery(ctx, d, c.query, c.opts, c, measured)
				}
				if !measured {
					continue
				}
				done := time.Now()
				o.lat, o.end, o.ok = done.Sub(t), done.Sub(windowStart), err == nil
				st.ops = append(st.ops, o)
				if err != nil && st.firstErr == nil {
					st.firstErr = err
				}
			}
		}()
	}

	// The window's counters are read while the clients keep going.
	siteCache := func() paxq.SiteCacheStats {
		if c, ok := d.(*paxq.Cluster); ok {
			return c.TransportStats().SiteCache
		}
		return paxq.SiteCacheStats{}
	}
	tc, traced := d.(*tracedCluster)
	res := &windowResult{window: cfg.window}
	var m0, m1 runtime.MemStats
	time.Sleep(time.Until(windowStart))
	runtime.ReadMemStats(&m0)
	cache0 := siteCache()
	if traced {
		res.traceStart = tc.rec.now()
	}
	time.Sleep(time.Until(deadline))
	runtime.ReadMemStats(&m1)
	cache1 := siteCache()
	if traced {
		res.traceEnd = tc.rec.now()
	}
	wg.Wait()

	res.mallocs, res.allocBytes = m1.Mallocs-m0.Mallocs, m1.TotalAlloc-m0.TotalAlloc
	res.cache.Hits, res.cache.Misses, res.cache.Evictions = cache1.Hits-cache0.Hits, cache1.Misses-cache0.Misses, cache1.Evictions-cache0.Evictions
	for _, st := range states {
		res.merge(&st.windowResult)
	}
	// Leave the document as it was: undo an insert whose delete the
	// deadline cut off.
	if st := states[0]; st.editStep%2 == 1 {
		if err := st.doEdit(ctx, d, cfg.pairs, false); err != nil && res.firstErr == nil {
			res.firstErr = fmt.Errorf("undoing the last insert: %w", err)
		}
	}
	return res
}

func (r *windowResult) merge(o *windowResult) {
	r.ops = append(r.ops, o.ops...)
	r.queries += o.queries
	r.wireBytes += o.wireBytes
	r.stages += o.stages
	r.maxVisits = max(r.maxVisits, o.maxVisits)
	r.relevantFrags += o.relevantFrags
	r.totalFrags += o.totalFrags
	r.parallelCompute += o.parallelCompute
	r.retries += o.retries
	r.edits += o.edits
	r.editDropped += o.editDropped
	r.editRetained += o.editRetained
	r.editPatched += o.editPatched
	r.coldSamples = append(r.coldSamples, o.coldSamples...)
	if r.firstErr == nil {
		r.firstErr = o.firstErr
	}
}

// doQuery runs one query and checks it: against its class's verified
// answer count and shipped XML length when it has a class, and always
// against the visit bound.
func (st *clientState) doQuery(ctx context.Context, d deployment, query string, opts paxq.QueryOptions, c *queryClass, measured bool) ([]paxq.Answer, error) {
	ans, stats, err := d.QueryContext(ctx, query, opts)
	if err != nil {
		return nil, err
	}
	if stats.MaxSiteVisits > visitBound(opts) {
		return nil, fmt.Errorf("%s: %d visits to one site, bound %d", query, stats.MaxSiteVisits, visitBound(opts))
	}
	if c != nil {
		if n := len(ans); n != c.count && !(st.editing && n == c.count+1) {
			return nil, fmt.Errorf("%s: %d answers, verified run had %d", c.name, n, c.count)
		}
		if opts.ShipXML && xmlLen(ans) != c.xmlLen {
			return nil, fmt.Errorf("%s: %d bytes of shipped XML, verified run had %d", c.name, xmlLen(ans), c.xmlLen)
		}
	}
	if measured {
		st.queries++
		st.wireBytes += stats.BytesSent + stats.BytesReceived
		st.stages += int64(stats.Stages)
		st.maxVisits = max(st.maxVisits, stats.MaxSiteVisits)
		st.relevantFrags += int64(stats.RelevantFrags)
		st.totalFrags += int64(stats.TotalFrags)
		st.parallelCompute += stats.ParallelCompute
		st.retries += int64(stats.Retries)
	}
	return ans, nil
}

// doEdit applies the next step of the insert/delete alternation.
func (st *clientState) doEdit(ctx context.Context, d deployment, pairs []editPair, measured bool) error {
	p := pairs[(st.editStep/2)%len(pairs)]
	e := p.insert
	if st.editStep%2 == 1 {
		e = p.remove
	}
	res, err := d.ApplyEditContext(ctx, e)
	if err != nil {
		return err
	}
	st.editStep++
	if measured {
		st.edits++
		st.editDropped += int64(res.Dropped)
		st.editRetained += int64(res.Retained)
		st.editPatched += int64(res.Patched)
	}
	return nil
}

// runIdleEdits applies insert/delete pairs one after another on the
// quiescent deployment for d, and returns them as a window of edits only —
// how the read-only workloads report edit latency. It stops at the first
// failure, which may leave an insert in place; the caller's final oracle
// check then fails the run.
func runIdleEdits(ctx context.Context, dep deployment, pairs []editPair, d time.Duration) *windowResult {
	st := &clientState{}
	start := time.Now()
	for st.firstErr == nil && (time.Since(start) < d || st.editStep%2 == 1) {
		t := time.Now()
		st.firstErr = st.doEdit(ctx, dep, pairs, true)
		done := time.Now()
		st.ops = append(st.ops, op{end: done.Sub(start), lat: done.Sub(t), edit: true, ok: st.firstErr == nil})
	}
	st.window = time.Since(start)
	return &st.windowResult
}

// attempted and failed count the window's operations.
func (r *windowResult) attempted() int { return len(r.ops) }

func (r *windowResult) failed() int {
	n := 0
	for _, o := range r.ops {
		if !o.ok {
			n++
		}
	}
	return n
}

// succeeded counts the window's correct queries (edit=false) or
// successful edits (edit=true).
func (r *windowResult) succeeded(edit bool) int {
	n := 0
	for _, o := range r.ops {
		if o.ok && o.edit == edit {
			n++
		}
	}
	return n
}

// quartileOverSlices cuts the window into n equal parts by completion
// time, applies f to the sorted latencies (ms) of each part's correct
// queries or successful edits, and returns the value a quarter of the way
// in from the better end: the third highest of ten when higher is better,
// else the third lowest.
//
// The better quartile rather than the median, and rather than one figure
// for the whole window, because the reference box loses a large share of a
// CPU to its neighbours for seconds at a time. Six consecutive runs of
// qual_hot in such a phase had medians over one-second slices from 52 to
// 73.5 q/s and upper quartiles from 63 to 76; with the host calm the two
// agree within 2 %. A regression in the program slows every slice and
// moves the quartile as it moves the median. What the quartile does not
// see is a stall the program causes in fewer than three quarters of the
// slices; the spans of a traced run show those.
func (r *windowResult) quartileOverSlices(edit, higherIsBetter bool, n int, f func(sortedLatMS []float64) float64) float64 {
	parts := make([][]float64, n)
	width := r.window / time.Duration(n)
	for _, o := range r.ops {
		if b := int(o.end / width); o.ok && o.edit == edit && b < n {
			parts[b] = append(parts[b], float64(o.lat)/1e6)
		}
	}
	var vals []float64
	for _, lat := range parts {
		sort.Float64s(lat)
		if v := f(lat); !math.IsNaN(v) {
			vals = append(vals, v)
		}
	}
	sort.Float64s(vals)
	if higherIsBetter {
		return percentile(vals, 0.75)
	}
	return percentile(vals, 0.25)
}

// qps is the rate at which correct queries completed.
func (r *windowResult) qps() float64 {
	width := (r.window / slices).Seconds()
	return r.quartileOverSlices(false, true, slices, func(lat []float64) float64 { return float64(len(lat)) / width })
}

// latencyPercentile is the p-th latency percentile of correct queries
// (edit=false) or successful edits (edit=true), over n slices.
func (r *windowResult) latencyPercentile(edit bool, p float64, n int) float64 {
	return r.quartileOverSlices(edit, false, n, func(lat []float64) float64 { return percentile(lat, p) })
}

// percentile of sorted values, nearest-rank. NaN when there are none.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	i := int(math.Ceil(p*float64(len(sorted)))) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}
