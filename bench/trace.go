package main

import (
	"context"
	"encoding/json"
	"hash/fnv"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"paxq/internal/dist"
	"paxq/internal/pax"
)

// Tracing from outside: the benchmark wraps the two layer boundaries it
// can reach without touching the program — dist.Transport.Call on the
// coordinator side and each site's dist.Handler — and times
// Engine.RunContext / Engine.ApplyEdit around the call. Spans form
// query|edit → call.<kind> → site.<kind>. The root's id rides the context
// the benchmark passes in, so call spans know their parent directly; a
// site span only sees the decoded request, so it joins its call span
// afterwards by the request's identity (joinKey).

// span is one timed interval at a layer boundary. Times are nanoseconds
// since the recorder started.
type span struct {
	ID      uint64 `json:"id"`
	Parent  uint64 `json:"parent,omitempty"`
	Name    string `json:"name"`
	Site    int    `json:"site"` // -1 on coordinator root spans
	Start   int64  `json:"start_ns"`
	End     int64  `json:"end_ns"`
	Sent    int64  `json:"sent,omitempty"`
	Recv    int64  `json:"recv,omitempty"`
	Compute int64  `json:"reported_compute_ns,omitempty"` // CallCost.Compute, the ledger's own view

	key joinKey
}

func (s *span) dur() int64 { return s.End - s.Start }

// joinKey identifies one request on both sides of the wire: stage requests
// by their QueryID, edits by (fragment, base version), batch envelopes by
// a hash of their members (each member carries its own QueryID, so the
// hash is unique to the envelope).
type joinKey struct {
	kind string
	site dist.SiteID
	a, b uint64
}

func keyOf(site dist.SiteID, req any) joinKey {
	k := joinKey{site: site}
	switch r := req.(type) {
	case *pax.QualStageReq:
		k.kind, k.a = "qual", uint64(r.QID)
	case *pax.SelStageReq:
		k.kind, k.a = "sel", uint64(r.QID)
	case *pax.CombinedStageReq:
		k.kind, k.a = "combined", uint64(r.QID)
	case *pax.AnsStageReq:
		k.kind, k.a = "ans", uint64(r.QID)
	case *pax.EditReq:
		k.kind, k.a, k.b = "edit", uint64(r.Frag), r.BaseVersion
	case *pax.BatchStageReq:
		h := fnv.New64a()
		for _, sub := range r.Subs {
			h.Write([]byte{byte(sub.Tag), byte(sub.Tag >> 8), byte(sub.Tag >> 16), byte(sub.Tag >> 24)})
			h.Write(sub.Body)
		}
		k.kind, k.a = "batch", h.Sum64()
	default:
		k.kind = "other"
	}
	return k
}

type traceCtxKey struct{}

// exchange is one captured request/response pair, replayed by the codec
// probe.
type exchange struct{ req, resp any }

// recorder keeps every span in memory until the run ends.
type recorder struct {
	t0 time.Time

	mu       sync.Mutex
	spans    []span
	captured map[string]exchange // first successful exchange per call kind
}

func newRecorder() *recorder {
	return &recorder{t0: time.Now(), captured: make(map[string]exchange)}
}

func (r *recorder) now() int64 { return int64(time.Since(r.t0)) }

func (r *recorder) add(s span) uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	s.ID = uint64(len(r.spans) + 1)
	r.spans = append(r.spans, s)
	return s.ID
}

// root times fn as a root span ("query" or "edit") whose id travels in the
// context fn receives.
func (r *recorder) root(ctx context.Context, name string, fn func(ctx context.Context)) {
	// The id is reserved first so the call spans recorded inside fn can
	// name their parent; the interval is filled in afterwards.
	id := r.add(span{Name: name, Site: -1})
	start := r.now()
	fn(context.WithValue(ctx, traceCtxKey{}, id))
	end := r.now()
	r.mu.Lock()
	r.spans[id-1].Start, r.spans[id-1].End = start, end
	r.mu.Unlock()
}

// tracedTransport records one call span per dist.Transport.Call.
type tracedTransport struct {
	dist.Transport
	rec *recorder
}

func (t *tracedTransport) Call(ctx context.Context, to dist.SiteID, req any) (any, dist.CallCost, error) {
	key := keyOf(to, req)
	parent, _ := ctx.Value(traceCtxKey{}).(uint64)
	start := t.rec.now()
	resp, cost, err := t.Transport.Call(ctx, to, req)
	t.rec.add(span{
		Parent: parent, Name: "call." + key.kind, Site: int(to), Start: start, End: t.rec.now(),
		Sent: cost.Sent, Recv: cost.Recv, Compute: int64(cost.Compute), key: key,
	})
	if err == nil {
		t.rec.mu.Lock()
		if _, ok := t.rec.captured[key.kind]; !ok {
			t.rec.captured[key.kind] = exchange{req, resp}
		}
		t.rec.mu.Unlock()
	}
	return resp, cost, err
}

// wrapHandler records one site span per request the site's handler serves.
func (r *recorder) wrapHandler(site dist.SiteID, h dist.Handler) dist.Handler {
	return func(req any) (any, error) {
		key := keyOf(site, req)
		start := r.now()
		resp, err := h(req)
		r.add(span{Name: "site." + key.kind, Site: int(site), Start: start, End: r.now(), key: key})
		return resp, err
	}
}

// snapshot returns the spans recorded so far with every site span joined
// to its call span: the n-th site span of a key belongs to the n-th call
// span of that key (a retried call repeats the key, in order).
func (r *recorder) snapshot() []span {
	r.mu.Lock()
	spans := append([]span(nil), r.spans...)
	r.mu.Unlock()
	calls := make(map[joinKey][]uint64)
	for i := range spans {
		if s := &spans[i]; strings.HasPrefix(s.Name, "call.") {
			calls[s.key] = append(calls[s.key], s.ID)
		}
	}
	for i := range spans {
		s := &spans[i]
		if strings.HasPrefix(s.Name, "site.") && len(calls[s.key]) > 0 {
			s.Parent = calls[s.key][0]
			calls[s.key] = calls[s.key][1:]
		}
	}
	return spans
}

// layerTimes is what the spans of one window say about where time went.
// Every time is in nanoseconds, summed over the roots analyzed.
type layerTimes struct {
	queries, edits int64
	calls          int64 // call spans under query roots

	coordSelf     int64            // query span minus the union of its call spans
	wire          int64            // call span minus its site span
	site          map[string]int64 // site handler time under query roots, per stage kind
	reported      int64            // Σ CallCost.Compute under query roots
	sent, recv    int64            // Σ span bytes under query roots
	editCoordSelf int64
	editSite      int64
	editSent      int64
	editRecv      int64
	minSelf       int64 // smallest self time seen (must be >= 0)
}

// analyze folds the spans of the given roots into layerTimes.
func analyze(spans []span, roots map[uint64]bool) layerTimes {
	lt := layerTimes{site: make(map[string]int64)}
	children := make(map[uint64][]*span)
	for i := range spans {
		if s := &spans[i]; s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	for i := range spans {
		root := &spans[i]
		if !roots[root.ID] {
			continue
		}
		isEdit := root.Name == "edit"
		calls := children[root.ID]
		self := root.dur() - unionLen(calls)
		lt.minSelf = min(lt.minSelf, self)
		var siteTime, wire, reported, sent, recv int64
		for _, c := range calls {
			reported += c.Compute
			sent += c.Sent
			recv += c.Recv
			handlers := children[c.ID]
			if len(handlers) == 0 {
				continue // the call never reached a handler
			}
			inSite := int64(0)
			for _, s := range handlers {
				inSite += s.dur()
				if !isEdit {
					lt.site[strings.TrimPrefix(s.Name, "site.")] += s.dur()
				}
			}
			siteTime += inSite
			wire += c.dur() - inSite
			lt.minSelf = min(lt.minSelf, c.dur()-inSite)
		}
		if isEdit {
			lt.edits++
			lt.editCoordSelf += self
			lt.editSite += siteTime
			lt.editSent += sent
			lt.editRecv += recv
			continue
		}
		lt.queries++
		lt.calls += int64(len(calls))
		lt.coordSelf += self
		lt.wire += wire
		lt.reported += reported
		lt.sent += sent
		lt.recv += recv
	}
	return lt
}

// unionLen is the total length of the union of the spans' intervals.
func unionLen(ss []*span) int64 {
	iv := make([][2]int64, len(ss))
	for i, s := range ss {
		iv[i] = [2]int64{s.Start, s.End}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, end int64
	for i, v := range iv {
		if i == 0 || v[0] > end {
			total += v[1] - v[0]
			end = v[1]
		} else if v[1] > end {
			total += v[1] - end
			end = v[1]
		}
	}
	return total
}

// writeSpans dumps the spans as JSON lines.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}
