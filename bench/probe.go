package main

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"time"

	"paxq"
	"paxq/internal/arena"
	"paxq/internal/dist"
	"paxq/internal/fragment"
	"paxq/internal/xmltree"
	"paxq/internal/xpath"
)

// Probes: single-threaded measurements of one layer on the workload's own
// inputs, taken while nothing else runs.

// medianOf3 times fn three times and returns the median.
func medianOf3(fn func() error) (time.Duration, error) {
	var ds []time.Duration
	for i := 0; i < 3; i++ {
		t := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		ds = append(ds, time.Since(t))
	}
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	return ds[1], nil
}

// setupProbe is the cost of the layers set-up passes through.
type setupProbe struct {
	compileUS  float64 // xpath.Compile, mean over the workload's query strings
	parseMBs   float64 // xmltree.Parse over the document's XML text
	cutMS      float64 // fragment.Cut at the deployment's cut nodes
	fromTreeMS float64 // arena.FromTree over every fragment
}

func probeSetup(w workload, seed int64, text string, tree *xmltree.Tree, opts paxq.ClusterOptions) (setupProbe, error) {
	var p setupProbe

	var queries []string
	if w.cold {
		s := newColdStream(seed)
		for i := 0; i < 512; i++ {
			queries = append(queries, s.next())
		}
	} else {
		for _, c := range w.classes() {
			queries = append(queries, c.query)
		}
	}
	const compileRounds = 64
	t := time.Now()
	for round := 0; round < compileRounds; round++ {
		for _, q := range queries {
			if _, err := xpath.Compile(q); err != nil {
				return p, fmt.Errorf("compile %s: %w", q, err)
			}
		}
	}
	p.compileUS = float64(time.Since(t).Microseconds()) / float64(compileRounds*len(queries))

	if text == "" {
		// XMark is generated as a tree; its serialization stands in for
		// the text a user would load.
		text = xmltree.SerializeString(tree.Root)
	}
	d, err := medianOf3(func() error { _, err := xmltree.ParseString(text); return err })
	if err != nil {
		return p, err
	}
	p.parseMBs = float64(len(text)) / 1e6 / d.Seconds()

	cuts, err := cutsFor(tree, opts)
	if err != nil {
		return p, err
	}
	var ft *fragment.Fragmentation
	d, err = medianOf3(func() error { ft, err = fragment.Cut(tree, cuts); return err })
	if err != nil {
		return p, err
	}
	p.cutMS = float64(d.Microseconds()) / 1e3

	d, _ = medianOf3(func() error {
		for _, f := range ft.Frags {
			arena.FromTree(f.Tree)
		}
		return nil
	})
	p.fromTreeMS = float64(d.Microseconds()) / 1e3
	return p, nil
}

// codecProbe is what the wire codec costs per message, replaying the first
// message the traced run captured of each stage kind.
type codecProbe struct {
	reqUS        float64 // encode + decode of one request, mean over kinds
	respUS       float64 // encode + decode of one response, mean over kinds
	respMBs      float64 // response payload bytes per second of encode + decode
	allocsPerMsg float64
}

func probeCodec(captured map[string]exchange) (codecProbe, error) {
	var p codecProbe
	if len(captured) == 0 {
		return p, fmt.Errorf("codec probe: the traced run captured no message")
	}
	const rounds = 100
	var reqTime, respTime time.Duration
	var respBytes int
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for kind, ex := range captured {
		t := time.Now()
		for i := 0; i < rounds; i++ {
			b, err := dist.EncodeRequest(dist.Binary, ex.req)
			if err == nil {
				_, err = dist.DecodeRequest(dist.Binary, b)
			}
			if err != nil {
				return p, fmt.Errorf("codec probe: %s request: %w", kind, err)
			}
		}
		reqTime += time.Since(t)
		t = time.Now()
		for i := 0; i < rounds; i++ {
			b, err := dist.EncodeResponse(dist.Binary, ex.resp, "", 0)
			if err == nil {
				_, _, _, err = dist.DecodeResponse(dist.Binary, b)
			}
			if err != nil {
				return p, fmt.Errorf("codec probe: %s response: %w", kind, err)
			}
			respBytes += len(b)
		}
		respTime += time.Since(t)
	}
	runtime.ReadMemStats(&m1)
	msgs := float64(rounds * len(captured))
	p.reqUS = float64(reqTime.Nanoseconds()) / 1e3 / msgs
	p.respUS = float64(respTime.Nanoseconds()) / 1e3 / msgs
	p.respMBs = float64(respBytes) / 1e6 / respTime.Seconds()
	p.allocsPerMsg = float64(m1.Mallocs-m0.Mallocs) / (2 * msgs)
	return p, nil
}

// sessionLeakQueries is how many queries the session-leak probe sends:
// enough to run past a site's 256-session table.
const sessionLeakQueries = 300

// probeSessionLeak sends sessionLeakQueries sequential Q3 PaX3+annotations
// queries to a fresh qual_hot deployment and counts the ones a site
// refused for want of a session slot. A site all of whose fragments the
// annotations prune sees Stage 1 of every such query and no later stage,
// and never drops the session; once 256 have piled up it refuses every
// query for the two-minute session lifetime. That is why this class is
// kept out of the timed mixes, and the count is the target of the fix.
func probeSessionLeak(ctx context.Context) (int, error) {
	hot := workloads[0]
	doc, err := hot.load("")
	if err != nil {
		return 0, err
	}
	c, err := paxq.NewCluster(doc, hot.clusterOptions())
	if err != nil {
		return 0, err
	}
	defer c.Close()
	refused := 0
	for i := 0; i < sessionLeakQueries; i++ {
		_, _, err := c.QueryContext(ctx, q3, paxq.QueryOptions{Algorithm: "pax3", Annotations: true})
		switch {
		case err == nil:
		case strings.Contains(err.Error(), "session limit"):
			refused++
		default:
			return refused, fmt.Errorf("session-leak probe, query %d: %w", i, err)
		}
	}
	return refused, nil
}
