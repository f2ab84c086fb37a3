// Command paxbench regenerates the experimental study of §6 of the paper:
// Figures 9(a)–(b) (Experiment 1), 10(a)–(d) (Experiment 2), 11(a)–(d)
// (Experiment 3), the Experiment-2 fragment-size table and the Fig. 7 query
// table, plus the communication-bound validation (§3.4).
//
// Usage:
//
//	paxbench -exp all -scale 0.05
//	paxbench -exp 2 -scale 0.1 -runs 5 -csv
//	paxbench -exp queries
//
// The diff mode runs the differential harness — distributed against
// centralized evaluation on randomized instances over both transports,
// with the sequential-site, site-cache and batching twins — and, with
// -json, writes the machine-readable result to a file:
//
//	paxbench -exp diff -load 10 -json diff.json
//
// The fault mode runs the fault-injection differential harness: -load
// randomized kill/restart schedules against replicated fleets on each
// transport (in-process hook faults; real server kills over TCP), every
// survived query checked byte-identical to centralized evaluation, within
// the failover visit bound, with cost ledgers conserved:
//
//	paxbench -exp fault -load 50
//
// -scale is the dataset size relative to the paper's 100 MB baseline
// (0.05 → 5 MB cumulative).
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"

	"paxq/internal/harness"
)

func main() {
	exp := flag.String("exp", "all", "experiment: 1, 2, 3, traffic, t2, queries, diff, fault or all")
	scale := flag.Float64("scale", 0.02, "data scale relative to the paper's 100MB baseline")
	runs := flag.Int("runs", 3, "runs per data point (median reported)")
	steps := flag.Int("steps", 10, "experiment 2/3 iterations")
	frags := flag.Int("frags", 10, "experiment 1 max fragments")
	seed := flag.Int64("seed", 1, "generator seed")
	csv := flag.Bool("csv", false, "emit CSV instead of tables")
	jsonPath := flag.String("json", "", "write the mode's machine-readable results (JSON) to this file")
	load := flag.Int("load", 25, "diff/fault mode: seeds")
	flag.Parse()

	ctx := context.Background()
	cfg := harness.Config{Scale: *scale, MaxFrags: *frags, Steps: *steps, Runs: *runs, Seed: *seed}
	writeJSON := func(v any) {
		if *jsonPath == "" {
			return
		}
		data, err := json.MarshalIndent(v, "", "  ")
		if err != nil {
			fatal(err)
		}
		if err := os.WriteFile(*jsonPath, append(data, '\n'), 0o644); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %s\n", *jsonPath)
	}
	emit := func(f *harness.Figure) {
		if *csv {
			fmt.Printf("# Figure %s — %s\n%s\n", f.ID, f.Title, f.CSV())
		} else {
			fmt.Println(f.Table())
		}
	}

	run1 := func() {
		figA, figB, err := harness.Experiment1(ctx, cfg)
		if err != nil {
			fatal(err)
		}
		emit(figA)
		emit(figB)
	}
	run23 := func(want10, want11 bool) {
		fig10, fig11, err := harness.Experiment23(ctx, cfg)
		if err != nil {
			fatal(err)
		}
		if want10 {
			for _, f := range fig10 {
				emit(f)
			}
		}
		if want11 {
			for _, f := range fig11 {
				emit(f)
			}
		}
	}
	runTraffic := func() {
		fig, err := harness.TrafficExperiment(ctx, cfg)
		if err != nil {
			fatal(err)
		}
		emit(fig)
	}
	runT2 := func() {
		sizes, err := harness.FT2Sizes(cfg)
		if err != nil {
			fatal(err)
		}
		fmt.Println("Experiment-2 fragment sizes (FT2 layout, bytes at this scale):")
		for i, s := range sizes {
			fmt.Printf("  F%-2d %10d\n", i, s)
		}
		fmt.Println()
	}
	runDiff := func() {
		// Differential mode: distributed vs centralized on random (tree,
		// query, fragmentation) instances, over both transports, with
		// parallel-vs-sequential site evaluation, the cached-vs-uncached
		// site-cache twins and the batched-transport twins cross-checked.
		type diffOut struct {
			Transport string              `json:"transport"`
			Result    *harness.DiffResult `json:"result"`
		}
		var out []diffOut
		for _, tr := range []harness.DiffTransport{harness.DiffLocal, harness.DiffTCP} {
			res, err := harness.DifferentialSweep(ctx, *seed, *load, harness.DiffOptions{
				Transport:       tr,
				CompareParallel: true,
				CompareCache:    true,
				CompareBatch:    true,
			})
			if res != nil {
				fmt.Printf("%s %s\n", tr, res)
				out = append(out, diffOut{Transport: tr.String(), Result: res})
			}
			if err != nil {
				fatal(err)
			}
			if !res.Ok() {
				for _, d := range res.FailureDetails {
					fmt.Println("  " + d)
				}
				fatal(fmt.Errorf("differential checks failed on the %s transport", tr))
			}
		}
		writeJSON(out)
	}
	runFault := func() {
		// Fault mode: randomized kill/restart schedules over replicated
		// fleets on both transports — answers must stay byte-identical to
		// centralized evaluation through every survived outage, visits
		// within the failover bound, ledgers conserved.
		type faultOut struct {
			Transport string               `json:"transport"`
			Result    *harness.FaultResult `json:"result"`
		}
		var out []faultOut
		for _, tr := range []harness.DiffTransport{harness.DiffLocal, harness.DiffTCP} {
			res, err := harness.FaultSweep(ctx, *seed, *load, harness.FaultOptions{Transport: tr})
			if res != nil {
				fmt.Printf("%s %s\n", tr, res)
				out = append(out, faultOut{Transport: tr.String(), Result: res})
			}
			if err != nil {
				fatal(err)
			}
			if !res.Ok() {
				for _, d := range res.FailureDetails {
					fmt.Println("  " + d)
				}
				fatal(fmt.Errorf("fault-injection checks failed on the %s transport", tr))
			}
		}
		writeJSON(out)
	}
	runQueries := func() {
		fmt.Println("Fig. 7 — experiment queries:")
		names := make([]string, 0, len(harness.PaperQueries))
		for name := range harness.PaperQueries {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			fmt.Printf("  %s  %s\n", name, harness.PaperQueries[name])
		}
		fmt.Println()
	}

	switch *exp {
	case "1", "1a", "1b":
		run1()
	case "2", "2a", "2b", "2c", "2d":
		run23(true, false)
	case "3", "3a", "3b", "3c", "3d":
		run23(false, true)
	case "traffic":
		runTraffic()
	case "diff":
		runDiff()
	case "fault":
		runFault()
	case "t2":
		runT2()
	case "queries":
		runQueries()
	case "all":
		runQueries()
		runT2()
		run1()
		run23(true, true)
		runTraffic()
	default:
		fmt.Fprintf(os.Stderr, "paxbench: unknown experiment %q\n", *exp)
		os.Exit(2)
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "paxbench: %v\n", err)
	os.Exit(1)
}
