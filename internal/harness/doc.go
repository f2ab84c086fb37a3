// Package harness is the experiment and validation harness behind
// cmd/paxbench and the heavyweight test suites.
//
// # Paper experiments
//
// harness.go regenerates the experimental study of §6: every figure (9a,
// 9b, 10a–d, 11a–d) and table of the paper, on synthetic XMark data over
// the in-process cluster. Dataset sizes are scaled by Config.Scale
// relative to the paper's 100 MB baseline; the curves' shapes — who wins,
// by what factor, where the gains flatten — are scale-invariant because
// every cost in play is linear in |T|.
//
// # Differential harness
//
// differential.go mechanically checks the paper's headline guarantee on
// randomized (tree, query, fragmentation) instances over the real
// transports: distributed evaluation must compute exactly the centralized
// answer while visiting each site within the algorithm's bound. After
// its serial cases, each seed runs its PaX3 cases again all at once on
// the same engine, under the same answer and visit checks, and the
// per-query ledgers of all its runs must sum to the transport's lifetime
// totals.
//
// The mutation phase (editdiff.go) interleaves random edit schedules with
// queries on its own cluster, checking every answer against a
// centralized oracle rebuilt after each edit and the per-query + per-edit
// ledgers against the transport's totals.
//
// Serving performance is not measured here: bench/ is the one serving
// benchmark.
package harness
