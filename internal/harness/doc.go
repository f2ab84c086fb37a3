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
// answer while visiting each site within the algorithm's bound. Every
// case is optionally replayed on twins of the same cluster that must be
// observationally identical to the primary:
//
//   - a sequential-site twin (parallelism changes wall time only);
//   - Stage-1 cache twins — one warm, one single-entry for eviction
//     pressure — evaluated on miss-then-hit and interleaved-replay
//     schedules (answers, visits AND bytes identical to the uncached
//     primary);
//   - a batching twin (batch-of-one wire-identical to the primary,
//     concurrent batches centralized-equal with ledgers conserved) and,
//     in the mutation phase, scoped-vs-wipe invalidation twins.
//
// Serving performance is not measured here: bench/ is the one serving
// benchmark.
package harness
