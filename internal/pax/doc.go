// Package pax implements the paper's distributed evaluation algorithms for
// data-selecting XPath queries over a fragmented, distributed XML tree:
//
//   - PaX3 (§3): three stages — qualifier evaluation (extended ParBoX),
//     selection-path evaluation, candidate resolution — visiting each site
//     at most three times.
//   - PaX2 (§4): qualifier and selection evaluation combined into a single
//     traversal per fragment with lazily-bound qualifier variables,
//     visiting each site at most twice.
//   - The §5 optimization: XPath-annotated fragment trees used to prune
//     irrelevant fragments and, for qualifier-free queries, to seed
//     traversal stacks with concrete values so the final visit is skipped.
//   - NaiveCentralized (§3): ship every fragment to the coordinator,
//     reassemble, evaluate centrally — the baseline whose network cost the
//     partial-evaluation algorithms avoid.
//
// The coordinator side (Engine) talks to sites purely through
// dist.Transport; the site side (Site) is a dist.Handler, so the same
// algorithm code runs in-process or over TCP.
//
// # Coordinator
//
// Engine is the querying site S_Q of the paper. It is safe for concurrent
// use: any number of Run/RunBoolean calls may be in flight over one
// cluster, each carrying a private cost ledger built from the per-call
// CallCosts the transport reports, so the guarantees a Result asserts —
// visit counts, byte totals, computation times — hold per query even under
// concurrent load. Compiled plans (query + relevance analysis) are cached
// per (query, annotations) and shared between runs. WithMaxInFlight and
// WithQueueTimeout add admission control: overload sheds or queues with a
// typed ErrOverloaded, deterministically.
//
// # Sites
//
// Site hosts fragments and serves stage requests. Per-query state lives in
// sessions keyed by QueryID; compiled queries are cached and shared across
// sessions. Within one stage request, fragments evaluate concurrently on a
// per-session worker pool (SetParallelism), with per-fragment computation
// summed and self-reported through the response (StageCompute), so a
// query's ledger is identical whether the site evaluated sequentially or
// in parallel. Stage 1 is one evaluator, the bit-packed pass over the
// fragment's arena view (parbox.NewVectorState + FragQual). Before
// shipping, every residual formula runs a hash-consing simplification
// pass (boolexpr.Simplifier).
//
// # Stage-1 memoization
//
// A site optionally memoizes its Stage-1 (qualifier pass) results
// (EnableCache, WithSiteCache): the pass depends only on the compiled
// query, the fragment count and the site's fragment contents, so repeated
// queries replay the memoized wire vectors byte-identically with zero tree
// traversal. A fragment edit (EditReq) patches every memoized entry's
// vector state through the edit instead of dropping it; fragment mutations
// made any other way must call BumpCacheGeneration. The
// eviction/TTL/generation semantics live in package sitecache, the
// integration in qualcache.go.
//
// # Wire messages
//
// The stage messages (messages.go) hand-encode their bodies in wiremsg.go;
// residual formulas travel in their boolexpr postfix encoding, so the
// shipped bytes track the paper's O(|residual formulas|) communication
// bound rather than serialization-library overhead. testdata/golden
// records every message's bytes; a deliberate format change regenerates
// it (go test -run TestGoldenBytes -update) beside a bump of the dist
// version byte.
package pax
