// Package pax implements the paper's distributed evaluation algorithms for
// data-selecting XPath queries over a fragmented, distributed XML tree:
//
//   - PaX3 (§3): three stages — qualifier evaluation (extended ParBoX),
//     selection-path evaluation, candidate resolution — visiting each site
//     at most three times.
//   - PaX2 (§4): qualifier and selection evaluation combined into a single
//     visit per fragment, visiting each site at most twice.
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
// fragment's arena view (parbox.NewVectorState + FragQual); a fragment's
// Stage-1 state is its qualifier masks plus formula rows for its spine,
// and the selection stage reads it through FragQual.QualAt. PaX2's
// combined visit is the same two evaluators in one request: the mask pass,
// then the selection traversal reading its qualifier values unresolved,
// over sub-fragment variables; handleSel and handleCombined share that
// fan-out (selectFrags). Each (query, fragment) visit builds its formulas
// with one boolexpr.Builder, which hash-conses as it builds, so formulas
// are canonical by construction and ship as built.
//
// A site keeps no evaluation result across queries: like the paper's
// sites, it runs Stage 1 once per query. Within one batch envelope,
// qualifier-stage members that compile to the same normal form over the
// same fragment snapshot share one sweep (batch.go).
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
