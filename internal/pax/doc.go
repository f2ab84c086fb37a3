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
//     partial-evaluation algorithms avoid. It is reachable only through
//     Options, for the experiments and the oracles: ParseAlgorithm, behind
//     every served surface, refuses it.
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
// per (query, annotations) and shared between runs. WithMaxInFlight adds
// admission control: overload sheds at once with a typed ErrOverloaded,
// deterministically.
//
// Every stage is one round of fanOut: each primary with a request gets
// one call, to the replica the query's route names for its group,
// concurrently or, under Options.Sequential, one at a time. Each call is
// one dist.Transport.Call, so every engine kind charges the same ledger
// entries and fails a stage the same way: a *dist.BroadcastError naming
// the failing primaries in primary order. A replicated engine, or one
// given WithMaxAttempts(n > 1), answers a stage failure that another run
// could repair by running the whole query again under the same QID, each
// failed group rotated to its next replica (run.retry):
// one retry loop per query. The first stage that reads a fragment reports
// the version it read, and every later request of the query names it, so
// every run reads one version of each fragment; a site that no longer
// holds the version answers ErrVersionSkew, and the query runs again.
// An engine holds each edit back until its own queries that may still
// name the version the edit makes sites drop are done (queryGate).
//
// # Sites
//
// Site hosts fragments and serves stage requests. It keeps no per-query
// state: each stage request is self-contained, and a site keeps the
// current and the previous version of each fragment, and compiled queries
// with their Stage-1 results, cached and shared across queries. The final
// stage walks its candidate-bearing fragments again under ground inits
// and qualifier values. One stage request evaluates its fragments one after another,
// in the handler's goroutine: the site is the unit of parallelism, and the
// transport's measured handler time is the request's computation cost.
// Stage 1 is one evaluator, the bit-packed pass over the
// fragment's arena view (parbox.Qualify); a fragment's
// Stage-1 state is its qualifier masks plus formula rows for its spine,
// and the selection stage reads it through FragQual.QualAt. The selection
// traversal is a pre-order sweep over the same arena columns that computes
// vectors only on the paths to what it can ship, chosen by masks. PaX2's
// combined visit is the same two evaluators in one request: the mask pass,
// then the selection sweep reading its qualifier values unresolved,
// over sub-fragment variables; handleSel and handleCombined share that
// fragment walk (selectFrags). Each (query, fragment) visit builds its
// formulas with one boolexpr.Builder, which hash-conses as it builds, so
// formulas are canonical by construction and ship as built.
//
// A site reads its fragments through their arena columns only — Stage 1,
// the selection sweep, answer labels and values, and the fragment's file
// form (fragment.Fragment.XML, what Save writes), built once from the
// columns and cached: a ShipXML answer is a slice of it
// (Fragment.SubtreeXML), with each sub-fragment below the answer as a
// stub, and the final stage's body fetch ships it whole, at the version
// the query's earlier stages read; NaiveCentralized's fetch is one such
// stage naming every hosted fragment. The
// coordinator fills the stubs with the bodies (stitch.go). An
// edit splices the columns (fragment.Fragment.ApplyEdit); no fragment
// carries a pointer tree, edited or not. An insert's
// subtree arrives as XML text too; handleEdit parses it, builds the new
// fragment outside the site lock and, under it, swaps in a new immutable
// fragment set holding it, with the edited-away version as the fragment's
// previous one.
//
// Stage 1 runs once per fragment version: beside a repeated query's
// compiled form, in its compile-cache entry, a site keeps the query's
// Stage-1 result per hosted fragment, valid only for the fragment object
// it was computed from, so an edit's new version misses and replaces it
// (site.go, compiledQuery). A text stores results from its first use on,
// so a PaX3 query's later stages read what its qualifier stage stored.
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
