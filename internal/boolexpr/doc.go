// Package boolexpr implements the Boolean-formula engine that underpins
// partial evaluation in paxq.
//
// During distributed query evaluation each site evaluates the whole query
// over its local fragments. Wherever a value depends on data held by
// another fragment, the site emits a fresh Boolean variable instead of a
// constant. The resulting "partial answers" are formulas over such
// variables — the residual functions of partial evaluation. The
// coordinator later unifies variables with the values reported by other
// fragments (Env), collapsing every formula to a constant.
//
// # Representation
//
// Formulas are immutable DAGs built through smart constructors (And, Or,
// Not, V, Const) that perform constant folding, flattening, deduplication
// and involution elimination, so a formula never contains a redundant
// True/False leaf, a nested conjunction inside a conjunction, or a double
// negation. This keeps residual functions small: their size is bounded by
// the number of distinct variables they mention, which in paxq is bounded
// by |Q| per virtual node. Immutability is what makes formulas safe to
// share — across concurrent queries, and across the members of one
// batched Stage-1 sweep, which all read the formula DAGs it built.
//
// # Fold before allocating
//
// The evaluation recurrences call And/Or once per node and entry, and on
// ground data almost every call combines constants with at most one
// distinct symbolic operand. The constructors therefore make one pass over
// the operands first: an absorber (false for And, true for Or) returns at
// once, identities are skipped, and when at most one distinct operand
// remains the result is the identity or that very operand — no slice, no
// dedup map, no new node. Only a call with two or more distinct operands
// reaches the general path that flattens, deduplicates and applies the
// complement and absorption rules. The fast path returns what the general
// path would (a lone same-operator operand is returned itself instead of
// being rebuilt into an equal copy), so residual formulas and shipped
// bytes are unchanged. Env.Resolve follows the same discipline: constants
// and variables bound to constants resolve without building a memo.
//
// # Wire encoding
//
// Encode/Decode (wire.go) serialize formulas in a compact postfix
// encoding — one byte per connective, a varint per variable — sized in one
// pass and encoded with an explicit heap stack, so even pathologically
// deep formulas encode in a single allocation. The shipped bytes of a
// query are dominated by these encodings: they ARE the paper's
// O(|residual formulas|) communication bound.
//
// # Canonical by construction
//
// The constructors' non-constant rules (dedup, complementary pairs,
// absorption) match sub-formulas by pointer identity, so they miss two
// structurally equal subterms built on separate traversal paths. A
// Builder (builder.go) closes that gap as it builds: it interns every
// variable leaf, and keys every composite node by its operator and the
// identities of its already-canonical children, so structural equality is
// pointer equality and every rule fires. A lookup of a node it holds
// allocates nothing, and its tables are allocated on first insert.
//
// Sites build every formula they ship with a Builder, one per (query,
// fragment) visit and confined to that visit's goroutine: PaX3's Stage 1
// builds a fragment's FragQual with one and does not keep it, its Stage 2
// starts a fresh one per fragment, and PaX2's combined visit passes one
// through the mask pass's spine walk, the initial vector and the selection
// walk. Formulas then ship as built, with no pass that rebuilds them.
// Without the interning, 31 of 5 450 PaX2 and 4 of 5 450 PaX3 cases of
// the differential corpus (seeds 1–25, 1000–1099, 2000–2019 and
// 5000–5399, five queries each, with and without annotations) ship more
// bytes, up to 2.78× (683 → 1 900 B). A Builder per visit keeps one
// query's shipped bytes independent of the site's scheduling. The
// package-level constructors remain for Decode and Env.Resolve, whose
// formulas never ship.
package boolexpr
