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
// share — across concurrent queries, and across the sessions of one
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
// bytes are unchanged. Env.Resolve and Allocator.FreshV follow the same
// discipline: constants and variables bound to constants resolve without
// building a memo, and placeholder variables are carved from chunks.
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
// # Simplification
//
// Simplifier (simplify.go) rebuilds formulas bottom-up with every subterm
// hash-consed (interned leaves, composite nodes keyed by operator + child
// identities), so dedup/absorption/complement rules that match by pointer
// identity fire across structurally equal subtrees built on different
// traversal paths. Sites run it on every formula before shipping, with no
// switch: Stage-1 vectors already come out canonical, but the combined
// stage's formulas (PaX2) ship up to 3× the bytes without it. It is
// semantics-preserving and deterministic, so one query's shipped bytes do
// not depend on the site's scheduling.
package boolexpr
