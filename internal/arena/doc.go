// Package arena provides a columnar, cache-friendly layout for frozen
// xmltree documents: every per-node attribute lives in a contiguous array
// indexed by preorder rank, so the Stage-1 qualifier pass can run as
// word-at-a-time sweeps over bit-packed masks instead of a pointer chase
// over *xmltree.Node structs.
//
// A Tree stores, per node and in pointer-free columns: the interned label
// id (elements), the parent and subtree-end indices that make both
// structural axes of the paper's XPath fragment X answerable by index
// arithmetic (first child and next sibling derive from them), and a slot
// into a value pool holding the character data of text nodes and the
// string and numeric values and attributes of elements. Because xmltree.Tree.Freeze
// assigns dense preorder IDs, the arena index of a node IS its
// xmltree.NodeID — the two representations address nodes identically, and
// FromTree/ToTree round-trip losslessly (kinds, labels, data, attributes
// and child order are all preserved).
//
// Builder (build.go) is the one way columns are written from scratch: one
// preorder pass of Open, Text and Close calls, an element's values set
// when it closes. FromTree drives it over a pointer tree (given an arena,
// over its ToTree form), and fragment.Cut over a document's nodes, so a
// fragment's columns come straight from the document with no pointer
// clone in between; the columns share the source's strings.
//
// On top of the layout the package offers Bitset, a packed []uint64 node
// set with allocation-free AND/OR/NOT kernels, and the structural joins
// the vectorized evaluators need. Stage 1 takes ParentScatter (which
// children sets propagate to their parents — the QCV aggregation) and
// StrictDescendants (the ancestor closure of the set bits up the parent
// column, setting each result bit once — the QDV aggregation); the
// selection stage's masks take ParentIn (the members of a candidate set
// whose parent is in a set — a child step) and DescendantsOrSelf (each set
// bit's subtree, filled a word at a time — a "//" step). Each costs the
// bits it reads and sets plus a pass over the words, not the node count.
// TakeSlab and PutSlab pool the word slabs from which both evaluators
// carve a visit's masks.
// See internal/parbox's vector evaluator, internal/pax's evalSelection and
// ARCHITECTURE.md, "Columnar site storage & vectorized Stage 1".
//
// A Tree is immutable once built and safe for concurrent readers;
// values (string and numeric values of every element) and per-label
// element masks are precomputed at construction so query evaluation takes
// no locks and performs no per-query string work beyond comparisons. The
// splice kernels (splice.go) build an edited successor by copying only the
// pointer-free columns and masks: every version of a fragment shares one
// append-only value pool (pool.go), to which a successor appends the
// values of the nodes it inserts.
package arena
