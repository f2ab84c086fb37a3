// Package fragment implements the fragmentation model of §2.1: an XML tree
// is decomposed into disjoint subtrees (fragments), each possibly stored
// at a different site. A fragment that has sub-fragments contains one
// virtual node per sub-fragment, standing in for the missing subtree. The
// induced fragment tree FT records the parent/child relation between
// fragments and optionally carries the XPath annotations of §5: the label
// path connecting a fragment's root to each sub-fragment's root.
//
// No constraints are imposed on the fragmentation: fragments may nest
// arbitrarily, appear at any depth and have any size — the "most generic
// possible" setting of the paper. Three cutting strategies produce one:
//
//   - Cut at explicit node IDs (Cut), e.g. the elements selected by an
//     XPath expression — precise, declarative fragmentation;
//   - CutsBySize: size-balanced fragments under a node-count cap;
//   - RandomCuts: randomized fragmentations for differential testing.
//
// SelectCuts is the one choice among them that paxq.NewCluster and
// cmd/paxfrag make from their options.
//
// Fragments keep no map back to the original tree. Fragmentation.Origins
// computes one from the columns on demand, mapping each fragment-local
// node ID to its ID in the reassembled document; the oracles compare
// distributed answers against centralized evaluation through it.
//
// # Representation
//
// A fragment is its columns: it embeds its ArenaView (the arena.Tree of
// its nodes plus its virtual and spine masks, arena.go) and holds no
// pointer tree. Cut writes every fragment's columns in one preorder pass
// over the document's own nodes (arena.Builder), sharing the document's
// strings; ReadFragment builds them from the parsed file, Skeleton from
// the manifest, and ApplyEdit splices them. Node IDs are arena indices,
// dense in preorder. Reassemble and the tests derive a pointer form with
// Tree.ToTree when they need one.
//
// # Persistence
//
// manifest.go serializes a fragmentation to a directory — one XML file per
// fragment plus manifest.json with the fragment tree and its annotations.
// cmd/paxfrag writes that layout, cmd/paxsite serves fragments from it,
// and the cmd/paxq coordinator reads the fragment-tree skeleton from the
// manifest alone (never the data). A fragment file holds the fragment's
// file form (Fragment.XML, read back by ReadFragment), which is also what
// a site ships as a final-stage body and slices ShipXML answers from
// (fileform.go: built once per fragment version, with every node's byte
// range). Fragments loaded this way are never
// mutated in place: an edit swaps in a copy-on-write successor (edit.go).
package fragment
