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
// Fragment.Origin maps each fragment-local node ID back to the original
// tree's node ID, which is how distributed answers are compared against a
// centralized oracle.
//
// # Persistence
//
// manifest.go serializes a fragmentation to a directory — one XML file per
// fragment plus manifest.json with the fragment tree and its annotations.
// cmd/paxfrag writes that layout, cmd/paxsite serves fragments from it,
// and the cmd/paxq coordinator reads the fragment-tree skeleton from the
// manifest alone (never the data). Fragments loaded this way are never
// mutated in place: an edit swaps in a copy-on-write successor (edit.go).
package fragment
