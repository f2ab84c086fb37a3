// Columnar form of a fragment: the arena layout of its tree plus the
// virtual-node and spine masks the vectorized Stage-1 evaluator keys on.

package fragment

import (
	"paxq/internal/arena"
	"paxq/internal/xmltree"
)

// ArenaView is the columnar form of one fragment, and the only form of
// its tree a Fragment holds (it is embedded there). Tree is the arena
// layout of the fragment's tree: node IDs are arena indices, dense in
// preorder. VirtualMask marks the virtual nodes — the leaves standing for
// sub-fragments, whose qualifier vectors are unknown variables rather
// than computable bits. SpineMask marks the spine: every proper ancestor
// of a virtual node. Spine nodes are the only positions whose residual
// formulas can mention variables, so a vectorized pass computes ground
// bits everywhere else and falls back to symbolic evaluation exactly on
// the spine. Every fragment constructor builds the view at once; an edit
// splices a new one into its successor (ApplyEdit).
type ArenaView struct {
	Tree        *arena.Tree
	VirtualMask arena.Bitset
	SpineMask   arena.Bitset
}

// newArenaView returns the view of tree at whose virtual nodes are the
// keys of virtuals.
func newArenaView(at *arena.Tree, virtuals map[xmltree.NodeID]FragID) ArenaView {
	av := ArenaView{Tree: at, VirtualMask: arena.NewBitset(at.Len()), SpineMask: arena.NewBitset(at.Len())}
	for vid := range virtuals {
		av.VirtualMask.Set(int(vid))
	}
	at.StrictDescendants(av.VirtualMask, av.SpineMask)
	return av
}
