// Package parbox implements the qualifier-evaluation machinery of the
// paper: the extended ParBoX algorithm of §3.1. Each fragment is traversed
// once, bottom-up, computing for every node and every qualifier sub-query
// (predicate) the vectors the paper calls QV, QCV and QDV — as residual
// Boolean formulas over variables standing for the unknown vectors of
// virtual nodes. The coordinator unifies those variables bottom-up over the
// fragment tree (Procedure evalFT), grounding every formula.
//
// ParBoX itself — evaluation of Boolean XPath queries over a fragmented
// tree, which the paper's Stage 1 generalizes — runs on this machinery in
// pax.Engine.RunBooleanContext.
// Extensions over the VLDB'06 original, as described in §3.1: arithmetic
// comparisons (val()) and multiple top-level qualifiers.
//
// One representational economy relative to the paper: the triplet shipped
// per fragment root is (QV, QDV) only. QCV is derivable locally (a parent
// aggregates its children's QV directly) and never needs to cross a
// fragment boundary, so shipping it would only inflate the O(|Q|·|FT|)
// communication term by a constant factor.
package parbox

import (
	"fmt"

	"paxq/internal/arena"
	"paxq/internal/boolexpr"
	"paxq/internal/fragment"
	"paxq/internal/xmltree"
	"paxq/internal/xpath"
)

// VarScheme deterministically names the Boolean variables a fragment
// introduces for its virtual nodes, so that sites allocate variables
// independently without coordination and the coordinator can decode them.
// Fragment k owns a contiguous block: one QV and one QDV variable per
// qualifier predicate (the unknown vector entries of the virtual node
// standing for k) and one SV variable per selection entry (the unknown
// ancestor summary seeding k's traversal stack).
type VarScheme struct {
	NumPreds int
	NumSel   int
	NumFrags int
}

// NewVarScheme derives the scheme for a compiled query over a
// fragmentation with numFrags fragments.
func NewVarScheme(c *xpath.Compiled, numFrags int) VarScheme {
	return VarScheme{NumPreds: len(c.Preds), NumSel: len(c.Sel), NumFrags: numFrags}
}

func (s VarScheme) stride() int { return 2*s.NumPreds + s.NumSel }

// QV returns the variable for entry pred of the QV vector of fragment k's
// root.
func (s VarScheme) QV(k fragment.FragID, pred int) boolexpr.Var {
	return boolexpr.Var(1 + int(k)*s.stride() + pred)
}

// QDV returns the variable for entry pred of the QDV vector of fragment
// k's root.
func (s VarScheme) QDV(k fragment.FragID, pred int) boolexpr.Var {
	return boolexpr.Var(1 + int(k)*s.stride() + s.NumPreds + pred)
}

// SV returns the variable for entry i of the stack-initialization vector of
// fragment k (the z variables of Example 3.4).
func (s VarScheme) SV(k fragment.FragID, entry int) boolexpr.Var {
	return boolexpr.Var(1 + int(k)*s.stride() + 2*s.NumPreds + entry)
}

// RootVecs is the partial answer a fragment reports after its bottom-up
// qualifier pass: the QV and QDV rows of its root, as residual formulas
// over the variables of its own virtual nodes.
type RootVecs struct {
	QV  []*boolexpr.Formula
	QDV []*boolexpr.Formula
}

// FragQual is the in-memory state a site keeps for one fragment between
// the qualifier pass and the later stages: the root vectors it ships, and
// the value of every selection entry's qualifier at every real element,
// read through QualAt. Off the spine those values are ground, so they are
// kept as the pass's bit masks; only spine nodes carry formula rows.
type FragQual struct {
	Root RootVecs
	// Work counts node×entry operations, the unit of the paper's
	// computation-cost analysis.
	Work int64

	// selMasks holds, per selection entry with a qualifier, the entry's
	// qualifier value at every non-spine real element (nil for entries
	// without a qualifier, and nil altogether when the query has none).
	selMasks []arena.Bitset
	// rows holds the residual qualifier formulas of every selection entry
	// at the nodes the masks cannot represent: the spine.
	rows map[xmltree.NodeID][]*boolexpr.Formula
}

// QualAt returns the qualifier of selection entry e at node id, as a
// residual formula over the fragment's virtual-node variables, or nil for
// an entry without a qualifier. id must be a real element of the fragment:
// mask bits at spine and virtual positions are meaningless, so rows are
// consulted first and virtual nodes are never asked about. QualAt does not
// allocate.
func (q *FragQual) QualAt(id xmltree.NodeID, e int) *boolexpr.Formula {
	if row, ok := q.rows[id]; ok {
		return row[e]
	}
	m := q.SelMask(e)
	if m == nil {
		return nil
	}
	return boolexpr.Const(m.Get(int(id)))
}

// SelMask returns the qualifier mask of selection entry e — its value at
// every real element off the spine — or nil for an entry without a
// qualifier. Bits at spine and virtual positions are meaningless. Callers
// must not mutate the mask.
func (q *FragQual) SelMask(e int) arena.Bitset {
	if e >= len(q.selMasks) {
		return nil
	}
	return q.selMasks[e]
}

// IsBoolean reports whether c is a Boolean query: a bare qualifier such
// as "[//a/b = 'x']", which compiles to the root plus one wildcard step
// whose qualifier is the query's truth at the root of the tree.
func IsBoolean(c *xpath.Compiled) bool {
	return len(c.Sel) == 2 && c.Sel[1].Kind == xpath.SelStep && c.Sel[1].Test.Wild
}

// ResolveQualVars performs the bottom-up half of Procedure evalFT: given
// the root vectors reported by every fragment, it binds each fragment's QV
// and QDV variables to ground truth values. Fragments are processed in
// decreasing ID order; since a parent fragment always has a smaller ID than
// its sub-fragments, a fragment's formulas are ground by the time it is
// processed. The returned environment grounds every QV/QDV variable.
func ResolveQualVars(roots map[fragment.FragID]RootVecs, vs VarScheme) (*boolexpr.Env, error) {
	env := boolexpr.NewEnv()
	for id := fragment.FragID(vs.NumFrags - 1); id >= 0; id-- {
		rv, ok := roots[id]
		if !ok {
			return nil, fmt.Errorf("parbox: missing root vectors for fragment %d", id)
		}
		if len(rv.QV) != vs.NumPreds || len(rv.QDV) != vs.NumPreds {
			return nil, fmt.Errorf("parbox: fragment %d reported %d/%d entries, want %d",
				id, len(rv.QV), len(rv.QDV), vs.NumPreds)
		}
		for p := 0; p < vs.NumPreds; p++ {
			qv := env.Resolve(rv.QV[p])
			qdv := env.Resolve(rv.QDV[p])
			if qv.HasVars() || qdv.HasVars() {
				return nil, fmt.Errorf("parbox: fragment %d entry %d not ground after unification", id, p)
			}
			if err := env.Bind(vs.QV(id, p), qv); err != nil {
				return nil, fmt.Errorf("parbox: unifying fragment %d entry %d: %w", id, p, err)
			}
			if err := env.Bind(vs.QDV(id, p), qdv); err != nil {
				return nil, fmt.Errorf("parbox: unifying fragment %d entry %d: %w", id, p, err)
			}
		}
	}
	return env, nil
}
