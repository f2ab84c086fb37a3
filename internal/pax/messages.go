// The stage messages of the PaX protocols — the types that cross the
// coordinator/site wire. Binary bodies live in wiremsg.go; package docs in
// doc.go.

package pax

import (
	"fmt"
	"time"

	"paxq/internal/dist"
	"paxq/internal/fragment"
	"paxq/internal/xmltree"
)

// QueryID correlates the stage requests of one distributed evaluation.
type QueryID uint64

// WireVec is a vector of wire-encoded residual formulas (boolexpr.Encode).
type WireVec [][]byte

// WireRootVecs carries the qualifier partial answer of one fragment: the
// QV/QDV rows of its root (the triplet of §3.1, with QCV kept local).
// RootSelQual additionally carries the root node's per-selection-entry
// qualifier values; the coordinator consumes it for the root fragment when
// answering Boolean queries with the one-visit ParBoX protocol.
type WireRootVecs struct {
	Frag        fragment.FragID
	QV          WireVec
	QDV         WireVec
	RootSelQual WireVec
}

// WireContext carries the SVect context computed for one virtual node: the
// stack-top vector at the virtual node, which seeds the sub-fragment's
// traversal (Example 3.4).
type WireContext struct {
	Frag fragment.FragID // the sub-fragment the virtual node stands for
	SV   WireVec
}

// WireBoolVals carries the ground qualifier values of a sub-fragment's root
// back to the site holding the parent fragment (beginning of Stage 2,
// Fig. 4(a) lines 6-8).
type WireBoolVals struct {
	Frag fragment.FragID
	QV   []bool
	QDV  []bool
	// Known, when non-nil, masks entries whose values are meaningful. With
	// XA pruning a sub-fragment entry may remain unresolved when it depends
	// on a pruned fragment; such entries are provably never consumed by
	// live formulas and are skipped.
	Known []bool
}

// WireInit carries the ground stack-initialization vector for a fragment
// (Stage 3, Fig. 4(a) lines 15-16), or the concrete XA-derived vector of §5.
type WireInit struct {
	Frag fragment.FragID
	SV   []bool
}

// AnswerNode identifies one element of the query answer. Value carries the
// node's string value and XML optionally its serialized subtree, so the
// bytes shipped grow with the answer — the |ans| term of the paper's
// communication cost.
type AnswerNode struct {
	Frag  fragment.FragID
	Node  xmltree.NodeID
	Label string
	Value string
	XML   string
}

// QualStageReq asks a site to run the bottom-up qualifier pass (PaX3
// Stage 1) over its fragments. Final tells the site that no later stage of
// this query will visit it — the coordinator knows the relevance set
// before Stage 1 — so the site releases the query's session before it
// replies instead of holding it until sessionTTL.
type QualStageReq struct {
	QID      QueryID
	Query    string
	NumFrags int32
	Final    bool
}

// StageCompute carries a stage response's self-measured computation
// (summed over fragments evaluated in parallel). The transport consumes
// and zeroes it via TakeComputeCost before the response reaches the wire,
// so it never affects payload bytes. Embedded by every response type
// whose handler evaluates fragments.
type StageCompute struct {
	ComputeNanos int64
}

// TakeComputeCost implements dist.ComputeReporter.
func (c *StageCompute) TakeComputeCost() time.Duration {
	d := time.Duration(c.ComputeNanos)
	c.ComputeNanos = 0
	return d
}

// QualStageResp returns one root-vector pair per hosted fragment.
type QualStageResp struct {
	StageCompute
	Roots []WireRootVecs
}

// SelStageReq asks a site to run the top-down selection pass (PaX3
// Stage 2) over the listed fragments. VirtualQuals grounds the qualifier
// variables of the fragments' virtual nodes; Inits, when present, supplies
// concrete stack vectors (XA optimization) — otherwise non-root fragments
// seed their stacks with z variables.
type SelStageReq struct {
	QID          QueryID
	Query        string
	NumFrags     int32
	Frags        []fragment.FragID
	VirtualQuals []WireBoolVals
	Inits        []WireInit
	ShipXML      bool
}

// SelStageResp returns per-virtual-node contexts, the answers already known
// to be definite, and the fragments that retained candidate answers and
// therefore need Stage 3.
type SelStageResp struct {
	StageCompute
	Contexts   []WireContext
	Answers    []AnswerNode
	Candidates []fragment.FragID
}

// CombinedStageReq asks a site to run PaX2's single combined traversal
// (Fig. 5 Stage 1) over the listed fragments.
type CombinedStageReq struct {
	QID      QueryID
	Query    string
	NumFrags int32
	Frags    []fragment.FragID
	Inits    []WireInit
	ShipXML  bool
}

// CombinedStageResp returns the qualifier root vectors and selection
// contexts together, plus definite answers and candidate-bearing fragments.
type CombinedStageResp struct {
	StageCompute
	Roots      []WireRootVecs
	Contexts   []WireContext
	Answers    []AnswerNode
	Candidates []fragment.FragID
}

// AnsStageReq resolves retained candidates (PaX3 Stage 3 / PaX2 Stage 2):
// Inits grounds the z variables, Quals the sub-fragment qualifier variables
// that PaX2 candidates may still mention.
type AnsStageReq struct {
	QID   QueryID
	Inits []WireInit
	Quals []WireBoolVals
}

// AnsStageResp returns the remaining answers.
type AnsStageResp struct {
	Answers []AnswerNode
}

// BatchSub is one member of a batch envelope: a complete stage message in
// its binary body form, prefixed by its wire tag. In a BatchStageResp a
// zero Tag marks a failed member, with Body carrying the error text.
type BatchSub struct {
	Tag  dist.MsgTag
	Body []byte
}

// BatchStageReq carries several concurrent queries' stage requests to one
// site in a single round trip — the coordinator-side batching envelope
// (see batch.go). Members are independent: each Sub is a stage message of
// its own query, and member ordering is the coalescing order. Batch
// envelopes never nest.
type BatchStageReq struct {
	Subs []BatchSub
}

// BatchStageResp carries the per-member responses, index-aligned with the
// request's Subs. SubComputeNanos[i] is member i's self-reported
// computation, taken out of the member body before it was encoded (exactly
// as the transport does for a solo response, so member bodies stay
// byte-identical to solo responses); the coordinator uses it to attribute
// the batch call's measured compute to its members. The embedded
// StageCompute reports the members' sum to the transport.
type BatchStageResp struct {
	StageCompute
	Subs            []BatchSub
	SubComputeNanos []int64
}

// EditReq asks a site to apply one fragment edit (insert/delete/rename a
// subtree; see fragment.Edit) to its hosted copy of Frag. BaseVersion is
// the fragment version the edit was issued against: a site at BaseVersion
// applies and moves to BaseVersion+1, a site already at BaseVersion+1
// reports success without re-applying (the idempotent-retry case — the
// engine serializes edits, so version BaseVersion+1 can only be this very
// edit), and any other version is a conflict error. Subtree travels in
// WireNode form for inserts (HasSubtree marks presence); edit subtrees
// never contain virtual nodes.
type EditReq struct {
	Frag        fragment.FragID
	BaseVersion uint64
	Op          uint8 // fragment.EditOp
	Node        xmltree.NodeID
	Pos         int32
	Label       string
	HasSubtree  bool
	Subtree     WireNode
}

// EditResp reports an applied (or idempotently replayed) edit: the
// fragment's new version and whether this delivery applied it. Dropped,
// Retained and Patched are dead wire slots that sites always send as 0:
// they counted the fates of a Stage-1 cache that no longer exists, and
// they stay only because removing a slot is a codec version change.
type EditResp struct {
	StageCompute
	NewVersion uint64
	Applied    bool
	Dropped    int64
	Retained   int64
	Patched    int64
}

// FetchReq asks a site to ship its fragments wholesale (NaiveCentralized).
type FetchReq struct{}

// FetchResp carries entire fragments over the wire.
type FetchResp struct {
	Frags []WireFragment
}

// WireFragment is a whole fragment in wire form.
type WireFragment struct {
	ID   fragment.FragID
	Root WireNode
}

// WireNode is a tree node in wire form; virtual nodes carry the
// sub-fragment ID they stand for.
type WireNode struct {
	Kind     uint8
	Label    string
	Data     string
	Virtual  bool
	Frag     fragment.FragID
	Children []WireNode
}

// subtreeToWire converts a plain (fragment-free) subtree to wire form —
// the EditReq payload. Edit subtrees carry no virtual nodes by
// construction.
func subtreeToWire(n *xmltree.Node) WireNode {
	w := WireNode{Kind: uint8(n.Kind), Label: n.Label, Data: n.Data}
	for _, c := range n.Children {
		w.Children = append(w.Children, subtreeToWire(c))
	}
	return w
}

// wireToSubtree rebuilds an edit subtree from wire form. Virtual nodes are
// rejected: an edit cannot introduce fragmentation structure, and
// fragment.ApplyEdit's own '#'-label check would only catch the label,
// not the flag.
func wireToSubtree(w *WireNode) (*xmltree.Node, error) {
	if w.Virtual {
		return nil, fmt.Errorf("pax: edit subtree contains a virtual node")
	}
	n := &xmltree.Node{Kind: xmltree.NodeKind(w.Kind), Label: w.Label, Data: w.Data, ID: xmltree.NoID}
	for i := range w.Children {
		c, err := wireToSubtree(&w.Children[i])
		if err != nil {
			return nil, err
		}
		n.Append(c)
	}
	return n, nil
}

// toEdit converts the request's wire payload to a fragment.Edit.
func (m *EditReq) toEdit() (fragment.Edit, error) {
	e := fragment.Edit{
		Op:    fragment.EditOp(m.Op),
		Node:  m.Node,
		Pos:   int(m.Pos),
		Label: m.Label,
	}
	if m.HasSubtree {
		sub, err := wireToSubtree(&m.Subtree)
		if err != nil {
			return fragment.Edit{}, err
		}
		e.Subtree = sub
	}
	return e, nil
}

// toWireNode converts a fragment subtree to wire form.
func toWireNode(f *fragment.Fragment, n *xmltree.Node) WireNode {
	w := WireNode{Kind: uint8(n.Kind), Label: n.Label, Data: n.Data}
	if k, ok := f.VirtualAt(n.ID); ok {
		w.Virtual = true
		w.Frag = k
		w.Label = ""
		return w
	}
	for _, c := range n.Children {
		w.Children = append(w.Children, toWireNode(f, c))
	}
	return w
}
