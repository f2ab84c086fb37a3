// The stage messages of the PaX protocols — the types that cross the
// coordinator/site wire. Binary bodies live in wiremsg.go; package docs in
// doc.go.

package pax

import (
	"fmt"

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

// QualStageResp returns one root-vector pair per hosted fragment.
type QualStageResp struct {
	Roots []WireRootVecs
}

// SelStageReq asks a site to run the top-down selection pass (PaX3
// Stage 2) over the listed fragments. VirtualQuals grounds the qualifier
// variables of the fragments' virtual nodes; Inits, when present, supplies
// concrete stack vectors (XA optimization) — otherwise non-root fragments
// seed their stacks with z variables. Stitch, set only with ShipXML, says
// the query's answers may hold stubs: the site reports the sub-fragments
// below its answers and candidates, and keeps the query's session — its
// fragment snapshot — until the final stage, which always visits it.
type SelStageReq struct {
	QID          QueryID
	Query        string
	NumFrags     int32
	Frags        []fragment.FragID
	VirtualQuals []WireBoolVals
	Inits        []WireInit
	ShipXML      bool
	Stitch       bool
}

// SelStageResp returns per-virtual-node contexts, the answers already known
// to be definite, and the fragments that retained candidate answers and
// therefore need Stage 3. Under Stitch, Below lists the sub-fragments
// whose virtual nodes lie in the subtree of an answer or a candidate: the
// stubs in the answers' XML whose bodies the final stage fetches.
type SelStageResp struct {
	Contexts   []WireContext
	Answers    []AnswerNode
	Candidates []fragment.FragID
	Below      []fragment.FragID
}

// CombinedStageReq asks a site to run PaX2's combined visit (Fig. 5
// Stage 1) over the listed fragments: per fragment, the Stage-1 qualifier
// pass and the selection traversal, with qualifier values left symbolic in
// the sub-fragment variables. Stitch is SelStageReq's.
type CombinedStageReq struct {
	QID      QueryID
	Query    string
	NumFrags int32
	Frags    []fragment.FragID
	Inits    []WireInit
	ShipXML  bool
	Stitch   bool
}

// CombinedStageResp returns the qualifier root vectors and selection
// contexts together, plus definite answers, candidate-bearing fragments
// and, under Stitch, the sub-fragments below them (see SelStageResp).
type CombinedStageResp struct {
	Roots      []WireRootVecs
	Contexts   []WireContext
	Answers    []AnswerNode
	Candidates []fragment.FragID
	Below      []fragment.FragID
}

// AnsStageReq is a query's final stage (PaX3 Stage 3 / PaX2 Stage 2). It
// resolves retained candidates: Inits grounds the z variables, Quals the
// sub-fragment qualifier variables that PaX2 candidates may still
// mention. Under Stitch, Bodies lists the hosted fragments whose file
// forms the coordinator stitches into answers, read from the query's
// session. A site the query has not visited before holds no session: its
// request carries Query and NumFrags, and the site opens the session —
// snapshots its fragments — on arrival.
type AnsStageReq struct {
	QID      QueryID
	Query    string
	NumFrags int32
	Inits    []WireInit
	Quals    []WireBoolVals
	Bodies   []fragment.FragID
}

// AnsStageResp returns the remaining answers and the requested fragment
// bodies.
type AnsStageResp struct {
	Answers []AnswerNode
	Bodies  []WireFragment
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
// request's Subs. SubComputeNanos[i] is the time the site spent on member
// i — the transport measures only the whole envelope — and the coordinator
// uses it to attribute the batch call's measured compute to its members.
// Member bodies are byte-identical to solo responses.
type BatchStageResp struct {
	Subs            []BatchSub
	SubComputeNanos []int64
}

// EditReq asks a site to apply one fragment edit (insert/delete/rename a
// subtree; see fragment.Edit) to its hosted copy of Frag. BaseVersion is
// the fragment version the edit was issued against: a site at BaseVersion
// applies and moves to BaseVersion+1, a site already at BaseVersion+1
// reports success without re-applying (the idempotent-retry case — the
// engine serializes edits, so version BaseVersion+1 can only be this very
// edit), and any other version is a conflict error. SubtreeXML carries an
// insert's subtree as XML text (xmltree.SerializeString), which the site
// parses only once the version check says the edit applies; it is empty
// for deletes and renames.
type EditReq struct {
	Frag        fragment.FragID
	BaseVersion uint64
	Op          uint8 // fragment.EditOp
	Node        xmltree.NodeID
	Pos         int32
	Label       string
	SubtreeXML  string
}

// EditResp reports an applied (or idempotently replayed) edit: the
// fragment's new version and whether this delivery applied it.
type EditResp struct {
	NewVersion uint64
	Applied    bool
}

// FetchReq asks a site to ship its fragments wholesale (NaiveCentralized).
type FetchReq struct{}

// FetchResp carries entire fragments over the wire.
type FetchResp struct {
	Frags []WireFragment
}

// WireFragment is a whole fragment in its file form (fragment.Fragment.XML,
// what Save writes), virtual nodes as <fragment-ref ref="K"/> elements: a
// NaiveCentralized fetch, or a body for ShipXML answers.
type WireFragment struct {
	ID  fragment.FragID
	XML string
}

// toEdit converts the request's wire payload to a fragment.Edit, parsing
// an insert's subtree. A payload that does not parse is ErrBadSubtree,
// wrapping the parser's error (xmltree.ErrTooDeep for one nested past
// xmltree.MaxDepth).
func (m *EditReq) toEdit() (fragment.Edit, error) {
	e := fragment.Edit{
		Op:    fragment.EditOp(m.Op),
		Node:  m.Node,
		Pos:   int(m.Pos),
		Label: m.Label,
	}
	if e.Op == fragment.EditInsert {
		t, err := xmltree.ParseString(m.SubtreeXML)
		if err != nil {
			return fragment.Edit{}, fmt.Errorf("%w: %w", fragment.ErrBadSubtree, err)
		}
		e.Subtree = t.Root
	}
	return e, nil
}
