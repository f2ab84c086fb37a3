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
// QV/QDV rows of its root (the triplet of §3.1, with QCV kept local), and
// the fragment version they were computed on, which every later request
// of the query that reads the fragment names. RootSelQual additionally
// carries the root node's per-selection-entry qualifier values; the
// coordinator consumes it for the root fragment when answering Boolean
// queries with the one-visit ParBoX protocol.
type WireRootVecs struct {
	Frag        fragment.FragID
	Version     uint64
	QV          WireVec
	QDV         WireVec
	RootSelQual WireVec
}

// WireVersion names the version of a fragment that a stage of the query
// read.
type WireVersion struct {
	Frag    fragment.FragID
	Version uint64
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
// Stage 1) over the current version of each of its fragments.
type QualStageReq struct {
	QID      QueryID
	Query    string
	NumFrags int32
}

// QualStageResp returns one root-vector pair per hosted fragment, each
// with the fragment version it read.
type QualStageResp struct {
	Roots []WireRootVecs
}

// SelStageReq asks a site to run the top-down selection pass (PaX3
// Stage 2) over the listed fragments. Versions names the version of each
// fragment the qualifier stage read; the site reads a fragment it does
// not name at its current version. VirtualQuals grounds the qualifier variables of the fragments' virtual
// nodes; Inits, when present, supplies concrete stack vectors (XA
// optimization) — otherwise non-root fragments seed their stacks with z
// variables. Stitch, set only with ShipXML, says the query's answers may
// hold stubs: the site reports the sub-fragments below its answers and
// candidates.
type SelStageReq struct {
	QID          QueryID
	Query        string
	NumFrags     int32
	Frags        []fragment.FragID
	Versions     []WireVersion
	VirtualQuals []WireBoolVals
	Inits        []WireInit
	ShipXML      bool
	Stitch       bool
}

// SelStageResp returns per-virtual-node contexts, the answers already known
// to be definite, and the fragments that hold candidate answers and
// therefore need Stage 3. Under Stitch, Below lists the sub-fragments
// whose virtual nodes lie in the subtree of an answer or a candidate: the
// stubs in the answers' XML whose bodies the final stage fetches. When
// the request named no version, Versions reports the ones read.
type SelStageResp struct {
	Contexts   []WireContext
	Answers    []AnswerNode
	Candidates []fragment.FragID
	Below      []fragment.FragID
	Versions   []WireVersion
}

// CombinedStageReq asks a site to run PaX2's combined visit (Fig. 5
// Stage 1) over the current version of each listed fragment: per
// fragment, the Stage-1 qualifier pass and the selection traversal, with
// qualifier values left symbolic in the sub-fragment variables. Stitch is
// SelStageReq's.
type CombinedStageReq struct {
	QID      QueryID
	Query    string
	NumFrags int32
	Frags    []fragment.FragID
	Inits    []WireInit
	ShipXML  bool
	Stitch   bool
}

// CombinedStageResp returns the qualifier root vectors, with the versions
// read, and selection contexts together, plus definite answers,
// candidate-bearing fragments and, under Stitch, the sub-fragments below
// them (see SelStageResp). A fragment that holds a candidate ships no
// answers here: the final stage ships all of them.
type CombinedStageResp struct {
	Roots      []WireRootVecs
	Contexts   []WireContext
	Answers    []AnswerNode
	Candidates []fragment.FragID
	Below      []fragment.FragID
}

// AnsStageReq is a query's final stage (PaX3 Stage 3 / PaX2 Stage 2). It
// walks the candidate-bearing fragments of Inits again, under their
// ground init vectors and the ground qualifier values of their
// sub-fragments in Quals, and ships their answers, with their XML under
// ShipXML. Under Stitch, Bodies
// lists the hosted fragments whose file forms the coordinator stitches
// into answers. Versions names the version of every fragment of Inits
// and Bodies that an earlier stage of the query read; the site reads a
// fragment it does not name at its current version.
type AnsStageReq struct {
	QID      QueryID
	Query    string
	NumFrags int32
	Inits    []WireInit
	Quals    []WireBoolVals
	ShipXML  bool
	Bodies   []fragment.FragID
	Versions []WireVersion
}

// AnsStageResp returns the remaining answers and the requested fragment
// bodies.
type AnsStageResp struct {
	Answers []AnswerNode
	Bodies  []WireFragment
}

// BatchStageReq and BatchSub are what is left of the retired multi-query
// batch envelope: bare declarations with no wire tag, codec or handler. No
// site or coordinator sends or accepts them. Only the benchmark's tracer
// (bench/trace.go) still names them; they go with that reference (ROADMAP
// item 2b).
type BatchStageReq struct {
	Subs []BatchSub
}

// BatchSub is a member of a BatchStageReq (see there).
type BatchSub struct {
	Tag  dist.MsgTag
	Body []byte
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
