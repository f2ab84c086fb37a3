package pax

import (
	"encoding/binary"
	"fmt"
	"math"

	"paxq/internal/dist"
	"paxq/internal/fragment"
	"paxq/internal/wirefmt"
	"paxq/internal/xmltree"
)

// Hand-written binary bodies for every stage message. Residual formulas
// travel in their boolexpr postfix encoding (WireVec entries are
// already encoded bytes), so the dominant payload term is exactly the
// O(|residual formulas|) quantity of the paper's communication bound; the
// envelope adds a tag and a handful of varints, not type descriptors.
//
// Wire tags. Part of the protocol: renumbering is a wire-format break.
const (
	tagQualStageReq dist.MsgTag = iota + 1
	tagQualStageResp
	tagSelStageReq
	tagSelStageResp
	tagCombinedStageReq
	tagCombinedStageResp
	tagAnsStageReq
	tagAnsStageResp
	tagFetchReq
	tagFetchResp
	tagBatchStageReq
	tagBatchStageResp
	tagEditReq
	tagEditResp
)

func init() {
	dist.RegisterBinary(func() dist.BinaryMessage { return new(QualStageReq) })
	dist.RegisterBinary(func() dist.BinaryMessage { return new(QualStageResp) })
	dist.RegisterBinary(func() dist.BinaryMessage { return new(SelStageReq) })
	dist.RegisterBinary(func() dist.BinaryMessage { return new(SelStageResp) })
	dist.RegisterBinary(func() dist.BinaryMessage { return new(CombinedStageReq) })
	dist.RegisterBinary(func() dist.BinaryMessage { return new(CombinedStageResp) })
	dist.RegisterBinary(func() dist.BinaryMessage { return new(AnsStageReq) })
	dist.RegisterBinary(func() dist.BinaryMessage { return new(AnsStageResp) })
	dist.RegisterBinary(func() dist.BinaryMessage { return new(FetchReq) })
	dist.RegisterBinary(func() dist.BinaryMessage { return new(FetchResp) })
	dist.RegisterBinary(func() dist.BinaryMessage { return new(BatchStageReq) })
	dist.RegisterBinary(func() dist.BinaryMessage { return new(BatchStageResp) })
	dist.RegisterBinary(func() dist.BinaryMessage { return new(EditReq) })
	dist.RegisterBinary(func() dist.BinaryMessage { return new(EditResp) })
}

// newStageMessage constructs the empty message for an inner batch tag. Batch
// tags themselves are excluded — envelopes never nest — so a nested batch
// is rejected at decode like any unknown tag.
func newStageMessage(tag dist.MsgTag) dist.BinaryMessage {
	switch tag {
	case tagQualStageReq:
		return new(QualStageReq)
	case tagQualStageResp:
		return new(QualStageResp)
	case tagSelStageReq:
		return new(SelStageReq)
	case tagSelStageResp:
		return new(SelStageResp)
	case tagCombinedStageReq:
		return new(CombinedStageReq)
	case tagCombinedStageResp:
		return new(CombinedStageResp)
	case tagAnsStageReq:
		return new(AnsStageReq)
	case tagAnsStageResp:
		return new(AnsStageResp)
	case tagFetchReq:
		return new(FetchReq)
	case tagFetchResp:
		return new(FetchResp)
	}
	return nil
}

// reader is a sticky-error consumer over a message body. It keeps decode
// code linear: check r.done() once at the end instead of after every
// field. Byte-slice fields alias the input (the transport never recycles
// received frames); strings and bool slices are fresh.
type reader struct {
	p   []byte
	err error
}

func (r *reader) fail(err error) {
	if r.err == nil {
		r.err = err
	}
}

func (r *reader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, rest, err := wirefmt.Uvarint(r.p)
	if err != nil {
		r.fail(err)
		return 0
	}
	r.p = rest
	return v
}

// count reads an element count and sanity-bounds it by the bytes left:
// every element costs at least one byte, so a larger count is corruption
// and must not size an allocation.
func (r *reader) count() int {
	n := r.uvarint()
	if r.err == nil && n > uint64(len(r.p)) {
		r.fail(fmt.Errorf("%w: %d elements announced, %d bytes left", wirefmt.ErrMalformed, n, len(r.p)))
		return 0
	}
	return int(n)
}

// maxEagerElems caps the capacity allocated up front for an announced
// element count. count() bounds n by the bytes left at one byte per
// element, but decoded elements are tens of bytes of struct each — a
// hostile count inside a large frame could otherwise amplify a few MB of
// filler into gigabytes of slice header. Beyond the cap, slices grow by
// append as elements actually decode, so allocation stays proportional
// to bytes received.
const maxEagerElems = 4096

func eagerCap(n int) int {
	if n > maxEagerElems {
		return maxEagerElems
	}
	return n
}

// int32 decodes a value the encoders ship via uint32 truncation
// (fragment/node IDs, fragment counts). The full uint32 range
// round-trips, so the negative sentinels (fragment.NoFrag, xmltree.NoID
// — both -1) decode back to exactly what was encoded; only values a
// uint32 cannot hold are corrupt.
func (r *reader) int32() int32 {
	v := r.uvarint()
	if r.err == nil && v > math.MaxUint32 {
		r.fail(fmt.Errorf("%w: value %d overflows uint32", wirefmt.ErrMalformed, v))
		return 0
	}
	return int32(uint32(v))
}

func (r *reader) int64() int64 {
	v := r.uvarint()
	if r.err == nil && v > math.MaxInt64 {
		r.fail(fmt.Errorf("%w: value %d overflows int64", wirefmt.ErrMalformed, v))
		return 0
	}
	return int64(v)
}

func (r *reader) fragID() fragment.FragID { return fragment.FragID(r.int32()) }

func (r *reader) bool() bool {
	if r.err != nil {
		return false
	}
	v, rest, err := wirefmt.Bool(r.p)
	if err != nil {
		r.fail(err)
		return false
	}
	r.p = rest
	return v
}

func (r *reader) str() string {
	if r.err != nil {
		return ""
	}
	v, rest, err := wirefmt.String(r.p)
	if err != nil {
		r.fail(err)
		return ""
	}
	r.p = rest
	return v
}

func (r *reader) bytes() []byte {
	if r.err != nil {
		return nil
	}
	v, rest, err := wirefmt.Bytes(r.p)
	if err != nil {
		r.fail(err)
		return nil
	}
	r.p = rest
	return v
}

func (r *reader) bools() []bool {
	if r.err != nil {
		return nil
	}
	v, rest, err := wirefmt.Bools(r.p)
	if err != nil {
		r.fail(err)
		return nil
	}
	r.p = rest
	return v
}

// done reports the sticky error, or trailing garbage — a body must be
// consumed exactly.
func (r *reader) done() error {
	if r.err != nil {
		return r.err
	}
	if len(r.p) != 0 {
		return fmt.Errorf("%w: %d trailing bytes", wirefmt.ErrMalformed, len(r.p))
	}
	return nil
}

func appendFragID(dst []byte, id fragment.FragID) []byte {
	return wirefmt.AppendUvarint(dst, uint64(uint32(id)))
}

func appendFragIDs(dst []byte, ids []fragment.FragID) []byte {
	dst = wirefmt.AppendUvarint(dst, uint64(len(ids)))
	for _, id := range ids {
		dst = appendFragID(dst, id)
	}
	return dst
}

func (r *reader) fragIDs() []fragment.FragID {
	n := r.count()
	if r.err != nil || n == 0 {
		return nil
	}
	out := make([]fragment.FragID, 0, eagerCap(n))
	for i := 0; i < n && r.err == nil; i++ {
		out = append(out, r.fragID())
	}
	return out
}

func appendWireVec(dst []byte, v WireVec) []byte {
	dst = wirefmt.AppendUvarint(dst, uint64(len(v)))
	for _, b := range v {
		dst = wirefmt.AppendBytes(dst, b)
	}
	return dst
}

func (r *reader) wireVec() WireVec {
	n := r.count()
	if r.err != nil || n == 0 {
		return nil
	}
	out := make(WireVec, 0, eagerCap(n))
	for i := 0; i < n && r.err == nil; i++ {
		out = append(out, r.bytes())
	}
	return out
}

func appendRootVecs(dst []byte, v WireRootVecs) []byte {
	dst = appendFragID(dst, v.Frag)
	dst = appendWireVec(dst, v.QV)
	dst = appendWireVec(dst, v.QDV)
	return appendWireVec(dst, v.RootSelQual)
}

func (r *reader) rootVecs() WireRootVecs {
	return WireRootVecs{Frag: r.fragID(), QV: r.wireVec(), QDV: r.wireVec(), RootSelQual: r.wireVec()}
}

func appendRootVecsSlice(dst []byte, vs []WireRootVecs) []byte {
	dst = wirefmt.AppendUvarint(dst, uint64(len(vs)))
	for _, v := range vs {
		dst = appendRootVecs(dst, v)
	}
	return dst
}

func (r *reader) rootVecsSlice() []WireRootVecs {
	n := r.count()
	if r.err != nil || n == 0 {
		return nil
	}
	out := make([]WireRootVecs, 0, eagerCap(n))
	for i := 0; i < n && r.err == nil; i++ {
		out = append(out, r.rootVecs())
	}
	return out
}

func appendContexts(dst []byte, cs []WireContext) []byte {
	dst = wirefmt.AppendUvarint(dst, uint64(len(cs)))
	for _, c := range cs {
		dst = appendFragID(dst, c.Frag)
		dst = appendWireVec(dst, c.SV)
	}
	return dst
}

func (r *reader) contexts() []WireContext {
	n := r.count()
	if r.err != nil || n == 0 {
		return nil
	}
	out := make([]WireContext, 0, eagerCap(n))
	for i := 0; i < n && r.err == nil; i++ {
		out = append(out, WireContext{Frag: r.fragID(), SV: r.wireVec()})
	}
	return out
}

// appendBoolVals encodes a WireBoolVals. Known carries a presence byte:
// an absent mask means "every entry meaningful" and must survive the
// round trip distinct from an all-false mask. Presence is keyed on
// length, not nil-ness: a query whose qualifiers compile to zero path
// predicates ships a non-nil empty mask, which consumers cannot
// distinguish from nil (no entry is ever consulted) — encoding it as
// absent keeps the wire canonical.
func appendBoolVals(dst []byte, v WireBoolVals) []byte {
	dst = appendFragID(dst, v.Frag)
	dst = wirefmt.AppendBools(dst, v.QV)
	dst = wirefmt.AppendBools(dst, v.QDV)
	dst = wirefmt.AppendBool(dst, len(v.Known) > 0)
	if len(v.Known) > 0 {
		dst = wirefmt.AppendBools(dst, v.Known)
	}
	return dst
}

func (r *reader) boolVals() WireBoolVals {
	v := WireBoolVals{Frag: r.fragID(), QV: r.bools(), QDV: r.bools()}
	if r.bool() {
		v.Known = r.bools()
		if v.Known == nil && r.err == nil {
			// The encoder never marks an empty mask present; a peer that
			// does is corrupt.
			r.fail(fmt.Errorf("%w: present Known mask is empty", wirefmt.ErrMalformed))
		}
	}
	return v
}

func appendBoolValsSlice(dst []byte, vs []WireBoolVals) []byte {
	dst = wirefmt.AppendUvarint(dst, uint64(len(vs)))
	for _, v := range vs {
		dst = appendBoolVals(dst, v)
	}
	return dst
}

func (r *reader) boolValsSlice() []WireBoolVals {
	n := r.count()
	if r.err != nil || n == 0 {
		return nil
	}
	out := make([]WireBoolVals, 0, eagerCap(n))
	for i := 0; i < n && r.err == nil; i++ {
		out = append(out, r.boolVals())
	}
	return out
}

func appendInits(dst []byte, is []WireInit) []byte {
	dst = wirefmt.AppendUvarint(dst, uint64(len(is)))
	for _, in := range is {
		dst = appendFragID(dst, in.Frag)
		dst = wirefmt.AppendBools(dst, in.SV)
	}
	return dst
}

func (r *reader) inits() []WireInit {
	n := r.count()
	if r.err != nil || n == 0 {
		return nil
	}
	out := make([]WireInit, 0, eagerCap(n))
	for i := 0; i < n && r.err == nil; i++ {
		out = append(out, WireInit{Frag: r.fragID(), SV: r.bools()})
	}
	return out
}

func appendAnswers(dst []byte, as []AnswerNode) []byte {
	dst = wirefmt.AppendUvarint(dst, uint64(len(as)))
	for _, a := range as {
		dst = appendFragID(dst, a.Frag)
		dst = wirefmt.AppendUvarint(dst, uint64(uint32(a.Node)))
		dst = wirefmt.AppendString(dst, a.Label)
		dst = wirefmt.AppendString(dst, a.Value)
		dst = wirefmt.AppendString(dst, a.XML)
	}
	return dst
}

func (r *reader) answers() []AnswerNode {
	n := r.count()
	if r.err != nil || n == 0 {
		return nil
	}
	out := make([]AnswerNode, 0, eagerCap(n))
	for i := 0; i < n && r.err == nil; i++ {
		out = append(out, AnswerNode{
			Frag:  r.fragID(),
			Node:  xmltree.NodeID(r.int32()),
			Label: r.str(),
			Value: r.str(),
			XML:   r.str(),
		})
	}
	return out
}

// maxNodeDepth bounds WireNode tree nesting on both the encode and the
// decode side, so the recursion is depth-safe symmetrically: a tree that
// encodes also decodes. Unreachable for legitimate documents —
// encoding/xml (which xmltree.Parse builds on) caps element nesting at
// 10k — so hitting it means a corrupt payload or a hand-built tree.
const maxNodeDepth = 1 << 16

func appendWireNode(dst []byte, n *WireNode, depth int) ([]byte, error) {
	if depth > maxNodeDepth {
		return nil, fmt.Errorf("%w: fragment tree deeper than %d", wirefmt.ErrMalformed, maxNodeDepth)
	}
	dst = append(dst, n.Kind)
	dst = wirefmt.AppendString(dst, n.Label)
	dst = wirefmt.AppendString(dst, n.Data)
	dst = wirefmt.AppendBool(dst, n.Virtual)
	dst = appendFragID(dst, n.Frag)
	dst = wirefmt.AppendUvarint(dst, uint64(len(n.Children)))
	var err error
	for i := range n.Children {
		if dst, err = appendWireNode(dst, &n.Children[i], depth+1); err != nil {
			return nil, err
		}
	}
	return dst, nil
}

func (r *reader) wireNode(n *WireNode, depth int) {
	// Depth guard: the decoder recurses over the announced tree, so a
	// crafted deeply-nested payload must fail, not exhaust the stack.
	if r.err != nil {
		return
	}
	if depth > maxNodeDepth {
		r.fail(fmt.Errorf("%w: fragment tree deeper than %d", wirefmt.ErrMalformed, maxNodeDepth))
		return
	}
	if len(r.p) == 0 {
		r.fail(fmt.Errorf("%w: missing node kind", wirefmt.ErrTruncated))
		return
	}
	n.Kind = r.p[0]
	r.p = r.p[1:]
	n.Label = r.str()
	n.Data = r.str()
	n.Virtual = r.bool()
	n.Frag = r.fragID()
	kids := r.count()
	if r.err != nil || kids == 0 {
		return
	}
	n.Children = make([]WireNode, 0, eagerCap(kids))
	for i := 0; i < kids && r.err == nil; i++ {
		var c WireNode
		r.wireNode(&c, depth+1)
		n.Children = append(n.Children, c)
	}
}

// --- message bodies -------------------------------------------------------

// WireTag implements dist.BinaryMessage.
func (m *QualStageReq) WireTag() dist.MsgTag { return tagQualStageReq }

// AppendBinary implements dist.BinaryMessage.
func (m *QualStageReq) AppendBinary(dst []byte) ([]byte, error) {
	dst = wirefmt.AppendUvarint(dst, uint64(m.QID))
	dst = wirefmt.AppendString(dst, m.Query)
	dst = wirefmt.AppendUvarint(dst, uint64(uint32(m.NumFrags)))
	return wirefmt.AppendBool(dst, m.Final), nil
}

// DecodeBinary implements dist.BinaryMessage.
func (m *QualStageReq) DecodeBinary(p []byte) error {
	r := reader{p: p}
	m.QID = QueryID(r.uvarint())
	m.Query = r.str()
	m.NumFrags = r.int32()
	m.Final = r.bool()
	return r.done()
}

// WireTag implements dist.BinaryMessage.
func (m *QualStageResp) WireTag() dist.MsgTag { return tagQualStageResp }

// AppendBinary implements dist.BinaryMessage.
func (m *QualStageResp) AppendBinary(dst []byte) ([]byte, error) {
	dst = wirefmt.AppendUvarint(dst, uint64(m.ComputeNanos))
	return appendRootVecsSlice(dst, m.Roots), nil
}

// DecodeBinary implements dist.BinaryMessage.
func (m *QualStageResp) DecodeBinary(p []byte) error {
	r := reader{p: p}
	m.ComputeNanos = r.int64()
	m.Roots = r.rootVecsSlice()
	return r.done()
}

// WireTag implements dist.BinaryMessage.
func (m *SelStageReq) WireTag() dist.MsgTag { return tagSelStageReq }

// AppendBinary implements dist.BinaryMessage.
func (m *SelStageReq) AppendBinary(dst []byte) ([]byte, error) {
	dst = wirefmt.AppendUvarint(dst, uint64(m.QID))
	dst = wirefmt.AppendString(dst, m.Query)
	dst = wirefmt.AppendUvarint(dst, uint64(uint32(m.NumFrags)))
	dst = appendFragIDs(dst, m.Frags)
	dst = appendBoolValsSlice(dst, m.VirtualQuals)
	dst = appendInits(dst, m.Inits)
	return wirefmt.AppendBool(dst, m.ShipXML), nil
}

// DecodeBinary implements dist.BinaryMessage.
func (m *SelStageReq) DecodeBinary(p []byte) error {
	r := reader{p: p}
	m.QID = QueryID(r.uvarint())
	m.Query = r.str()
	m.NumFrags = r.int32()
	m.Frags = r.fragIDs()
	m.VirtualQuals = r.boolValsSlice()
	m.Inits = r.inits()
	m.ShipXML = r.bool()
	return r.done()
}

// WireTag implements dist.BinaryMessage.
func (m *SelStageResp) WireTag() dist.MsgTag { return tagSelStageResp }

// AppendBinary implements dist.BinaryMessage.
func (m *SelStageResp) AppendBinary(dst []byte) ([]byte, error) {
	dst = wirefmt.AppendUvarint(dst, uint64(m.ComputeNanos))
	dst = appendContexts(dst, m.Contexts)
	dst = appendAnswers(dst, m.Answers)
	return appendFragIDs(dst, m.Candidates), nil
}

// DecodeBinary implements dist.BinaryMessage.
func (m *SelStageResp) DecodeBinary(p []byte) error {
	r := reader{p: p}
	m.ComputeNanos = r.int64()
	m.Contexts = r.contexts()
	m.Answers = r.answers()
	m.Candidates = r.fragIDs()
	return r.done()
}

// WireTag implements dist.BinaryMessage.
func (m *CombinedStageReq) WireTag() dist.MsgTag { return tagCombinedStageReq }

// AppendBinary implements dist.BinaryMessage.
func (m *CombinedStageReq) AppendBinary(dst []byte) ([]byte, error) {
	dst = wirefmt.AppendUvarint(dst, uint64(m.QID))
	dst = wirefmt.AppendString(dst, m.Query)
	dst = wirefmt.AppendUvarint(dst, uint64(uint32(m.NumFrags)))
	dst = appendFragIDs(dst, m.Frags)
	dst = appendInits(dst, m.Inits)
	return wirefmt.AppendBool(dst, m.ShipXML), nil
}

// DecodeBinary implements dist.BinaryMessage.
func (m *CombinedStageReq) DecodeBinary(p []byte) error {
	r := reader{p: p}
	m.QID = QueryID(r.uvarint())
	m.Query = r.str()
	m.NumFrags = r.int32()
	m.Frags = r.fragIDs()
	m.Inits = r.inits()
	m.ShipXML = r.bool()
	return r.done()
}

// WireTag implements dist.BinaryMessage.
func (m *CombinedStageResp) WireTag() dist.MsgTag { return tagCombinedStageResp }

// AppendBinary implements dist.BinaryMessage.
func (m *CombinedStageResp) AppendBinary(dst []byte) ([]byte, error) {
	dst = wirefmt.AppendUvarint(dst, uint64(m.ComputeNanos))
	dst = appendRootVecsSlice(dst, m.Roots)
	dst = appendContexts(dst, m.Contexts)
	dst = appendAnswers(dst, m.Answers)
	return appendFragIDs(dst, m.Candidates), nil
}

// DecodeBinary implements dist.BinaryMessage.
func (m *CombinedStageResp) DecodeBinary(p []byte) error {
	r := reader{p: p}
	m.ComputeNanos = r.int64()
	m.Roots = r.rootVecsSlice()
	m.Contexts = r.contexts()
	m.Answers = r.answers()
	m.Candidates = r.fragIDs()
	return r.done()
}

// WireTag implements dist.BinaryMessage.
func (m *AnsStageReq) WireTag() dist.MsgTag { return tagAnsStageReq }

// AppendBinary implements dist.BinaryMessage.
func (m *AnsStageReq) AppendBinary(dst []byte) ([]byte, error) {
	dst = wirefmt.AppendUvarint(dst, uint64(m.QID))
	dst = appendInits(dst, m.Inits)
	return appendBoolValsSlice(dst, m.Quals), nil
}

// DecodeBinary implements dist.BinaryMessage.
func (m *AnsStageReq) DecodeBinary(p []byte) error {
	r := reader{p: p}
	m.QID = QueryID(r.uvarint())
	m.Inits = r.inits()
	m.Quals = r.boolValsSlice()
	return r.done()
}

// WireTag implements dist.BinaryMessage.
func (m *AnsStageResp) WireTag() dist.MsgTag { return tagAnsStageResp }

// AppendBinary implements dist.BinaryMessage.
func (m *AnsStageResp) AppendBinary(dst []byte) ([]byte, error) {
	return appendAnswers(dst, m.Answers), nil
}

// DecodeBinary implements dist.BinaryMessage.
func (m *AnsStageResp) DecodeBinary(p []byte) error {
	r := reader{p: p}
	m.Answers = r.answers()
	return r.done()
}

// WireTag implements dist.BinaryMessage.
func (m *FetchReq) WireTag() dist.MsgTag { return tagFetchReq }

// AppendBinary implements dist.BinaryMessage.
func (m *FetchReq) AppendBinary(dst []byte) ([]byte, error) { return dst, nil }

// DecodeBinary implements dist.BinaryMessage.
func (m *FetchReq) DecodeBinary(p []byte) error {
	r := reader{p: p}
	return r.done()
}

// WireTag implements dist.BinaryMessage.
func (m *FetchResp) WireTag() dist.MsgTag { return tagFetchResp }

// AppendBinary implements dist.BinaryMessage.
func (m *FetchResp) AppendBinary(dst []byte) ([]byte, error) {
	dst = wirefmt.AppendUvarint(dst, uint64(len(m.Frags)))
	var err error
	for i := range m.Frags {
		dst = appendFragID(dst, m.Frags[i].ID)
		if dst, err = appendWireNode(dst, &m.Frags[i].Root, 0); err != nil {
			return nil, err
		}
	}
	return dst, nil
}

// DecodeBinary implements dist.BinaryMessage.
func (m *FetchResp) DecodeBinary(p []byte) error {
	r := reader{p: p}
	n := r.count()
	if r.err == nil && n > 0 {
		m.Frags = make([]WireFragment, 0, eagerCap(n))
		for i := 0; i < n && r.err == nil; i++ {
			var f WireFragment
			f.ID = r.fragID()
			r.wireNode(&f.Root, 0)
			m.Frags = append(m.Frags, f)
		}
	}
	return r.done()
}

// fixed64 reads an 8-byte big-endian value. SubComputeNanos travels fixed
// width, not varint: its values change run to run (they are timings), and a
// varint encoding would make the envelope length vary with them.
func (r *reader) fixed64() int64 {
	if r.err != nil {
		return 0
	}
	if len(r.p) < 8 {
		r.fail(fmt.Errorf("%w: fixed64", wirefmt.ErrTruncated))
		return 0
	}
	v := binary.BigEndian.Uint64(r.p[:8])
	r.p = r.p[8:]
	return int64(v)
}

func appendSubs(dst []byte, subs []BatchSub) []byte {
	dst = wirefmt.AppendUvarint(dst, uint64(len(subs)))
	for _, sub := range subs {
		dst = wirefmt.AppendUvarint(dst, uint64(sub.Tag))
		dst = wirefmt.AppendBytes(dst, sub.Body)
	}
	return dst
}

func (r *reader) subs() []BatchSub {
	n := r.count()
	if r.err != nil || n == 0 {
		return nil
	}
	out := make([]BatchSub, 0, eagerCap(n))
	for i := 0; i < n && r.err == nil; i++ {
		tag := r.uvarint()
		if r.err == nil && tag > math.MaxUint32 {
			r.fail(fmt.Errorf("%w: sub tag %d overflows uint32", wirefmt.ErrMalformed, tag))
			break
		}
		out = append(out, BatchSub{Tag: dist.MsgTag(tag), Body: r.bytes()})
	}
	return out
}

// WireTag implements dist.BinaryMessage.
func (m *BatchStageReq) WireTag() dist.MsgTag { return tagBatchStageReq }

// AppendBinary implements dist.BinaryMessage.
func (m *BatchStageReq) AppendBinary(dst []byte) ([]byte, error) {
	return appendSubs(dst, m.Subs), nil
}

// DecodeBinary implements dist.BinaryMessage.
func (m *BatchStageReq) DecodeBinary(p []byte) error {
	r := reader{p: p}
	m.Subs = r.subs()
	return r.done()
}

// WireTag implements dist.BinaryMessage.
func (m *BatchStageResp) WireTag() dist.MsgTag { return tagBatchStageResp }

// AppendBinary implements dist.BinaryMessage. The per-sub compute array
// must be index-aligned with Subs; its length is implied, not encoded.
func (m *BatchStageResp) AppendBinary(dst []byte) ([]byte, error) {
	if len(m.SubComputeNanos) != len(m.Subs) {
		return nil, fmt.Errorf("pax: batch response has %d compute entries for %d subs", len(m.SubComputeNanos), len(m.Subs))
	}
	dst = wirefmt.AppendUvarint(dst, uint64(m.ComputeNanos))
	dst = appendSubs(dst, m.Subs)
	for _, c := range m.SubComputeNanos {
		dst = binary.BigEndian.AppendUint64(dst, uint64(c))
	}
	return dst, nil
}

// DecodeBinary implements dist.BinaryMessage.
func (m *BatchStageResp) DecodeBinary(p []byte) error {
	r := reader{p: p}
	m.ComputeNanos = r.int64()
	m.Subs = r.subs()
	if len(m.Subs) > 0 {
		m.SubComputeNanos = make([]int64, len(m.Subs))
		for i := range m.SubComputeNanos {
			m.SubComputeNanos[i] = r.fixed64()
		}
	}
	return r.done()
}

// WireTag implements dist.BinaryMessage.
func (m *EditReq) WireTag() dist.MsgTag { return tagEditReq }

// AppendBinary implements dist.BinaryMessage. Edit messages never ride in
// batch envelopes (Engine.ApplyEdit issues them directly, serialized), so
// newStageMessage deliberately excludes their tags, like the batch tags
// themselves.
func (m *EditReq) AppendBinary(dst []byte) ([]byte, error) {
	dst = appendFragID(dst, m.Frag)
	dst = wirefmt.AppendUvarint(dst, m.BaseVersion)
	dst = append(dst, m.Op)
	dst = wirefmt.AppendUvarint(dst, uint64(uint32(m.Node)))
	dst = wirefmt.AppendUvarint(dst, uint64(uint32(m.Pos)))
	dst = wirefmt.AppendString(dst, m.Label)
	dst = wirefmt.AppendBool(dst, m.HasSubtree)
	if m.HasSubtree {
		return appendWireNode(dst, &m.Subtree, 0)
	}
	return dst, nil
}

// DecodeBinary implements dist.BinaryMessage.
func (m *EditReq) DecodeBinary(p []byte) error {
	r := reader{p: p}
	m.Frag = r.fragID()
	m.BaseVersion = r.uvarint()
	if r.err == nil {
		if len(r.p) == 0 {
			r.fail(fmt.Errorf("%w: missing edit op", wirefmt.ErrTruncated))
		} else {
			m.Op = r.p[0]
			r.p = r.p[1:]
		}
	}
	m.Node = xmltree.NodeID(r.int32())
	m.Pos = r.int32()
	m.Label = r.str()
	m.HasSubtree = r.bool()
	if m.HasSubtree {
		r.wireNode(&m.Subtree, 0)
	}
	return r.done()
}

// WireTag implements dist.BinaryMessage.
func (m *EditResp) WireTag() dist.MsgTag { return tagEditResp }

// AppendBinary implements dist.BinaryMessage.
func (m *EditResp) AppendBinary(dst []byte) ([]byte, error) {
	dst = wirefmt.AppendUvarint(dst, uint64(m.ComputeNanos))
	dst = wirefmt.AppendUvarint(dst, m.NewVersion)
	dst = wirefmt.AppendBool(dst, m.Applied)
	dst = wirefmt.AppendUvarint(dst, uint64(m.Dropped))
	dst = wirefmt.AppendUvarint(dst, uint64(m.Retained))
	return wirefmt.AppendUvarint(dst, uint64(m.Patched)), nil
}

// DecodeBinary implements dist.BinaryMessage.
func (m *EditResp) DecodeBinary(p []byte) error {
	r := reader{p: p}
	m.ComputeNanos = r.int64()
	m.NewVersion = r.uvarint()
	m.Applied = r.bool()
	m.Dropped = r.int64()
	m.Retained = r.int64()
	m.Patched = r.int64()
	return r.done()
}
