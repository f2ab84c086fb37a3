package pax

import (
	"bytes"
	"fmt"
	"math"
	"unsafe"

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
	// Tags 9 and 10 carried the retired NaiveCentralized fetch pair, whose
	// bodies now travel in AnsStageResp, and tags 11 and 12 the retired
	// multi-query batch envelope. Never reuse them: a peer that still sends
	// one must fail with dist.ErrUnknownTag, not decode as some other
	// message.
	_
	_
	_
	_
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
	dist.RegisterBinary(func() dist.BinaryMessage { return new(EditReq) })
	dist.RegisterBinary(func() dist.BinaryMessage { return new(EditResp) })
}

// reader is a sticky-error consumer over a message body. It keeps decode
// code linear: check r.done() once at the end instead of after every
// field. A decoded message never aliases its input, which the transport
// recycles once the message is decoded: the first field whose bytes the
// message keeps (formula bytes, answer and fragment strings) copies the
// rest of the body once, and that field and every later one slice the
// copy. Scalar fields, bool slices and the few short strings read with str
// are decoded into fresh values.
type reader struct {
	p   []byte
	err error
	// kept is the message's copy of its body from the first kept field
	// on, made by keepFrom and never written afterwards, so strings share
	// its memory.
	kept []byte
}

// keepFrom makes the message's one copy of its body, from r's position
// on, unless an earlier field made it already. Callers have counted at
// least one element left, so the copy is never empty.
func (r *reader) keepFrom() {
	if r.kept == nil && r.err == nil {
		r.kept = bytes.Clone(r.p)
	}
}

// keep consumes a length-prefixed byte string and returns it as a slice
// of the copy keepFrom made, capped so that an append cannot reach the
// next field. The copy ends where the body ends, so a length that runs
// past it is corrupt, not short: the error is ErrMalformed.
func (r *reader) keep() []byte {
	if r.err != nil {
		return nil
	}
	b, rest, err := wirefmt.Bytes(r.p)
	if err != nil {
		r.fail(fmt.Errorf("%w: %v", wirefmt.ErrMalformed, err))
		return nil
	}
	r.p = rest
	end := len(r.kept) - len(rest)
	return r.kept[end-len(b) : end : end]
}

// keepStr is keep for a string field: the string shares the copy's
// memory, which nothing writes once it is made.
func (r *reader) keepStr() string {
	b := r.keep()
	if len(b) == 0 {
		return ""
	}
	return unsafe.String(&b[0], len(b))
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

// appendShipMode writes a selection request's ShipXML and Stitch flags
// in one byte: bit 0 is ShipXML, bit 1 Stitch.
func appendShipMode(dst []byte, shipXML, stitch bool) []byte {
	var b byte
	if shipXML {
		b |= 1
	}
	if stitch {
		b |= 2
	}
	return append(dst, b)
}

// shipMode reads appendShipMode's byte; a bit above bit 1 is malformed.
func (r *reader) shipMode() (shipXML, stitch bool) {
	if r.err != nil {
		return false, false
	}
	if len(r.p) < 1 {
		r.fail(fmt.Errorf("%w: missing ship mode", wirefmt.ErrTruncated))
		return false, false
	}
	b := r.p[0]
	if b > 3 {
		r.fail(fmt.Errorf("%w: ship mode byte %d", wirefmt.ErrMalformed, b))
		return false, false
	}
	r.p = r.p[1:]
	return b&1 != 0, b&2 != 0
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

func appendPins(dst []byte, ps []WireVersion) []byte {
	dst = wirefmt.AppendUvarint(dst, uint64(len(ps)))
	for _, p := range ps {
		dst = appendFragID(dst, p.Frag)
		dst = wirefmt.AppendUvarint(dst, p.Version)
	}
	return dst
}

func (r *reader) pins() []WireVersion {
	n := r.count()
	if r.err != nil || n == 0 {
		return nil
	}
	out := make([]WireVersion, 0, eagerCap(n))
	for i := 0; i < n && r.err == nil; i++ {
		out = append(out, WireVersion{Frag: r.fragID(), Version: r.uvarint()})
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
	r.keepFrom()
	out := make(WireVec, 0, eagerCap(n))
	for i := 0; i < n && r.err == nil; i++ {
		out = append(out, r.keep())
	}
	return out
}

func appendRootVecs(dst []byte, v WireRootVecs) []byte {
	dst = appendFragID(dst, v.Frag)
	dst = wirefmt.AppendUvarint(dst, v.Version)
	dst = appendWireVec(dst, v.QV)
	dst = appendWireVec(dst, v.QDV)
	return appendWireVec(dst, v.RootSelQual)
}

func (r *reader) rootVecs() WireRootVecs {
	return WireRootVecs{Frag: r.fragID(), Version: r.uvarint(), QV: r.wireVec(), QDV: r.wireVec(), RootSelQual: r.wireVec()}
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

// answers decodes an answers section. Its strings slice the message's one
// copy of its body: a response's answers cost no allocation per answer,
// never alias the body, and stay alive together.
func (r *reader) answers() []AnswerNode {
	n := r.count()
	if r.err != nil || n == 0 {
		return nil
	}
	r.keepFrom()
	out := make([]AnswerNode, 0, eagerCap(n))
	for i := 0; i < n && r.err == nil; i++ {
		out = append(out, AnswerNode{
			Frag:  r.fragID(),
			Node:  xmltree.NodeID(r.int32()),
			Label: r.keepStr(),
			Value: r.keepStr(),
			XML:   r.keepStr(),
		})
	}
	return out
}

func appendWireFragments(dst []byte, fs []WireFragment) []byte {
	dst = wirefmt.AppendUvarint(dst, uint64(len(fs)))
	for _, f := range fs {
		dst = appendFragID(dst, f.ID)
		dst = wirefmt.AppendString(dst, f.XML)
	}
	return dst
}

// wireFragments decodes a list of fragment file forms, their text slicing
// the message's copy of its body like answers' strings.
func (r *reader) wireFragments() []WireFragment {
	n := r.count()
	if r.err != nil || n == 0 {
		return nil
	}
	r.keepFrom()
	out := make([]WireFragment, 0, eagerCap(n))
	for i := 0; i < n && r.err == nil; i++ {
		out = append(out, WireFragment{ID: r.fragID(), XML: r.keepStr()})
	}
	return out
}

// --- message bodies -------------------------------------------------------

// WireTag implements dist.BinaryMessage.
func (m *QualStageReq) WireTag() dist.MsgTag { return tagQualStageReq }

// AppendBinary implements dist.BinaryMessage.
func (m *QualStageReq) AppendBinary(dst []byte) ([]byte, error) {
	dst = wirefmt.AppendUvarint(dst, uint64(m.QID))
	dst = wirefmt.AppendString(dst, m.Query)
	return wirefmt.AppendUvarint(dst, uint64(uint32(m.NumFrags))), nil
}

// DecodeBinary implements dist.BinaryMessage.
func (m *QualStageReq) DecodeBinary(p []byte) error {
	r := reader{p: p}
	m.QID = QueryID(r.uvarint())
	m.Query = r.str()
	m.NumFrags = r.int32()
	return r.done()
}

// WireTag implements dist.BinaryMessage.
func (m *QualStageResp) WireTag() dist.MsgTag { return tagQualStageResp }

// AppendBinary implements dist.BinaryMessage.
func (m *QualStageResp) AppendBinary(dst []byte) ([]byte, error) {
	return appendRootVecsSlice(dst, m.Roots), nil
}

// DecodeBinary implements dist.BinaryMessage.
func (m *QualStageResp) DecodeBinary(p []byte) error {
	r := reader{p: p}
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
	dst = appendPins(dst, m.Versions)
	dst = appendBoolValsSlice(dst, m.VirtualQuals)
	dst = appendInits(dst, m.Inits)
	return appendShipMode(dst, m.ShipXML, m.Stitch), nil
}

// DecodeBinary implements dist.BinaryMessage.
func (m *SelStageReq) DecodeBinary(p []byte) error {
	r := reader{p: p}
	m.QID = QueryID(r.uvarint())
	m.Query = r.str()
	m.NumFrags = r.int32()
	m.Frags = r.fragIDs()
	m.Versions = r.pins()
	m.VirtualQuals = r.boolValsSlice()
	m.Inits = r.inits()
	m.ShipXML, m.Stitch = r.shipMode()
	return r.done()
}

// WireTag implements dist.BinaryMessage.
func (m *SelStageResp) WireTag() dist.MsgTag { return tagSelStageResp }

// AppendBinary implements dist.BinaryMessage.
func (m *SelStageResp) AppendBinary(dst []byte) ([]byte, error) {
	dst = appendContexts(dst, m.Contexts)
	dst = appendAnswers(dst, m.Answers)
	dst = appendFragIDs(dst, m.Candidates)
	dst = appendFragIDs(dst, m.Below)
	return appendPins(dst, m.Versions), nil
}

// DecodeBinary implements dist.BinaryMessage.
func (m *SelStageResp) DecodeBinary(p []byte) error {
	r := reader{p: p}
	m.Contexts = r.contexts()
	m.Answers = r.answers()
	m.Candidates = r.fragIDs()
	m.Below = r.fragIDs()
	m.Versions = r.pins()
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
	return appendShipMode(dst, m.ShipXML, m.Stitch), nil
}

// DecodeBinary implements dist.BinaryMessage.
func (m *CombinedStageReq) DecodeBinary(p []byte) error {
	r := reader{p: p}
	m.QID = QueryID(r.uvarint())
	m.Query = r.str()
	m.NumFrags = r.int32()
	m.Frags = r.fragIDs()
	m.Inits = r.inits()
	m.ShipXML, m.Stitch = r.shipMode()
	return r.done()
}

// WireTag implements dist.BinaryMessage.
func (m *CombinedStageResp) WireTag() dist.MsgTag { return tagCombinedStageResp }

// AppendBinary implements dist.BinaryMessage.
func (m *CombinedStageResp) AppendBinary(dst []byte) ([]byte, error) {
	dst = appendRootVecsSlice(dst, m.Roots)
	dst = appendContexts(dst, m.Contexts)
	dst = appendAnswers(dst, m.Answers)
	dst = appendFragIDs(dst, m.Candidates)
	return appendFragIDs(dst, m.Below), nil
}

// DecodeBinary implements dist.BinaryMessage.
func (m *CombinedStageResp) DecodeBinary(p []byte) error {
	r := reader{p: p}
	m.Roots = r.rootVecsSlice()
	m.Contexts = r.contexts()
	m.Answers = r.answers()
	m.Candidates = r.fragIDs()
	m.Below = r.fragIDs()
	return r.done()
}

// WireTag implements dist.BinaryMessage.
func (m *AnsStageReq) WireTag() dist.MsgTag { return tagAnsStageReq }

// AppendBinary implements dist.BinaryMessage.
func (m *AnsStageReq) AppendBinary(dst []byte) ([]byte, error) {
	dst = wirefmt.AppendUvarint(dst, uint64(m.QID))
	dst = wirefmt.AppendString(dst, m.Query)
	dst = wirefmt.AppendUvarint(dst, uint64(uint32(m.NumFrags)))
	dst = appendInits(dst, m.Inits)
	dst = appendBoolValsSlice(dst, m.Quals)
	dst = wirefmt.AppendBool(dst, m.ShipXML)
	dst = appendFragIDs(dst, m.Bodies)
	return appendPins(dst, m.Versions), nil
}

// DecodeBinary implements dist.BinaryMessage.
func (m *AnsStageReq) DecodeBinary(p []byte) error {
	r := reader{p: p}
	m.QID = QueryID(r.uvarint())
	m.Query = r.str()
	m.NumFrags = r.int32()
	m.Inits = r.inits()
	m.Quals = r.boolValsSlice()
	m.ShipXML = r.bool()
	m.Bodies = r.fragIDs()
	m.Versions = r.pins()
	return r.done()
}

// WireTag implements dist.BinaryMessage.
func (m *AnsStageResp) WireTag() dist.MsgTag { return tagAnsStageResp }

// AppendBinary implements dist.BinaryMessage.
func (m *AnsStageResp) AppendBinary(dst []byte) ([]byte, error) {
	dst = appendAnswers(dst, m.Answers)
	return appendWireFragments(dst, m.Bodies), nil
}

// DecodeBinary implements dist.BinaryMessage.
func (m *AnsStageResp) DecodeBinary(p []byte) error {
	r := reader{p: p}
	m.Answers = r.answers()
	m.Bodies = r.wireFragments()
	return r.done()
}

// WireTag implements dist.BinaryMessage.
func (m *EditReq) WireTag() dist.MsgTag { return tagEditReq }

// AppendBinary implements dist.BinaryMessage.
func (m *EditReq) AppendBinary(dst []byte) ([]byte, error) {
	dst = appendFragID(dst, m.Frag)
	dst = wirefmt.AppendUvarint(dst, m.BaseVersion)
	dst = append(dst, m.Op)
	dst = wirefmt.AppendUvarint(dst, uint64(uint32(m.Node)))
	dst = wirefmt.AppendUvarint(dst, uint64(uint32(m.Pos)))
	dst = wirefmt.AppendString(dst, m.Label)
	return wirefmt.AppendString(dst, m.SubtreeXML), nil
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
	m.SubtreeXML = r.str()
	return r.done()
}

// WireTag implements dist.BinaryMessage.
func (m *EditResp) WireTag() dist.MsgTag { return tagEditResp }

// AppendBinary implements dist.BinaryMessage.
func (m *EditResp) AppendBinary(dst []byte) ([]byte, error) {
	dst = wirefmt.AppendUvarint(dst, m.NewVersion)
	return wirefmt.AppendBool(dst, m.Applied), nil
}

// DecodeBinary implements dist.BinaryMessage.
func (m *EditResp) DecodeBinary(p []byte) error {
	r := reader{p: p}
	m.NewVersion = r.uvarint()
	m.Applied = r.bool()
	return r.done()
}
