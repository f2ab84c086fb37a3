package pax

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"paxq/internal/boolexpr"
	"paxq/internal/dist"
	"paxq/internal/fragment"
	"paxq/internal/testutil"
	"paxq/internal/wirefmt"
	"paxq/internal/xmltree"
)

// randFormulaBytes builds a small random formula's wire encoding.
func randFormulaBytes(r *rand.Rand) []byte {
	f := boolexpr.V(boolexpr.Var(1 + r.Intn(40)))
	for i := 0; i < r.Intn(4); i++ {
		g := boolexpr.V(boolexpr.Var(1 + r.Intn(40)))
		if r.Intn(2) == 0 {
			f = boolexpr.And(f, boolexpr.Not(g))
		} else {
			f = boolexpr.Or(f, g)
		}
	}
	return boolexpr.Encode(f)
}

func randVec(r *rand.Rand, n int) WireVec {
	v := make(WireVec, n)
	for i := range v {
		v[i] = randFormulaBytes(r)
	}
	return v
}

func randBools(r *rand.Rand, n int) []bool {
	out := make([]bool, n)
	for i := range out {
		out[i] = r.Intn(2) == 0
	}
	return out
}

// corpusCase is one named message of the codec corpus. The name, with the
// message's wire tag, names its golden file.
type corpusCase struct {
	name string
	msg  dist.BinaryMessage
}

// mustBody is a message's body bytes.
func mustBody(m dist.BinaryMessage) []byte {
	b, err := m.AppendBinary(nil)
	if err != nil {
		panic(err)
	}
	return b
}

// requestPayload is a request payload carrying tag and body, as a site
// reads it off the wire: dist.DecodeRequest decodes it through the
// message registry.
func requestPayload(tag dist.MsgTag, body []byte) []byte {
	p := append([]byte{wireVersion(), 0x00}, wirefmt.AppendUvarint(nil, uint64(tag))...)
	return append(p, body...)
}

// wireVersion is the codec's version byte, which leads every payload.
func wireVersion() byte {
	p, err := dist.EncodeRequest(dist.Binary, &AnsStageReq{})
	if err != nil {
		panic(err)
	}
	return p[0]
}

// messageCorpus is a deterministic set of one-of-everything stage
// messages: every field populated, plus the nil/empty edge shapes.
func messageCorpus(seed int64) []corpusCase {
	r := rand.New(rand.NewSource(seed))
	boolVals := func(known bool) WireBoolVals {
		v := WireBoolVals{Frag: fragment.FragID(r.Intn(9)), QV: randBools(r, 3), QDV: randBools(r, 3)}
		if known {
			v.Known = randBools(r, 3)
		}
		return v
	}
	answers := []AnswerNode{
		{Frag: 1, Node: 42, Label: "person", Value: "Ada", XML: "<person>Ada</person>"},
		{Frag: 0, Node: 7, Label: "name", Value: ""},
	}
	qualReq := &QualStageReq{QID: 7, Query: "//person[age > 30]/name", NumFrags: 5}
	qualResp := &QualStageResp{Roots: []WireRootVecs{
		{Frag: 0, QV: randVec(r, 3), QDV: randVec(r, 3), RootSelQual: randVec(r, 2)},
		// A version past 127: a two-byte varint.
		{Frag: 3, Version: 300, QV: randVec(r, 1), QDV: randVec(r, 1)},
	}}
	selReq := &SelStageReq{
		QID: 8, Query: "//a/b", NumFrags: 4,
		Frags:        []fragment.FragID{0, 2, 3},
		VirtualQuals: []WireBoolVals{boolVals(false), boolVals(true)},
		// Nine bits: a bit-packed vector that spills into a second byte.
		Inits:   []WireInit{{Frag: 2, SV: randBools(r, 9)}},
		ShipXML: true,
		Stitch:  true,
	}
	return []corpusCase{
		{"plain", qualReq},
		{"roots", qualResp},
		{"shipxml", selReq},
		{"versions", &SelStageReq{QID: 8, Query: "//a[b]", NumFrags: 4, Frags: []fragment.FragID{1, 3},
			Versions: []WireVersion{{Frag: 1, Version: 0}, {Frag: 3, Version: 300}}, VirtualQuals: []WireBoolVals{boolVals(true)}}},
		// Hostile requests a site must refuse with a typed error: a version
		// no site ever held, and (below) a final stage naming a fragment its
		// site does not host.
		{"never-held", &SelStageReq{QID: 8, Query: "//a", NumFrags: 4, Frags: []fragment.FragID{1}, Versions: []WireVersion{{Frag: 1, Version: 1 << 40}}}},
		{"contexts", &SelStageResp{
			Contexts:   []WireContext{{Frag: 1, SV: randVec(r, 2)}},
			Answers:    answers,
			Candidates: []fragment.FragID{2},
			Below:      []fragment.FragID{3, 4},
			Versions:   []WireVersion{{Frag: 2, Version: 5}, {Frag: 4, Version: 0}},
		}},
		{"plain", &CombinedStageReq{QID: 9, Query: "//x", NumFrags: 3, Frags: []fragment.FragID{0}}},
		{"shipxml", &CombinedStageReq{QID: 9, Query: "//x", NumFrags: 3, Frags: []fragment.FragID{0}, ShipXML: true}},
		{"roots", &CombinedStageResp{
			Roots:    []WireRootVecs{{Frag: 0, Version: 2, QV: randVec(r, 2), QDV: randVec(r, 2)}},
			Contexts: []WireContext{{Frag: 2, SV: randVec(r, 1)}},
			Below:    []fragment.FragID{2},
		}},
		{"quals", &AnsStageReq{QID: 10, Query: "//a[b]", NumFrags: 5, Inits: []WireInit{{Frag: 1, SV: randBools(r, 2)}},
			Quals: []WireBoolVals{boolVals(true)}, ShipXML: true, Bodies: []fragment.FragID{2, 4},
			Versions: []WireVersion{{Frag: 1, Version: 3}, {Frag: 2, Version: 300}}}},
		{"bodies", &AnsStageReq{QID: 11, Bodies: []fragment.FragID{3}}},
		{"unhosted", &AnsStageReq{QID: 11, Bodies: []fragment.FragID{9}, Versions: []WireVersion{{Frag: 9, Version: 1}}}},
		{"answers", &AnsStageResp{Answers: answers, Bodies: []WireFragment{
			{ID: 2, XML: `<people><fragment-ref ref="4"/></people>`},
			{ID: 4, XML: `<person id="p&#34;2"/>`},
		}}},
		{"insert", &EditReq{
			Frag: 2, BaseVersion: 7, Op: 0, Node: 14, Pos: 1,
			SubtreeXML: `<person id="7&quot;x"><name>Ada</name></person>`,
		}},
		{"rename", &EditReq{Frag: 0, BaseVersion: 1, Op: 3, Node: 5, Label: "renamed"}},
		{"applied", &EditResp{NewVersion: 8, Applied: true}},
		{"replayed", &EditResp{NewVersion: 9}},
	}
}

// TestCorpusRoundTrip round-trips every corpus message through both
// envelope directions and requires the decoded value to be deeply equal
// to the original. With TestGoldenBytes it is what pins the hand-written
// format now that no second codec cross-checks it (it replaces
// TestBinaryRoundTripMatchesGob, whose gob arm compared against the same
// original value and so added nothing).
func TestCorpusRoundTrip(t *testing.T) {
	for _, c := range messageCorpus(1) {
		p, err := dist.EncodeRequest(dist.Binary, c.msg)
		if err != nil {
			t.Fatalf("request encode %T: %v", c.msg, err)
		}
		back, err := dist.DecodeRequest(dist.Binary, p)
		if err != nil {
			t.Fatalf("request decode %T: %v", c.msg, err)
		}
		if !reflect.DeepEqual(c.msg, back) {
			t.Errorf("request round trip of %T diverged:\n got %#v\nwant %#v", c.msg, back, c.msg)
		}
		p, err = dist.EncodeResponse(dist.Binary, c.msg, "", 1)
		if err != nil {
			t.Fatalf("response encode %T: %v", c.msg, err)
		}
		back, herr, _, err := dist.DecodeResponse(dist.Binary, p)
		if err != nil || herr != "" {
			t.Fatalf("response decode %T: %v %q", c.msg, err, herr)
		}
		if !reflect.DeepEqual(c.msg, back) {
			t.Errorf("response round trip of %T diverged:\n got %#v\nwant %#v", c.msg, back, c.msg)
		}
	}
}

var updateGolden = flag.Bool("update", false, "rewrite the golden files under testdata from the current code (a wire-format change also bumps dist's binVersion)")

// goldenPath names a corpus case's golden file: <tag>-<case>.bin.
func goldenPath(c corpusCase) string {
	return filepath.Join("testdata", "golden", fmt.Sprintf("%02d-%s.bin", c.msg.WireTag(), c.name))
}

// TestGoldenBytes compares every corpus message's request payload —
// version byte, kind, tag and body — byte for byte against its committed
// golden file, and decodes the file back to the corpus value, so neither
// the encoder nor the decoder can drift from the format the files record.
// The response envelope is pinned against the same file: an 11-byte
// header (version, kind, 8 bytes of compute, status) in front of the same
// tag and body. Run with -update only for a deliberate format change.
func TestGoldenBytes(t *testing.T) {
	for _, c := range messageCorpus(1) {
		path := goldenPath(c)
		got, err := dist.EncodeRequest(dist.Binary, c.msg)
		if err != nil {
			t.Fatalf("%s: encode: %v", path, err)
		}
		if *updateGolden {
			if err := os.WriteFile(path, got, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("corpus case without golden bytes (run go test -run TestGoldenBytes -update ./internal/pax): %v", err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: encoding changed:\n got %x\nwant %x", path, got, want)
		}
		back, err := dist.DecodeRequest(dist.Binary, want)
		if err != nil {
			t.Errorf("%s: golden bytes no longer decode: %v", path, err)
		} else if !reflect.DeepEqual(c.msg, back) {
			t.Errorf("%s: golden bytes decode to\n got %#v\nwant %#v", path, back, c.msg)
		}
		resp, err := dist.EncodeResponse(dist.Binary, c.msg, "", 0x0102030405060708)
		if err != nil {
			t.Fatalf("%s: response encode: %v", path, err)
		}
		wantResp := append([]byte{want[0], 0x01, 1, 2, 3, 4, 5, 6, 7, 8, 0x00}, want[2:]...)
		if !bytes.Equal(resp, wantResp) {
			t.Errorf("%s: response envelope changed:\n got %x\nwant %x", path, resp, wantResp)
		}
	}
}

// TestEveryTagHasGoldenBytes walks every registered wire tag and fails if
// no golden file pins it: a new message cannot ship without its bytes on
// record.
func TestEveryTagHasGoldenBytes(t *testing.T) {
	for _, tag := range dist.RegisteredTags() {
		files, err := filepath.Glob(filepath.Join("testdata", "golden", fmt.Sprintf("%02d-*.bin", tag)))
		if err != nil {
			t.Fatal(err)
		}
		if len(files) == 0 {
			t.Errorf("wire tag %d has no golden file: add a messageCorpus case and run -update", tag)
		}
	}
}

// FuzzDecodeStageMessage feeds an arbitrary body to the decoder of an
// arbitrary tag — what a hostile peer controls inside a well-formed
// envelope. Every registered message either rejects the body or yields a
// value that re-encodes and decodes back to itself; nothing panics, and
// a count inside the body never sizes an allocation beyond a small
// multiple of the bytes received. Seeded from the golden corpus.
func FuzzDecodeStageMessage(f *testing.F) {
	files, err := filepath.Glob(filepath.Join("testdata", "golden", "*.bin"))
	if err != nil || len(files) == 0 {
		f.Fatalf("no golden corpus to seed from: %v", err)
	}
	for _, path := range files {
		p, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(p[2], p[3:]) // past version and kind; corpus tags are one byte
	}
	// Multi-answer ShipXML responses: every answer string a substring of
	// one decoded section.
	f.Add(byte(tagAnsStageResp), mustBody(&AnsStageResp{Answers: shipXMLAnswers(3)}))
	f.Add(byte(tagSelStageResp), mustBody(&SelStageResp{Answers: shipXMLAnswers(2), Candidates: []fragment.FragID{1}}))
	// The retired batch tags, which must fail as unknown.
	f.Add(byte(11), []byte{1, byte(tagQualStageReq), 0})
	f.Add(byte(12), []byte{1, byte(tagQualStageResp), 0})
	version := wireVersion()
	f.Fuzz(func(t *testing.T, tag byte, body []byte) {
		payload := append([]byte{version, 0x00, tag}, body...)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		msg, err := dist.DecodeRequest(dist.Binary, payload)
		runtime.ReadMemStats(&after)
		if grew, limit := after.TotalAlloc-before.TotalAlloc, uint64(1<<16+64*len(body)); grew > limit {
			t.Fatalf("tag %d: decoding %d bytes allocated %d (limit %d)", tag, len(body), grew, limit)
		}
		if err != nil || msg == nil {
			return
		}
		again, err := dist.EncodeRequest(dist.Binary, msg)
		if err != nil {
			t.Fatalf("tag %d: decoded %#v does not re-encode: %v", tag, msg, err)
		}
		back, err := dist.DecodeRequest(dist.Binary, again)
		if err != nil {
			t.Fatalf("tag %d: re-encoding of %#v does not decode: %v", tag, msg, err)
		}
		if !reflect.DeepEqual(msg, back) {
			t.Fatalf("tag %d: value changed across re-encoding:\n got %#v\nwant %#v", tag, back, msg)
		}
	})
}

// shipXMLAnswers builds n distinct answers as a ShipXML stage ships them,
// each with its label, value and serialized subtree.
func shipXMLAnswers(n int) []AnswerNode {
	out := make([]AnswerNode, n)
	for i := range out {
		name := fmt.Sprintf("Ada %d", i)
		el := xmltree.El("person", xmltree.ElT("name", name))
		el.SetAttr("id", fmt.Sprintf("p%d", i))
		out[i] = AnswerNode{Frag: fragment.FragID(i % 3), Node: xmltree.NodeID(i + 1), Label: "person", Value: name, XML: xmltree.SerializeString(el)}
	}
	return out
}

// answerResponses are the three responses that carry an answers section,
// holding answers.
func answerResponses(answers []AnswerNode) []dist.BinaryMessage {
	return []dist.BinaryMessage{
		&SelStageResp{Contexts: []WireContext{{Frag: 1}}, Answers: answers, Candidates: []fragment.FragID{2}},
		&CombinedStageResp{Answers: answers, Candidates: []fragment.FragID{2}},
		&AnsStageResp{Answers: answers},
	}
}

// answersOf returns a decoded response's answers.
func answersOf(m any) []AnswerNode {
	switch m := m.(type) {
	case *SelStageResp:
		return m.Answers
	case *CombinedStageResp:
		return m.Answers
	case *AnsStageResp:
		return m.Answers
	}
	return nil
}

// TestDecodedAnswersDoNotAliasInput decodes each response that carries
// answers, then overwrites every byte it decoded from: the answers must not
// change. Strings made from the body without a copy (unsafe.String) would.
func TestDecodedAnswersDoNotAliasInput(t *testing.T) {
	want := shipXMLAnswers(5)
	for _, m := range answerResponses(want) {
		payload := requestPayload(m.WireTag(), mustBody(m))
		back, err := dist.DecodeRequest(dist.Binary, payload)
		if err != nil {
			t.Fatalf("%T: %v", m, err)
		}
		for i := range payload {
			payload[i] = 0xA5
		}
		if got := answersOf(back); !reflect.DeepEqual(got, want) {
			t.Errorf("%T: answers changed with the input bytes:\n got %q\nwant %q", m, got, want)
		}
	}
}

// TestDecodedMessagesDoNotAliasFrame decodes every golden message from a
// buffer, overwrites the buffer with 0xFF, as the transport's frame pool
// reuses it, and re-encodes: the golden bytes must come back. A field that
// aliased its frame (formula bytes, answer or fragment text) would
// re-encode the overwritten bytes.
func TestDecodedMessagesDoNotAliasFrame(t *testing.T) {
	for _, c := range messageCorpus(1) {
		path := goldenPath(c)
		golden, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		frame := slices.Clone(golden)
		msg, err := dist.DecodeRequest(dist.Binary, frame)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		for i := range frame {
			frame[i] = 0xFF
		}
		again, err := dist.EncodeRequest(dist.Binary, msg)
		if err != nil {
			t.Fatalf("%s: re-encode: %v", path, err)
		}
		if !bytes.Equal(again, golden) {
			t.Errorf("%s: the decoded message changed with its frame:\n got %x\nwant %x", path, again, golden)
		}
	}
}

// TestCorruptAnswerStringLength cuts a string length inside the answers
// section short, or announces more bytes than the body has, in each
// response that carries answers: decoding must end in ErrMalformed, not a
// panic or a short string.
func TestCorruptAnswerStringLength(t *testing.T) {
	// Everything in front of the answers section, all empty.
	prefixes := map[dist.MsgTag][]byte{
		tagSelStageResp:      {0},    // Contexts
		tagCombinedStageResp: {0, 0}, // Roots, Contexts
		tagAnsStageResp:      nil,
	}
	lengths := map[string][]byte{
		"truncated varint":  {0x80},
		"past the body":     append(wirefmt.AppendUvarint(nil, 100), "<person/>"...),
		"over the size cap": wirefmt.AppendUvarint(nil, 1<<40),
	}
	for tag, prefix := range prefixes {
		for name, length := range lengths {
			body := append([]byte(nil), prefix...)
			body = wirefmt.AppendUvarint(body, 1)       // one answer
			body = append(body, 1, 7)                   // Frag, Node
			body = wirefmt.AppendString(body, "person") // Label
			body = wirefmt.AppendString(body, "Ada")    // Value
			body = append(body, length...)              // XML
			_, err := dist.DecodeRequest(dist.Binary, requestPayload(tag, body))
			if !errors.Is(err, wirefmt.ErrMalformed) {
				t.Errorf("tag %d, XML length %s: err = %v, want ErrMalformed", tag, name, err)
			}
		}
	}
}

// TestDecodeAnswersAllocs pins the decode of an answers section to a
// number of allocations that does not grow with the answers: the message,
// its answer slice and the one copy of the body all answers share.
func TestDecodeAnswersAllocs(t *testing.T) {
	var counts []float64
	for _, n := range []int{1, 100, 1000} {
		body := mustBody(&AnsStageResp{Answers: shipXMLAnswers(n)})
		allocs := testing.AllocsPerRun(20, func() {
			if err := new(AnsStageResp).DecodeBinary(body); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > 3 {
			t.Errorf("decoding %d answers allocates %.1f times, want at most 3", n, allocs)
		}
		counts = append(counts, allocs)
	}
	if counts[0] != counts[1] || counts[1] != counts[2] {
		t.Errorf("allocations for 1, 100 and 1000 answers = %v, want equal", counts)
	}
}

// TestRetiredTagsAreUnknown: tags 9 and 10 carried the retired
// NaiveCentralized fetch pair and tags 11 and 12 the retired multi-query
// batch envelope. All four stay unregistered, with the tags around them
// keeping their numbers. A request or response frame carrying one fails
// to decode with dist.ErrUnknownTag; nothing panics.
func TestRetiredTagsAreUnknown(t *testing.T) {
	if tagAnsStageResp != 8 || tagEditReq != 13 || tagEditResp != 14 {
		t.Fatalf("tags moved: AnsStageResp %d, EditReq %d, EditResp %d; want 8, 13, 14", tagAnsStageResp, tagEditReq, tagEditResp)
	}
	for _, tag := range []dist.MsgTag{9, 10, 11, 12} {
		if slices.Contains(dist.RegisteredTags(), tag) {
			t.Errorf("retired tag %d is registered", tag)
		}
		body := []byte{1, 0, 0}
		if _, err := dist.DecodeRequest(dist.Binary, requestPayload(tag, body)); !errors.Is(err, dist.ErrUnknownTag) {
			t.Errorf("request with tag %d: err = %v, want dist.ErrUnknownTag", tag, err)
		}
		// Version, kind, 8 bytes of compute, status OK, then tag and body.
		resp := append([]byte{wireVersion(), 0x01, 0, 0, 0, 0, 0, 0, 0, 0, 0x00}, wirefmt.AppendUvarint(nil, uint64(tag))...)
		if _, _, _, err := dist.DecodeResponse(dist.Binary, append(resp, body...)); !errors.Is(err, dist.ErrUnknownTag) {
			t.Errorf("response with tag %d: err = %v, want dist.ErrUnknownTag", tag, err)
		}
	}
}

// TestKnownMaskSurvivesRoundTrip pins the nil-vs-present distinction the
// XA pruning protocol relies on (virtualEnv skips entries only when a
// mask is present).
func TestKnownMaskSurvivesRoundTrip(t *testing.T) {
	msgs := []*AnsStageReq{
		{QID: 1, Quals: []WireBoolVals{{Frag: 1, QV: []bool{true}, QDV: []bool{false}}}},
		{QID: 1, Quals: []WireBoolVals{{Frag: 1, QV: []bool{true}, QDV: []bool{false}, Known: []bool{false}}}},
	}
	for _, m := range msgs {
		p, err := dist.EncodeRequest(dist.Binary, m)
		if err != nil {
			t.Fatal(err)
		}
		back, err := dist.DecodeRequest(dist.Binary, p)
		if err != nil {
			t.Fatal(err)
		}
		got := back.(*AnsStageReq).Quals[0].Known
		if (got == nil) != (m.Quals[0].Known == nil) {
			t.Errorf("Known nil-ness flipped: sent %v, got %v", m.Quals[0].Known, got)
		}
	}
}

// TestTruncatedBodiesReturnTypedErrors chops every corpus message's
// encoding at every length; each prefix must decode to a typed error (or,
// rarely, an equal value is impossible since bodies self-delimit), never
// panic, never silently succeed.
func TestTruncatedBodiesReturnTypedErrors(t *testing.T) {
	for _, c := range messageCorpus(3) {
		msg := c.msg
		full, err := dist.EncodeRequest(dist.Binary, msg)
		if err != nil {
			t.Fatal(err)
		}
		for cut := 0; cut < len(full); cut++ {
			_, err := dist.DecodeRequest(dist.Binary, full[:cut])
			if err == nil {
				t.Fatalf("%T truncated to %d/%d bytes decoded successfully", msg, cut, len(full))
			}
			if !errors.Is(err, wirefmt.ErrTruncated) && !errors.Is(err, wirefmt.ErrMalformed) &&
				!errors.Is(err, dist.ErrBadEnvelope) && !errors.Is(err, dist.ErrUnknownTag) {
				t.Fatalf("%T truncated to %d bytes: untyped error %v", msg, cut, err)
			}
		}
	}
}

// TestShipModeRejectsUnknownBits: a selection request's ShipXML/Stitch
// byte decodes its four values and fails typed on any other.
func TestShipModeRejectsUnknownBits(t *testing.T) {
	for _, m := range []*SelStageReq{{}, {ShipXML: true}, {Stitch: true}, {ShipXML: true, Stitch: true}} {
		back := new(SelStageReq)
		if err := back.DecodeBinary(mustBody(m)); err != nil || back.ShipXML != m.ShipXML || back.Stitch != m.Stitch {
			t.Errorf("%+v decoded as %+v, %v", m, back, err)
		}
	}
	body := mustBody(&CombinedStageReq{})
	body[len(body)-1] = 4
	if err := new(CombinedStageReq).DecodeBinary(body); !errors.Is(err, wirefmt.ErrMalformed) {
		t.Errorf("ship mode byte 4: err = %v, want ErrMalformed", err)
	}
}

// TestHostileCountDoesNotAmplify pins the decoder's allocation bound: a
// frame announcing a huge element count backed by filler bytes must fail
// with a typed error after allocating memory proportional to the bytes
// received, not to the announced count (count() admits counts up to one
// byte per element, but each decoded element is tens of bytes of struct).
func TestHostileCountDoesNotAmplify(t *testing.T) {
	// A QualStageResp body announcing 2^20 root-vector entries, backed by
	// 2 MB of filler whose first element is malformed (a fragment ID
	// overflowing int32). Pre-hardening this would eagerly allocate
	// 2^20 * sizeof(WireRootVecs) ≈ 80 MB before reading a single
	// element; now the eager capacity is capped and the first element's
	// failure stops the loop.
	body := wirefmt.AppendUvarint(nil, 1<<20)
	body = append(body, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f) // fragID > MaxInt32
	body = append(body, make([]byte, 2<<20)...)
	payload := append([]byte{wireVersion(), 0x01 /* resp */}, 0, 0, 0, 0, 0, 0, 0, 1, 0x00 /* compute, ok */)
	payload = wirefmt.AppendUvarint(payload, 2) // tag: QualStageResp
	payload = append(payload, body...)

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	_, _, _, err := dist.DecodeResponse(dist.Binary, payload)
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("hostile count decoded successfully")
	}
	if !errors.Is(err, wirefmt.ErrTruncated) && !errors.Is(err, wirefmt.ErrMalformed) {
		t.Errorf("untyped error: %v", err)
	}
	// Generous bound: a few multiples of the filler, never the ~50 MB the
	// announced count would imply.
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 16<<20 {
		t.Errorf("decode of a 2 MB hostile frame allocated %d bytes", grew)
	}
}

// TestSentinelIDsRoundTrip pins encode/decode agreement on the negative
// sentinel IDs (fragment.NoFrag, xmltree.NoID — both -1): the encoder
// ships them via uint32 truncation, so the decoder must accept the full
// uint32 range.
func TestSentinelIDsRoundTrip(t *testing.T) {
	m := &AnsStageResp{Answers: []AnswerNode{{Frag: fragment.NoFrag, Node: xmltree.NoID, Label: "x"}}}
	p, err := dist.EncodeRequest(dist.Binary, m)
	if err != nil {
		t.Fatal(err)
	}
	back, err := dist.DecodeRequest(dist.Binary, p)
	if err != nil {
		t.Fatalf("sentinel IDs failed to decode: %v", err)
	}
	if got := back.(*AnsStageResp).Answers[0]; got.Frag != fragment.NoFrag || got.Node != xmltree.NoID {
		t.Errorf("sentinels round-tripped to Frag=%d Node=%d", got.Frag, got.Node)
	}
}

// TestEmptyKnownMaskRoundTrips pins the zero-predicate edge: a query
// whose qualifiers compile to zero path predicates makes the coordinator
// build empty (non-nil) Known masks; they must encode as absent and
// decode clean, not fail as "present but empty".
func TestEmptyKnownMaskRoundTrips(t *testing.T) {
	m := &AnsStageReq{QID: 5, Quals: []WireBoolVals{{Frag: 1, QV: []bool{}, QDV: []bool{}, Known: []bool{}}}}
	p, err := dist.EncodeRequest(dist.Binary, m)
	if err != nil {
		t.Fatal(err)
	}
	back, err := dist.DecodeRequest(dist.Binary, p)
	if err != nil {
		t.Fatalf("empty Known mask failed to decode: %v", err)
	}
	if got := back.(*AnsStageReq).Quals[0].Known; got != nil {
		t.Errorf("empty Known decoded as %v, want nil (semantically identical: no entry is consulted)", got)
	}
}

// TestQIDVarintGrowsOneByte checks why a faster benchmark run reads more
// wire bytes per query with unchanged messages: a query ID travels as a
// uvarint, so every stage request of a query numbered 2¹⁴ or later is one
// byte longer than the same request numbered 2¹⁴−1, and the responses,
// which carry no query ID, do not grow at all.
func TestQIDVarintGrowsOneByte(t *testing.T) {
	const below, at = 1<<14 - 1, 1 << 14
	kinds := map[reflect.Type]bool{}
	for _, c := range messageCorpus(1) {
		v := reflect.ValueOf(c.msg).Elem()
		qid := v.FieldByName("QID")
		if !qid.IsValid() {
			continue
		}
		kinds[v.Type()] = true
		size := func(id uint64) int {
			qid.SetUint(id)
			p, err := dist.EncodeRequest(dist.Binary, c.msg)
			if err != nil {
				t.Fatalf("%T %s: %v", c.msg, c.name, err)
			}
			return len(p)
		}
		if lo, hi := size(below), size(at); hi != lo+1 {
			t.Errorf("%T %s: %d bytes at QID %d, %d at QID %d; want one more", c.msg, c.name, lo, below, hi, at)
		}
	}
	if len(kinds) != 4 {
		t.Errorf("the corpus holds %d request kinds with a QID, want the 4 stage requests", len(kinds))
	}
	for _, m := range []dist.BinaryMessage{&QualStageResp{}, &SelStageResp{}, &CombinedStageResp{}, &AnsStageResp{}} {
		if _, ok := reflect.TypeOf(m).Elem().FieldByName("QID"); ok {
			t.Errorf("%T carries a QID, so its size too grows with the query count", m)
		}
	}
}

// TestSelfQualifierOverTCP is the end-to-end regression for the same
// edge: self-only qualifiers ([. = "..."]) report HasQualifiers() with
// zero path predicates, so every Quals entry ships an empty Known mask.
// Such queries must evaluate over the TCP transport (which decodes every
// message) exactly as over Local (which does not).
func TestSelfQualifierOverTCP(t *testing.T) {
	tr := testutil.PaperTree()
	queries := []string{
		`//broker[. = "x"]/name`,
		`//code[. = "GOOG"]`,
		`//stock[. != ""]/code`,
	}
	for seed := int64(11); seed < 14; seed++ {
		ft, err := fragment.Cut(tr, fragment.RandomCuts(tr, 4, seed))
		if err != nil {
			t.Fatal(err)
		}
		topo := RoundRobin(ft, 2)
		tcp, _, shutdown, err := BuildTCPCluster(topo)
		if err != nil {
			t.Fatal(err)
		}
		eng := NewEngine(topo, tcp)
		for _, query := range queries {
			want := oracle(t, tr, query)
			for _, alg := range []Algorithm{PaX3, PaX2} {
				res, err := eng.Run(query, Options{Algorithm: alg})
				if err != nil {
					t.Errorf("seed %d %v %q over TCP: %v", seed, alg, query, err)
					continue
				}
				if got := origIDs(ft, res.Answers); !testutil.EqualIDs(got, want) {
					t.Errorf("seed %d %v %q: got %v want %v", seed, alg, query, got, want)
				}
			}
		}
		shutdown()
	}
}

// BenchmarkEncodeStageRequest measures the hand-written encoder on a
// realistic Stage-2 request.
func BenchmarkEncodeStageRequest(b *testing.B) {
	r := rand.New(rand.NewSource(4))
	req := &SelStageReq{
		QID: 99, Query: "//people/person[profile/age > 30]/name", NumFrags: 16,
		Frags: []fragment.FragID{0, 1, 2, 3, 5, 8, 13},
		VirtualQuals: []WireBoolVals{
			{Frag: 1, QV: randBools(r, 4), QDV: randBools(r, 4)},
			{Frag: 2, QV: randBools(r, 4), QDV: randBools(r, 4), Known: randBools(r, 4)},
		},
		Inits: []WireInit{{Frag: 3, SV: randBools(r, 6)}, {Frag: 5, SV: randBools(r, 6)}},
	}
	b.ReportAllocs()
	var buf []byte
	for i := 0; i < b.N; i++ {
		var err error
		buf, err = req.AppendBinary(buf[:0])
		if err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(len(buf)))
}
