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

// mustBody is a message's body bytes, as a batch envelope carries them.
func mustBody(m dist.BinaryMessage) []byte {
	b, err := m.AppendBinary(nil)
	if err != nil {
		panic(err)
	}
	return b
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
		{Frag: 3, QV: randVec(r, 1), QDV: randVec(r, 1)},
	}}
	selReq := &SelStageReq{
		QID: 8, Query: "//a/b", NumFrags: 4,
		Frags:        []fragment.FragID{0, 2, 3},
		VirtualQuals: []WireBoolVals{boolVals(false), boolVals(true)},
		// Nine bits: a bit-packed vector that spills into a second byte.
		Inits:   []WireInit{{Frag: 2, SV: randBools(r, 9)}},
		ShipXML: true,
	}
	return []corpusCase{
		{"plain", qualReq},
		{"final", &QualStageReq{QID: 9, Query: "[//a]", NumFrags: 2, Final: true}},
		{"roots", qualResp},
		{"shipxml", selReq},
		{"contexts", &SelStageResp{
			Contexts:   []WireContext{{Frag: 1, SV: randVec(r, 2)}},
			Answers:    answers,
			Candidates: []fragment.FragID{2},
		}},
		{"plain", &CombinedStageReq{QID: 9, Query: "//x", NumFrags: 3, Frags: []fragment.FragID{0}}},
		{"roots", &CombinedStageResp{
			Roots:    []WireRootVecs{{Frag: 0, QV: randVec(r, 2), QDV: randVec(r, 2)}},
			Contexts: []WireContext{{Frag: 2, SV: randVec(r, 1)}},
		}},
		{"quals", &AnsStageReq{QID: 10, Inits: []WireInit{{Frag: 1, SV: randBools(r, 2)}}, Quals: []WireBoolVals{boolVals(true)}}},
		{"answers", &AnsStageResp{Answers: answers}},
		{"empty", &FetchReq{}},
		{"tree", &FetchResp{Frags: []WireFragment{{
			ID: 0,
			Root: WireNode{Kind: 1, Label: "site", Children: []WireNode{
				{Kind: 1, Label: "person", Children: []WireNode{{Kind: 3, Data: "Ada"}}},
				{Kind: 1, Virtual: true, Frag: 2, Data: "v"},
			}},
		}}}},
		{"members", &BatchStageReq{Subs: []BatchSub{
			{Tag: tagQualStageReq, Body: mustBody(qualReq)},
			{Tag: tagSelStageReq, Body: mustBody(selReq)},
		}}},
		// One member answered, one failed: a Tag-0 member carries the
		// handler's error text.
		{"error-member", &BatchStageResp{
			StageCompute:    StageCompute{ComputeNanos: 42},
			Subs:            []BatchSub{{Tag: tagQualStageResp, Body: mustBody(qualResp)}, {Tag: 0, Body: []byte("site 3: stage out of order")}},
			SubComputeNanos: []int64{41, 1},
		}},
		{"insert", &EditReq{
			Frag: 2, BaseVersion: 7, Op: 1, Node: 14, Pos: 1, Label: "",
			HasSubtree: true,
			Subtree: WireNode{Kind: 1, Label: "person", Children: []WireNode{
				{Kind: 1, Label: "name", Children: []WireNode{{Kind: 3, Data: "Ada"}}},
				{Kind: 2, Label: "id", Data: "7"},
			}},
		}},
		{"rename", &EditReq{Frag: 0, BaseVersion: 1, Op: 3, Node: 5, Label: "renamed"}},
		{"applied", &EditResp{StageCompute: StageCompute{ComputeNanos: 12345}, NewVersion: 8, Applied: true, Dropped: 2, Retained: 3, Patched: 1}},
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

var updateGolden = flag.Bool("update", false, "rewrite testdata/golden from the current encoder (a wire-format change: bump dist's binVersion)")

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
	f.Fuzz(func(t *testing.T, tag byte, body []byte) {
		payload := append([]byte{0x01, 0x00, tag}, body...)
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
	body := wirefmt.AppendUvarint(nil, 1) // ComputeNanos
	body = wirefmt.AppendUvarint(body, 1<<20)
	body = append(body, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f) // fragID > MaxInt32
	body = append(body, make([]byte, 2<<20)...)
	payload := append([]byte{0x01, 0x01 /* ver, resp */}, 0, 0, 0, 0, 0, 0, 0, 1, 0x00 /* compute, ok */)
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
