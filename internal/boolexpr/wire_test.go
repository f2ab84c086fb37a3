package boolexpr

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestEncodeDecodeBasic(t *testing.T) {
	cases := []*Formula{
		True(),
		False(),
		V(1),
		V(1 << 20),
		Not(V(3)),
		And(V(1), V(2)),
		Or(V(1), Not(V(2)), V(3)),
		And(Or(V(1), V(2)), Not(And(V(3), V(4)))),
	}
	for _, f := range cases {
		got, err := Decode(Encode(f))
		if err != nil {
			t.Fatalf("%v: %v", f, err)
		}
		if !Equal(f, got) {
			t.Errorf("round trip: %v -> %v", f, got)
		}
	}
}

func TestDecodeErrors(t *testing.T) {
	cases := [][]byte{
		{},             // empty
		{wNot},         // underflow
		{wVar},         // missing varint
		{wVar, 0},      // variable 0 invalid
		{wTrue, wTrue}, // two values left
		{wAnd, 2},      // arity underflow
		{0xFF},         // unknown opcode
		{wTrue, wAnd},  // truncated arity varint... (Uvarint on empty)
	}
	for _, data := range cases {
		if _, err := Decode(data); err == nil {
			t.Errorf("Decode(%v) succeeded, want error", data)
		}
	}
}

func TestEncodeDecodeVec(t *testing.T) {
	vec := []*Formula{True(), V(5), And(V(1), Not(V(2)))}
	back, err := DecodeVec(EncodeVec(vec))
	if err != nil {
		t.Fatal(err)
	}
	for i := range vec {
		if !Equal(vec[i], back[i]) {
			t.Errorf("entry %d: %v -> %v", i, vec[i], back[i])
		}
	}
	if _, err := DecodeVec([][]byte{{wNot}}); err == nil {
		t.Error("DecodeVec must propagate entry errors")
	}
}

// Property: encode/decode preserves semantics under all assignments of a
// small variable set.
func TestQuickWireRoundTrip(t *testing.T) {
	const nv = 4
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		fm := randomFormula(r, 5, nv)
		back, err := Decode(Encode(fm))
		if err != nil {
			return false
		}
		for mask := 0; mask < 1<<nv; mask++ {
			get := func(v Var) bool { return mask&(1<<(int(v)-1)) != 0 }
			if fm.Eval(get) != back.Eval(get) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 250}); err != nil {
		t.Fatal(err)
	}
}

// Property: the wire size is linear in the formula size — the residual
// functions crossing the network stay small.
func TestQuickWireSizeLinear(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		fm := randomFormula(r, 6, 8)
		return len(Encode(fm)) <= 6*fm.Size()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// deepChain builds an alternating ¬/∧ chain of the given depth — the shape
// the smart constructors cannot flatten, so depth survives construction.
func deepChain(depth int) *Formula {
	f := V(1)
	for i := 0; i < depth; i++ {
		f = Not(And(f, V(Var(2+i%3))))
	}
	return f
}

// TestEncodeDeepChainNoOverflow is the regression for the recursive
// encoder: a fuzz-found deep chain must encode and decode on the heap, not
// the goroutine stack.
func TestEncodeDeepChainNoOverflow(t *testing.T) {
	f := deepChain(200_000)
	enc := Encode(f)
	if len(enc) != EncodedSize(f) {
		t.Fatalf("EncodedSize = %d, Encode produced %d bytes", EncodedSize(f), len(enc))
	}
	back, err := Decode(enc)
	if err != nil {
		t.Fatal(err)
	}
	if !Equal(f, back) {
		t.Error("deep chain did not round-trip structurally")
	}
}

func TestEncodePreSized(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for i := 0; i < 200; i++ {
		f := randomFormula(r, 6, 8)
		enc := Encode(f)
		if len(enc) != EncodedSize(f) {
			t.Fatalf("%v: EncodedSize = %d, len(Encode) = %d", f, EncodedSize(f), len(enc))
		}
		if cap(enc) != len(enc) {
			t.Errorf("%v: Encode over-allocated: cap %d for %d bytes", f, cap(enc), len(enc))
		}
	}
}

func TestDecodeErrorsAreTyped(t *testing.T) {
	for _, data := range [][]byte{{wNot}, {wVar}, {wVar, 0}, {0xFF}, {wTrue, wTrue}} {
		if _, err := Decode(data); !errors.Is(err, ErrDecode) {
			t.Errorf("Decode(%v) = %v, want ErrDecode", data, err)
		}
	}
}

func BenchmarkEncode(b *testing.B) {
	r := rand.New(rand.NewSource(42))
	corpus := make([]*Formula, 64)
	for i := range corpus {
		corpus[i] = randomFormula(r, 6, 8)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Encode(corpus[i%len(corpus)])
	}
}
