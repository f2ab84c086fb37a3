package xpath

import (
	"testing"

	"paxq/internal/xmltree"
)

// These tests exercise the generic evaluation recurrences directly in the
// Boolean algebra. The heavier cross-algebra coverage lives in the engine
// packages (centeval, parbox, pax), which instantiate the same functions.

func TestBoolAlg(t *testing.T) {
	var a BoolAlg
	if !a.True() || a.False() {
		t.Fatal("constants")
	}
	if a.FromBool(true) != true || a.FromBool(false) != false {
		t.Fatal("FromBool")
	}
	if a.Not(true) || !a.Not(false) {
		t.Fatal("Not")
	}
	if !a.And(true, true) || a.And(true, false) || a.And(false, true) || a.And(false, false) {
		t.Fatal("And")
	}
	if !a.Or(true, true) || !a.Or(false, true) || !a.Or(true, false) || a.Or(false, false) {
		t.Fatal("Or")
	}
}

func TestDocSelVector(t *testing.T) {
	var a BoolAlg
	// /x: [ε=true, step=false]
	c := MustCompile("/x")
	doc := DocSelVector[bool](a, c)
	if !doc[0] || doc[1] {
		t.Errorf("/x doc vector = %v", doc)
	}
	// //x: the carry after ε is true at the document node.
	c = MustCompile("//x")
	doc = DocSelVector[bool](a, c)
	if !doc[0] || !doc[1] || doc[2] {
		t.Errorf("//x doc vector = %v", doc)
	}
	// /a//b: carry after step a is false at the document node.
	c = MustCompile("/a//b")
	doc = DocSelVector[bool](a, c)
	if !doc[0] || doc[1] || doc[2] || doc[3] {
		t.Errorf("/a//b doc vector = %v", doc)
	}
}

func TestNodeSelVectorRecurrence(t *testing.T) {
	var a BoolAlg
	c := MustCompile("/a//b")
	doc := DocSelVector[bool](a, c)
	noQual := func(int) bool { t.Fatal("no qualifiers expected"); return false }

	// Root element labelled "a": prefix /a holds; carry becomes true.
	va := NodeSelVector[bool](a, c, "a", doc, noQual, nil)
	if va[0] || !va[1] || !va[2] || va[3] {
		t.Errorf("vector at a = %v", va)
	}
	// Child labelled b: the answer entry holds.
	vb := NodeSelVector[bool](a, c, "b", va, noQual, nil)
	if !vb[3] {
		t.Errorf("vector at b = %v", vb)
	}
	// Deeper b under b: carry persists through the b node.
	vbb := NodeSelVector[bool](a, c, "b", vb, noQual, nil)
	if !vbb[3] {
		t.Errorf("vector at b/b = %v", vbb)
	}
	// A root not labelled a kills everything below.
	vx := NodeSelVector[bool](a, c, "x", doc, noQual, nil)
	vunder := NodeSelVector[bool](a, c, "b", vx, noQual, nil)
	if vunder[3] {
		t.Errorf("match under wrong root: %v", vunder)
	}
}

func TestNodeSelVectorQualifierGating(t *testing.T) {
	var a BoolAlg
	c := MustCompile("/a[b]")
	doc := DocSelVector[bool](a, c)
	if got := NodeSelVector[bool](a, c, "a", doc, func(int) bool { return true }, nil); !got[1] {
		t.Errorf("qualifier true: %v", got)
	}
	if got := NodeSelVector[bool](a, c, "a", doc, func(int) bool { return false }, nil); got[1] {
		t.Errorf("qualifier false: %v", got)
	}
}

// The row functions write into the caller's dst when it is long enough,
// overwriting every entry, and allocate a row of the right length when it
// is short.
func TestRowsReuseCallerDst(t *testing.T) {
	var a BoolAlg
	c := MustCompile(`/a//b[c]`)
	doc := DocSelVector[bool](a, c)
	qual := func(int) bool { return true }
	want := NodeSelVector[bool](a, c, "a", doc, qual, nil)

	dst := make([]bool, len(c.Sel)+3)
	for i := range dst {
		dst[i] = true // stale values must be overwritten
	}
	got := NodeSelVector[bool](a, c, "a", doc, qual, dst)
	if &got[0] != &dst[0] || len(got) != len(c.Sel) {
		t.Fatalf("NodeSelVector did not reuse dst (len %d)", len(got))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("reused row = %v, want %v", got, want)
		}
	}
	if short := NodeSelVector[bool](a, c, "a", doc, qual, dst[:0:1]); len(short) != len(c.Sel) {
		t.Fatalf("short dst: len %d, want %d", len(short), len(c.Sel))
	}

	none := func(int) bool { return false }
	n := xmltree.El("c")
	wantRow := NodePredRow[bool](a, c, n, none, none, nil)
	rowDst := make([]bool, len(c.Preds))
	for i := range rowDst {
		rowDst[i] = !wantRow[i]
	}
	gotRow := NodePredRow[bool](a, c, n, none, none, rowDst)
	if &gotRow[0] != &rowDst[0] {
		t.Fatal("NodePredRow did not reuse dst")
	}
	for i := range wantRow {
		if gotRow[i] != wantRow[i] {
			t.Fatalf("reused pred row = %v, want %v", gotRow, wantRow)
		}
	}
}

func TestNodePredRowAndEvalQExpr(t *testing.T) {
	var alg BoolAlg
	// Qualifier [b//c = "x"]: preds chain b -> (desc) c(text=x).
	c := MustCompile(`a[b//c = "x"]`)
	var bIdx, cIdx int = -1, -1
	for i := range c.Preds {
		switch c.Preds[i].Test.Label {
		case "b":
			bIdx = i
		case "c":
			cIdx = i
		}
	}
	if bIdx < 0 || cIdx < 0 {
		t.Fatalf("preds = %+v", c.Preds)
	}
	// Node c with text "x": terminal pred matches.
	nc := xmltree.ElT("c", "x")
	row := NodePredRow[bool](alg, c, nc, func(int) bool { return false }, func(int) bool { return false }, nil)
	if !row[cIdx] || row[bIdx] {
		t.Errorf("row at c = %v", row)
	}
	// Node c with wrong text.
	nc2 := xmltree.ElT("c", "y")
	row = NodePredRow[bool](alg, c, nc2, func(int) bool { return false }, func(int) bool { return false }, nil)
	if row[cIdx] {
		t.Errorf("row at c(y) = %v", row)
	}
	// Node b whose strict descendants contain a c-match: pred b holds.
	nb := xmltree.El("b")
	sdv := func(p int) bool { return p == cIdx }
	row = NodePredRow[bool](alg, c, nb, func(int) bool { return false }, sdv, nil)
	if !row[bIdx] {
		t.Errorf("row at b = %v", row)
	}
	// The selection step's qualifier anchors pred b on the child axis.
	qual := c.Sel[len(c.Sel)-1].Qual
	na := xmltree.El("a")
	got := EvalQExpr[bool](alg, qual, na, func(p int) bool { return p == bIdx }, func(int) bool { return false })
	if !got {
		t.Error("anchor through child axis failed")
	}
	got = EvalQExpr[bool](alg, qual, na, func(int) bool { return false }, func(int) bool { return false })
	if got {
		t.Error("anchor without support succeeded")
	}
}

func TestEvalQExprConnectives(t *testing.T) {
	var alg BoolAlg
	n := xmltree.ElT("a", "42")
	tru := QTrue{}
	term := &QTerm{Term: TermVal, Op: CmpGt, Num: 40}
	termF := &QTerm{Term: TermText, Op: CmpEq, Str: "zzz"}
	none := func(int) bool { return false }
	if !EvalQExpr[bool](alg, tru, n, none, none) {
		t.Error("QTrue")
	}
	if !EvalQExpr[bool](alg, term, n, none, none) {
		t.Error("QTerm val")
	}
	if EvalQExpr[bool](alg, termF, n, none, none) {
		t.Error("QTerm text mismatch")
	}
	if EvalQExpr[bool](alg, &QNot{X: term}, n, none, none) {
		t.Error("QNot")
	}
	if !EvalQExpr[bool](alg, &QAnd{Xs: []QExpr{term, tru}}, n, none, none) {
		t.Error("QAnd")
	}
	if EvalQExpr[bool](alg, &QAnd{Xs: []QExpr{term, termF}}, n, none, none) {
		t.Error("QAnd false")
	}
	if !EvalQExpr[bool](alg, &QOr{Xs: []QExpr{termF, term}}, n, none, none) {
		t.Error("QOr")
	}
	if EvalQExpr[bool](alg, &QOr{Xs: []QExpr{termF}}, n, none, none) {
		t.Error("QOr false")
	}
}

func TestEvalTermAtKinds(t *testing.T) {
	n := xmltree.ElT("price", "19.5")
	if !EvalTermAt(n, TermNone, CmpEq, "", 0) {
		t.Error("TermNone must be vacuous")
	}
	if !EvalTermAt(n, TermText, CmpEq, "19.5", 0) {
		t.Error("text eq")
	}
	if !EvalTermAt(n, TermText, CmpNe, "20", 0) {
		t.Error("text ne")
	}
	if !EvalTermAt(n, TermVal, CmpLt, "", 20) {
		t.Error("val lt")
	}
	if EvalTermAt(xmltree.ElT("x", "abc"), TermVal, CmpEq, "", 0) {
		t.Error("non-numeric val must be false")
	}
}

func TestNodeTestMatches(t *testing.T) {
	if !(NodeTest{Wild: true}).Matches("anything") {
		t.Error("wildcard")
	}
	if !(NodeTest{Label: "a"}).Matches("a") || (NodeTest{Label: "a"}).Matches("b") {
		t.Error("label test")
	}
}

func TestPredHasNextAndMatchesNode(t *testing.T) {
	c := MustCompile(`x[a/b = "v"]`)
	var pa, pb *Pred
	for i := range c.Preds {
		switch c.Preds[i].Test.Label {
		case "a":
			pa = &c.Preds[i]
		case "b":
			pb = &c.Preds[i]
		}
	}
	if !pa.HasNext() || pb.HasNext() {
		t.Fatalf("continuations: a=%v b=%v", pa.HasNext(), pb.HasNext())
	}
	if !matchesElem(pb, xmltree.ElT("b", "v")) {
		t.Error("b should match with right text")
	}
	if matchesElem(pb, xmltree.ElT("b", "w")) {
		t.Error("b must not match wrong text")
	}
	if matchesElem(pb, xmltree.ElT("c", "v")) {
		t.Error("label mismatch must fail")
	}
}
