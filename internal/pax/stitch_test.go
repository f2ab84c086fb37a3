package pax

import (
	"strings"
	"testing"

	"paxq/internal/dist"
	"paxq/internal/fragment"
	"paxq/internal/xmltree"
)

// TestSpeculativeBodies: a candidate that resolves false has a
// sub-fragment below it, whose body the final stage fetches before the
// candidate resolves. No answer uses it, so its bytes are reported as
// speculative, and the ledger still counts them in BytesRecv.
func TestSpeculativeBodies(t *testing.T) {
	// /r/b: the b below x is a candidate in its own fragment (its parent's
	// context is a z variable until Stage 3) and resolves false; c, cut
	// below it, is fetched for nothing. The b below r is an answer, and y,
	// cut below it, is stitched in.
	c := xmltree.El("c")
	bx := xmltree.El("b", c)
	y := xmltree.El("y")
	tree := xmltree.NewTree(xmltree.El("r", xmltree.El("x", bx), xmltree.El("b", xmltree.ElT("v", "1"), y)))
	ft, err := fragment.Cut(tree, []xmltree.NodeID{bx.ID, c.ID, y.ID})
	if err != nil {
		t.Fatal(err)
	}
	topo := RoundRobin(ft, 2)
	local, _ := BuildLocalCluster(topo)
	eng := NewEngine(topo, local)
	res, err := eng.Run("/r/b", Options{Algorithm: PaX3, ShipXML: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Answers) != 1 || res.Answers[0].XML != "<b><v>1</v><y/></b>" {
		t.Fatalf("answers = %+v, want the one <b> below r", res.Answers)
	}
	// The body of fragment 2, "<c/>": its ID, its length and its 4 bytes.
	if res.SpeculativeBytes != 6 {
		t.Errorf("SpeculativeBytes = %d, want 6", res.SpeculativeBytes)
	}
	if sent, recv := local.Metrics().Bytes(); res.BytesSent != sent || res.BytesRecv != recv {
		t.Errorf("ledger %d/%d bytes, transport %d/%d", res.BytesSent, res.BytesRecv, sent, recv)
	}
	if res.MaxVisits > 3 {
		t.Errorf("MaxVisits = %d, bound 3", res.MaxVisits)
	}
}

// TestStitchReadsQuerySnapshot: an edit to a sub-fragment that lands
// between the selection stage and the final stage must not reach the
// stitched answer. The qualifier was decided on the fragment's old
// version, so the body the final stage ships must be that version too:
// the answer equals the pre-edit document, whatever the algorithm.
func TestStitchReadsQuerySnapshot(t *testing.T) {
	y := xmltree.El("y", xmltree.ElT("name", "n"))
	bx := xmltree.El("b")
	tree := xmltree.NewTree(xmltree.El("r", xmltree.El("x", bx), xmltree.El("b", xmltree.ElT("v", "1"), y)))
	const query = "/r/b[y/name]"
	const want = "<b><v>1</v><y><name>n</name></y></b>"
	for _, alg := range []Algorithm{PaX3, PaX2} {
		t.Run(alg.String(), func(t *testing.T) {
			ft, err := fragment.Cut(tree, []xmltree.NodeID{bx.ID, y.ID})
			if err != nil {
				t.Fatal(err)
			}
			yFrag := fragment.FragID(2)
			if ft.Frag(yFrag).Tree.LabelOf(int(fragment.RootNode)) != "y" {
				t.Fatalf("fragment %d is not the cut at y", yFrag)
			}
			// One fragment a site: y's site holds no candidate, so only
			// the body fetch visits it in the final stage.
			topo := RoundRobin(ft, ft.Len())
			local, sites := BuildLocalCluster(topo)
			eng := NewEngine(topo, local)
			var ySite *Site
			for _, s := range sites {
				if s.ID() == topo.SiteOf[yFrag] {
					ySite = s
				}
			}
			edit, err := editReqOf(yFrag, fragment.Edit{Op: fragment.EditDelete, Node: 1})
			if err != nil {
				t.Fatal(err)
			}
			edit.BaseVersion = ft.Frag(yFrag).Version
			edited := false
			local.FaultHook = func(to dist.SiteID, req any) error {
				if _, ok := req.(*AnsStageReq); ok && !edited {
					edited = true
					if _, err := ySite.handleEdit(edit); err != nil {
						t.Errorf("edit: %v", err)
					}
				}
				return nil
			}
			opts := Options{Algorithm: alg, ShipXML: true, Sequential: true}
			res, err := eng.Run(query, opts)
			if err != nil {
				t.Fatal(err)
			}
			if !edited {
				t.Fatal("the query ran no final stage; the edit never landed between stages")
			}
			if len(res.Answers) != 1 || res.Answers[0].XML != want {
				t.Fatalf("answers = %+v, want one %s", res.Answers, want)
			}
			local.FaultHook = nil
			// The edit did land: a query after it selects nothing.
			res, err = eng.Run(query, opts)
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Answers) != 0 {
				t.Errorf("after the edit: answers = %+v, want none", res.Answers)
			}
		})
	}
}

// TestStitchRejectsCorruptBodies: the stubs and bodies a stitch reads come
// from sites, so a stub without a body, a body that stubs itself, and a
// stub that does not parse fail the query with an error.
func TestStitchRejectsCorruptBodies(t *testing.T) {
	for _, c := range []struct {
		name   string
		answer string
		bodies map[fragment.FragID]string
		want   string
	}{
		{"missing body", `<a><fragment-ref ref="3"/></a>`, map[fragment.FragID]string{}, "no site shipped"},
		{"cycle", `<a><fragment-ref ref="1"/></a>`, map[fragment.FragID]string{1: `<b><fragment-ref ref="2"/></b>`, 2: `<c><fragment-ref ref="1"/></c>`}, "no site shipped"},
		{"unterminated", `<a><fragment-ref ref="1"</a>`, map[fragment.FragID]string{1: `<b/>`}, "unterminated"},
		{"bad ref", `<a><fragment-ref ref="x"/></a>`, map[fragment.FragID]string{1: `<b/>`}, "ref"},
	} {
		run := []AnswerNode{{XML: c.answer}}
		if err := stitch(&Result{}, [][]AnswerNode{run}, c.bodies); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want one mentioning %q", c.name, err, c.want)
		}
	}
	// Nested stubs fill recursively, in place in every run, and a body
	// two answers of different runs share is filled once and used by both.
	res := &Result{}
	runs := [][]AnswerNode{{{XML: `<a><fragment-ref ref="1"/></a>`}}, nil, {{XML: `<fragment-ref ref="1"/>`}}}
	bodies := map[fragment.FragID]string{1: `<b><fragment-ref ref="2"/>t</b>`, 2: `<c/>`, 3: `<d/>`}
	if err := stitch(res, runs, bodies); err != nil {
		t.Fatal(err)
	}
	if got := runs[0][0].XML + " " + runs[2][0].XML; got != `<a><b><c/>t</b></a> <b><c/>t</b>` {
		t.Errorf("stitched %q", got)
	}
	if res.SpeculativeBytes != 6 {
		t.Errorf("SpeculativeBytes = %d, want 6 (fragment 3's unused body)", res.SpeculativeBytes)
	}
}
