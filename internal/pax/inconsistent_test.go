package pax

import (
	"context"
	"errors"
	"strings"
	"testing"

	"paxq/internal/boolexpr"
	"paxq/internal/dist"
	"paxq/internal/fragment"
	"paxq/internal/parbox"
	"paxq/internal/testutil"
	"paxq/internal/xpath"
)

// TestInconsistentSiteDataSurfacesTypedError locks in the panic-to-error
// contract of the unification layer: data inconsistencies that can only be
// produced by corrupt or malicious peers must surface as query errors
// matching errors.Is(err, boolexpr.ErrInconsistent) — on both ends of the
// wire. The site-side path returns the error through the transport (a
// conflicting rebinding in virtualEnv); the coordinator-side path goes
// through the recover boundary (a binding cycle detected mid-Resolve,
// re-wrapped by inconsistentError with its %w chain intact).
func TestInconsistentSiteDataSurfacesTypedError(t *testing.T) {
	tr := testutil.PaperTree()
	query := `//broker[//stock/code = "GOOG"]/name`

	build := func() (*Engine, *dist.Local, []*Site, *fragment.Fragmentation) {
		ft, err := fragment.Cut(tr, fragment.RandomCuts(tr, 4, 31))
		if err != nil {
			t.Fatal(err)
		}
		topo := RoundRobin(ft, 3)
		local, sites := BuildLocalCluster(topo)
		return NewEngine(topo, local), local, sites, ft
	}

	// Preconditions: the clean runs must actually exercise the paths we
	// are about to corrupt — PaX3 reaches the selection stage that ships
	// VirtualQuals, and PaX2 has candidate fragments whose qualifier
	// variables the coordinator resolves.
	eng, _, _, _ := build()
	res, err := eng.Run(query, Options{Algorithm: PaX3})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stages != 3 {
		t.Fatalf("precondition: PaX3 runs %d stages, want 3", res.Stages)
	}
	if res, err = eng.Run(query, Options{Algorithm: PaX2}); err != nil {
		t.Fatal(err)
	}
	if res.Stages != 2 {
		t.Fatalf("precondition: PaX2 runs %d stages, want 2", res.Stages)
	}

	t.Run("conflicting rebinding at the site", func(t *testing.T) {
		// A hostile coordinator (or a corrupted frame) delivers the same
		// fragment's qualifier vector twice with disagreeing values. The
		// site's virtualEnv must refuse to unify rather than silently
		// pick one, and the typed error must travel back through the
		// transport to the querying caller.
		eng, local, sites, _ := build()
		for _, st := range sites {
			h := st.Handler()
			local.AddSite(st.ID(), func(req any) (any, error) {
				if sr, ok := req.(*SelStageReq); ok && len(sr.VirtualQuals) > 0 {
					dup := sr.VirtualQuals[0]
					dup.QV = append([]bool(nil), dup.QV...)
					dup.QV[0] = !dup.QV[0]
					sr.VirtualQuals = append(append([]WireBoolVals(nil), sr.VirtualQuals...), dup)
				}
				return h(req)
			})
		}
		_, err := eng.Run(query, Options{Algorithm: PaX3})
		if err == nil {
			t.Fatal("conflicting qualifier vectors: Run succeeded, want error")
		}
		if !errors.Is(err, boolexpr.ErrInconsistent) {
			t.Fatalf("err = %v, want errors.Is(err, boolexpr.ErrInconsistent)", err)
		}
	})

	t.Run("cyclic binding at the coordinator", func(t *testing.T) {
		// A corrupt site reports root vectors whose entries are defined
		// in terms of the very variables they are supposed to define.
		// PaX2's lenient evalFT unification in runPaX accepts the binding
		// (the cycle is not visible at bind time), so detection happens
		// inside Resolve when the value is consumed — a panic carrying
		// an ErrInconsistent-wrapping error value that the engine's
		// recover boundary must turn back into a typed query error.
		eng, local, sites, ft := build()
		vs := parbox.NewVarScheme(xpath.MustCompile(query), ft.Len())
		for _, st := range sites {
			h := st.Handler()
			local.AddSite(st.ID(), func(req any) (any, error) {
				resp, err := h(req)
				if cr, ok := resp.(*CombinedStageResp); ok {
					for i := range cr.Roots {
						if len(cr.Roots[i].QV) > 0 {
							self := boolexpr.V(vs.QV(cr.Roots[i].Frag, 0))
							cr.Roots[i].QV[0] = boolexpr.Encode(self)
						}
					}
				}
				return resp, err
			})
		}
		_, err := eng.Run(query, Options{Algorithm: PaX2})
		if err == nil {
			t.Fatal("cyclic root vectors: Run succeeded, want error")
		}
		if !errors.Is(err, boolexpr.ErrInconsistent) {
			t.Fatalf("err = %v, want errors.Is(err, boolexpr.ErrInconsistent)", err)
		}
	})

	t.Run("conflicting init vectors at the site", func(t *testing.T) {
		// The answer stage's init vectors go through the same unification
		// discipline: delivering the same fragment's context twice with a
		// flipped entry must be rejected as inconsistent, not resolved by
		// last-writer-wins.
		eng, local, sites, _ := build()
		for _, st := range sites {
			h := st.Handler()
			local.AddSite(st.ID(), func(req any) (any, error) {
				if ar, ok := req.(*AnsStageReq); ok && len(ar.Inits) > 0 && len(ar.Inits[0].SV) > 0 {
					dup := ar.Inits[0]
					dup.SV = append([]bool(nil), dup.SV...)
					dup.SV[0] = !dup.SV[0]
					ar.Inits = append(append([]WireInit(nil), ar.Inits...), dup)
				}
				return h(req)
			})
		}
		_, err := eng.Run(query, Options{Algorithm: PaX2})
		if err == nil {
			t.Fatal("conflicting init vectors: Run succeeded, want error")
		}
		if !errors.Is(err, boolexpr.ErrInconsistent) {
			t.Fatalf("err = %v, want errors.Is(err, boolexpr.ErrInconsistent)", err)
		}
	})

	t.Run("answer in a bogus fragment", func(t *testing.T) {
		// A site names a fragment the fragmentation does not hold in an
		// answer of any stage: the coordinator's placement of answers by
		// fragment must fail the query with an error of its own, not
		// index out of range (which the recover boundary would report as
		// inconsistent unification data), over both transports.
		bogus := func(h dist.Handler, nfrags int) dist.Handler {
			return func(req any) (any, error) {
				resp, err := h(req)
				var ans []AnswerNode
				switch r := resp.(type) {
				case *CombinedStageResp:
					ans = r.Answers
				case *SelStageResp:
					ans = r.Answers
				case *AnsStageResp:
					ans = r.Answers
				}
				if len(ans) > 0 {
					ans[len(ans)-1].Frag = fragment.FragID(nfrags + 3)
				}
				return resp, err
			}
		}
		for _, overTCP := range []bool{false, true} {
			ft, err := fragment.Cut(tr, fragment.RandomCuts(tr, 4, 31))
			if err != nil {
				t.Fatal(err)
			}
			topo := RoundRobin(ft, 3)
			var transport dist.Transport
			if overTCP {
				addrs := make(map[dist.SiteID]string)
				for _, sid := range topo.Sites() {
					var frags []*fragment.Fragment
					for _, fid := range topo.FragsAt(sid) {
						frags = append(frags, ft.Frag(fid))
					}
					srv, err := dist.NewTCPServer("127.0.0.1:0", bogus(NewSite(sid, frags).Handler(), ft.Len()))
					if err != nil {
						t.Fatal(err)
					}
					t.Cleanup(func() { srv.Close() })
					addrs[sid] = srv.Addr()
				}
				tcp := dist.NewTCP(addrs)
				t.Cleanup(func() { tcp.Close() })
				transport = tcp
			} else {
				local, sites := BuildLocalCluster(topo)
				for _, st := range sites {
					local.AddSite(st.ID(), bogus(st.Handler(), ft.Len()))
				}
				transport = local
			}
			eng := NewEngine(topo, transport)
			// //name ships answers from the first stage that selects,
			// the qualified query from its final stage.
			for _, q := range []string{"//name", query} {
				for _, alg := range []Algorithm{PaX3, PaX2} {
					_, err := eng.Run(q, Options{Algorithm: alg})
					if err == nil || !strings.Contains(err.Error(), "not one of the") {
						t.Errorf("TCP=%v %v %q: err = %v, want the inconsistent-response error", overTCP, alg, q, err)
					}
				}
			}
		}
	})

	// The engine stays fully serviceable after rejecting hostile data on
	// a fresh, honest cluster of the same shape.
	eng, _, _, _ = build()
	if _, err := eng.RunContext(context.Background(), query, Options{Algorithm: PaX2}); err != nil {
		t.Fatalf("engine unusable after inconsistency tests: %v", err)
	}
}
