// Coordinator-side fragment edits. Engine.ApplyEdit broadcasts one edit to
// every replica hosting the fragment, under a version protocol that makes
// the broadcast idempotent per member:
//
//   - The engine serializes edits (editMu) and stamps each EditReq with the
//     fragment's current version as its BaseVersion.
//   - A member at BaseVersion applies and moves to BaseVersion+1; a member
//     already at BaseVersion+1 acks without re-applying — it received this
//     very edit on an earlier attempt whose response was lost. Any other
//     version is a conflict (the member diverged from the serial history).
//
// Members are retried individually with capped exponential backoff while
// they are unreachable, which is what lets an edit schedule ride out a
// drilled site outage: a member down for a restart window converges when
// it comes back (Site.Restart keeps fragments), and the version protocol
// absorbs duplicate deliveries. If a member stays dead past the retry
// budget, ApplyEdit returns an error WITHOUT advancing the engine's
// version — re-issuing the same edit is then safe and exact: already-edited
// members ack idempotently, the rest apply.
//
// A site keeps the current and the previous version of each fragment, so
// an edit makes sites drop the version that was current before the
// fragment's previous edit. Only queries begun before that edit completed
// can have read it, and the edit waits until they are done (queryGate):
// this engine's edits never make its own queries fail with ErrVersionSkew.
//
// Edits never run through the query retry loop (an edit is one call per
// member); each call goes straight to the transport, so its measured cost lands in
// the transport's lifetime totals and is mirrored, call for call, in the
// returned EditResult — the edit-side half of the cost-conservation
// invariant (Σ per-query ledgers + Σ per-edit ledgers = transport totals).

package pax

import (
	"context"
	"fmt"
	"sync"
	"time"

	"paxq/internal/dist"
	"paxq/internal/fragment"
	"paxq/internal/xmltree"
)

// editMaxAttempts bounds ApplyEdit's per-member retry loop. Sized to
// outlast a drilled restart window (the fault harness's down-windows are
// tens of milliseconds; 24 waits of the shared backoff schedule give the
// member roughly a second to come back, on either transport) while still
// failing in bounded time when a site is genuinely gone.
var editMaxAttempts = 25

// EditResult reports one applied edit: the fragment's new version and the
// edit's own transport ledger (every completed call's measured cost, failed
// attempts included).
type EditResult struct {
	Frag       fragment.FragID
	NewVersion uint64
	// Sites is the replica-group size the edit was delivered to; Replayed
	// counts members that acked idempotently instead of applying (an
	// earlier attempt's response was lost).
	Sites    int
	Replayed int
	// Dropped, Retained and Patched are always 0. They counted the fates
	// of a Stage-1 cache that no longer exists, and stay only because the
	// benchmark module still reads them.
	Dropped  int64
	Retained int64
	Patched  int64
	// Retries counts member calls attempted again after a transport
	// failure.
	Retries   int
	BytesSent int64
	BytesRecv int64
	Compute   time.Duration
}

// editReqOf renders a fragment.Edit as the wire request, without the
// version stamp (ApplyEdit adds it under its lock).
func editReqOf(fid fragment.FragID, ed fragment.Edit) (*EditReq, error) {
	req := &EditReq{
		Frag:  fid,
		Op:    uint8(ed.Op),
		Node:  ed.Node,
		Pos:   int32(ed.Pos),
		Label: ed.Label,
	}
	switch ed.Op {
	case fragment.EditInsert:
		if ed.Subtree == nil {
			return nil, fmt.Errorf("pax: insert edit for fragment %d carries no subtree: %w", fid, fragment.ErrBadSubtree)
		}
		// The sites apply the subtree they parse, so it must be the one
		// the caller built.
		if err := xmltree.CheckRoundTrip(ed.Subtree); err != nil {
			return nil, fmt.Errorf("pax: insert edit for fragment %d: %w: %w", fid, fragment.ErrBadSubtree, err)
		}
		req.SubtreeXML = xmltree.SerializeString(ed.Subtree)
	case fragment.EditDelete, fragment.EditRename:
		// No payload beyond the target (and the rename label).
	default:
		return nil, fmt.Errorf("pax: fragment %d: op %d: %w", fid, uint8(ed.Op), fragment.ErrBadOp)
	}
	return req, nil
}

// ApplyEdit applies one edit to fragment fid on every replica hosting it,
// serially with respect to other ApplyEdit calls on this engine. On success
// every member of the fragment's replica group is at the new version and
// the engine's version tracking has advanced. On error the version does NOT
// advance; see the package comment for why re-issuing the same edit is the
// safe (and exact) recovery.
//
// Note the deliberate asymmetry with queries: ApplyEdit mutates the sites'
// fragments but not the engine's own topology fragmentation, which
// coordinator planning reads only for edit-invariant facts (fragment count,
// virtual structure, annotations — exactly what the fragment edit
// restrictions pin). Callers that maintain their own oracle fragmentation
// mirror the edit with fragment.Fragmentation.ApplyEdit.
func (e *Engine) ApplyEdit(ctx context.Context, fid fragment.FragID, ed fragment.Edit) (*EditResult, error) {
	primary, ok := e.topo.SiteOf[fid]
	if !ok {
		return nil, fmt.Errorf("pax: no site hosts fragment %d", fid)
	}
	req, err := editReqOf(fid, ed)
	if err != nil {
		return nil, err
	}

	e.editMu.Lock()
	defer e.editMu.Unlock()
	if err := e.gate.wait(ctx, fid); err != nil {
		return nil, err
	}
	defer e.gate.edited(fid)
	if e.editVersions == nil {
		e.editVersions = make(map[fragment.FragID]uint64)
	}
	base, seeded := e.editVersions[fid]
	if !seeded {
		base = e.topo.FT.Frags[fid].Version
	}
	req.BaseVersion = base

	group := e.topo.ReplicasOf(primary)
	res := &EditResult{Frag: fid, Sites: len(group)}
	for _, member := range group {
		if err := e.editMember(ctx, member, req, res); err != nil {
			return res, err
		}
	}
	e.editVersions[fid] = base + 1
	res.NewVersion = base + 1
	return res, nil
}

// editMember delivers the edit to one physical site, retrying transport
// failures up to editMaxAttempts times. Every completed call's cost is
// folded into res — including failed attempts, whose cost the transport
// also recorded — so the edit's ledger mirrors the transport's totals
// exactly.
func (e *Engine) editMember(ctx context.Context, member dist.SiteID, req *EditReq, res *EditResult) error {
	for attempt := 1; ; attempt++ {
		resp, cost, err := e.tr.Call(ctx, member, req)
		res.BytesSent += cost.Sent
		res.BytesRecv += cost.Recv
		res.Compute += cost.Compute
		if err == nil {
			er, cerr := respAs[*EditResp](member, resp, "edit")
			if cerr != nil {
				return cerr
			}
			if er.NewVersion != req.BaseVersion+1 {
				return fmt.Errorf("pax: site %d: edit moved fragment %d to version %d, want %d",
					member, req.Frag, er.NewVersion, req.BaseVersion+1)
			}
			if !er.Applied {
				res.Replayed++
			}
			return nil
		}
		// Only transport-level unavailability is worth retrying: a handler
		// rejection (validation, version conflict) reproduces deterministically.
		if !dist.Retriable(err) || ctx.Err() != nil || attempt >= editMaxAttempts {
			return fmt.Errorf("pax: edit of fragment %d at site %d: %w", req.Frag, member, err)
		}
		res.Retries++
		if err := waitBackoff(ctx, attempt); err != nil {
			return fmt.Errorf("pax: edit of fragment %d at site %d: %w", req.Frag, member, err)
		}
	}
}

// queryGate orders an engine's edits after the queries that may still
// name a version the edit makes sites drop. Each query holds a ticket: the
// number of edits the engine had completed when it began. An edit of
// fragment f waits until no query holds a ticket older than f's previous
// edit, since only such a query can have read the version current before
// it.
type queryGate struct {
	mu       sync.Mutex
	left     sync.Cond // on mu, broadcast when a query leaves
	edits    uint64
	lastEdit map[fragment.FragID]uint64 // edits completed after f's last edit
	inflight map[uint64]int             // queries in flight per ticket
}

// enter admits a query and returns its ticket, which leave takes back.
func (g *queryGate) enter() uint64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.inflight == nil {
		g.inflight = make(map[uint64]int)
	}
	g.inflight[g.edits]++
	return g.edits
}

func (g *queryGate) leave(ticket uint64) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.inflight[ticket]--; g.inflight[ticket] == 0 {
		delete(g.inflight, ticket)
	}
	g.left.Broadcast()
}

// wait blocks until no query that began before fragment fid's previous
// edit completed is in flight, or ctx is done.
func (g *queryGate) wait(ctx context.Context, fid fragment.FragID) error {
	stop := context.AfterFunc(ctx, func() {
		g.mu.Lock()
		defer g.mu.Unlock()
		g.left.Broadcast()
	})
	defer stop()
	g.mu.Lock()
	defer g.mu.Unlock()
	for {
		older := false
		for t := range g.inflight {
			older = older || t < g.lastEdit[fid]
		}
		if !older {
			return nil
		}
		if err := ctx.Err(); err != nil {
			return err
		}
		g.left.Wait()
	}
}

// edited records an edit of fragment fid as completed.
func (g *queryGate) edited(fid fragment.FragID) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.lastEdit == nil {
		g.lastEdit = make(map[fragment.FragID]uint64)
	}
	g.edits++
	g.lastEdit[fid] = g.edits
}
