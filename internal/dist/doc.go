// Package dist is the cluster communication subsystem the pax engine sits
// on: a request/response transport between one coordinator and a set of
// numbered sites, with metering accurate enough to derive the paper's cost
// profile (bytes shipped, per-site computation, per-site visit counts)
// directly from the transport.
//
// # Contract
//
// A site is addressed by a SiteID and served by a Handler — a function
// taking one request value and returning one response value or an error.
// The coordinator holds a Transport and issues Call(ctx, site, req) round
// trips; Broadcast fans a stage out over many sites concurrently. The
// context bounds the whole round trip — dialing, writing, site
// computation, reading — so a hung site fails the call at the caller's
// deadline instead of wedging it (the TCP client unblocks in-flight I/O
// by poisoning the connection's deadline and discards the connection).
// Both sides exchange ordinary Go values; every concrete request and
// response type must be registered with the codec (RegisterBinary).
//
// Two implementations exist with identical semantics:
//
//   - Local: sites are handlers in the same process. Calls are direct
//     function invocations, but requests and responses are still passed
//     through the wire codec to meter their encoded size, so byte counts
//     match what a TCP deployment would ship. A FaultHook allows tests to
//     inject per-call network faults.
//   - TCP: each site is a TCPServer; the TCP client dials the configured
//     address map and keeps a pool of idle connections per site.
//
// # Wire format
//
// Every message is one frame: a 4-byte big-endian length n followed by n
// bytes of payload. Frames are independent — no connection history is
// needed to decode one. There is one payload format, hand-written and
// versioned:
//
//	frame    := length:4 payload          (big-endian length, <= 1 GiB;
//	                                       beyond it ErrMessageTooLarge)
//	payload  := version kind rest
//	version  := 0x01
//	kind     := 0x00 request | 0x01 response
//	request  := tag body                  (tag 0: nil request, no body)
//	response := compute:8 status rest     (compute: handler nanoseconds,
//	                                       big-endian, fixed width)
//	status   := 0x00 ok  -> tag body      (tag 0: nil response)
//	          | 0x01 err -> uvarint-length-prefixed error string
//	tag      := uvarint                   (numeric type id, RegisterBinary)
//	body     := the message's own hand-written encoding (BinaryMessage)
//
// Message bodies are built from the primitives of internal/wirefmt
// (varints, length-prefixed strings/bytes, bit-packed bool vectors);
// internal/pax encodes residual Boolean formulas in their boolexpr
// postfix form, so a stage payload is dominated by exactly the
// O(|residual formulas|) bytes of the paper's communication bound — a tag
// and a few varints of envelope, no type descriptors, no reflection.
// Decoding a wrong version byte fails with ErrBadVersion, an unknown tag
// with ErrUnknownTag, and a structurally broken envelope with
// ErrBadEnvelope — all matchable with errors.Is.
//
// The format is pinned by the golden-bytes corpus of internal/pax
// (testdata/golden): every message's encoding is compared byte for byte
// against a committed file, so an accidental change fails loudly and a
// deliberate one is a reviewed diff next to a version bump.
//
// The handler computation time travels with a fixed 8-byte width so a
// frame's size never depends on timing, and a handler whose response
// implements ComputeReporter (a site that evaluated fragments in
// parallel) supplies the summed per-fragment computation in place of
// measured wall time — the field is consumed and zeroed before encoding
// either way, keeping response payloads identical across scheduling
// modes.
//
// # Buffer management
//
// Outgoing frames are laid out in pooled buffers (sync.Pool): 4 bytes of
// header space, the envelope appended in place, the header patched in,
// one Write for the whole frame. The steady-state frame write path
// allocates nothing and never flushes a bare header as its own TCP
// segment. Incoming frames are read into fresh buffers, never pooled,
// because binary decoding aliases sub-slices (zero-copy formula payloads)
// that may outlive the call that read them.
//
// # Cost accounting
//
// Every completed round trip is measured exactly once and reported twice:
// Call returns the round trip's CallCost (bytes sent and received — frame
// payload plus length prefix, measured on the wire for TCP and via encoded
// size for Local — and the handler's wall time at the site), and the same
// cost is summed into the transport's cumulative lifetime Metrics. A
// caller that needs work attributed to a bounded unit — the pax engine
// attributes it per query — aggregates the CallCosts of its own calls into
// a private Metrics ledger (NewMetrics + Add). Broadcast returns the costs
// of a whole stage keyed by site for the same purpose. A CallCost is valid
// even when the call returned a handler error (the site did the work); it
// is zero only when the round trip never completed.
//
// # Concurrency
//
// Transports are safe for concurrent use: a Broadcast's fan-out and any
// number of independent queries may Call at the same time. The TCP client
// grows its per-site connection pool under concurrent load and shrinks it
// as connections go idle or stale. Because costs travel with each call,
// concurrent callers never contend over — and must never Reset — the
// shared lifetime counters.
package dist
