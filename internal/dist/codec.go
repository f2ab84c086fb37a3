package dist

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"slices"
	"sync"
	"time"
)

// Codec names the wire encoding of request and response envelopes. It has
// one value: Binary, the hand-written, versioned format in which messages
// implement BinaryMessage and travel as a numeric tag plus a hand-encoded
// body — no type descriptors, no reflection, so the bytes on the wire
// track the paper's cost accounting (residual formulas ship in their
// boolexpr postfix encoding plus a few bytes of framing). The type and
// the Codec parameter of EncodeRequest and friends survive only because
// the repository benchmark compiles against them.
type Codec uint8

// Binary is the wire codec.
const Binary Codec = 0

// respEnvelope is the decoded form of a response frame. Exactly one of
// Resp and Err is meaningful; Compute is the handler's computation time
// at the site (self-reported via ComputeReporter when the site evaluated
// in parallel, measured wall time otherwise). It travels as a fixed
// 8 bytes: a varint would make a response's wire size depend on the
// magnitude of the site's computation time, so byte totals would jitter
// from run to run.
type respEnvelope struct {
	Resp    any
	Err     string
	Compute time.Duration
}

// EncodeRequest encodes req as a request payload. Exported for benchmarks
// and codec tests; transports use the pooled append path internally.
func EncodeRequest(_ Codec, req any) ([]byte, error) {
	return appendRequest(nil, req)
}

// DecodeRequest decodes a request payload produced by EncodeRequest (or
// read off the wire).
func DecodeRequest(_ Codec, payload []byte) (any, error) {
	return decodeRequest(payload)
}

// EncodeResponse encodes a response payload: a successful resp, or a
// handler error string, with the site's computation time. Exported for
// benchmarks and codec tests.
func EncodeResponse(_ Codec, resp any, handlerErr string, compute time.Duration) ([]byte, error) {
	return appendResponse(nil, respEnvelope{Resp: resp, Err: handlerErr, Compute: compute})
}

// DecodeResponse decodes a response payload, returning the response
// value, the handler error string (empty on success) and the reported
// computation time.
func DecodeResponse(_ Codec, payload []byte) (resp any, handlerErr string, compute time.Duration, err error) {
	env, err := decodeResponse(payload)
	if err != nil {
		return nil, "", 0, err
	}
	return env.Resp, env.Err, env.Compute, nil
}

// frameHeader is the size of the length prefix preceding every payload.
const frameHeader = 4

// maxFrame bounds a single message; larger frames indicate a corrupt or
// hostile stream and abort the connection.
const maxFrame = 1 << 30

// ErrMessageTooLarge reports a frame over maxFrame, on either side: a
// payload the sender refuses to ship, or a length prefix the receiver
// refuses to read. It is permanent for the call — the same request
// produces the same frame on every replica.
var ErrMessageTooLarge = errors.New("dist: message too large")

// errTooLarge is the ErrMessageTooLarge of an n-byte payload.
func errTooLarge(n int64) error {
	return fmt.Errorf("%w: frame of %d bytes exceeds the %d-byte limit", ErrMessageTooLarge, n, maxFrame)
}

// framePool recycles whole-frame buffers (header + payload) across calls
// and responses, so the steady-state frame write path allocates nothing.
var framePool = sync.Pool{
	New: func() any {
		b := make([]byte, 0, 4096)
		return &b
	},
}

// frameChunk is the one bound on frame buffers: the capacity a buffer may
// retain in the pool, so the occasional giant frame (a NaiveCentralized
// fetch) does not pin its buffer forever, and the most readFrame grows a
// buffer ahead of the bytes that have arrived, so a corrupt or hostile
// length prefix announcing up to maxFrame (1 GiB) cannot commit a large
// allocation with a 4-byte header.
const frameChunk = 1 << 20

func getFrame() *[]byte { return framePool.Get().(*[]byte) }

func putFrame(bp *[]byte) {
	if cap(*bp) <= frameChunk {
		framePool.Put(bp)
	}
}

// encodeFrame encodes one length-prefixed frame into a pooled buffer:
// 4 bytes of header space, then the payload appended by fill, then the
// header patched in — laid out contiguously so the caller ships it with a
// single Write. Returns the buffer pointer (release with putFrame) and
// the framed bytes.
func encodeFrame(fill func(dst []byte) ([]byte, error)) (*[]byte, []byte, error) {
	bp := getFrame()
	buf := append((*bp)[:0], 0, 0, 0, 0)
	buf, err := fill(buf)
	if err != nil {
		putFrame(bp)
		return nil, nil, err
	}
	n := len(buf) - frameHeader
	if n > maxFrame {
		putFrame(bp)
		return nil, nil, errTooLarge(int64(n))
	}
	binary.BigEndian.PutUint32(buf, uint32(n))
	*bp = buf // keep the grown capacity for reuse
	return bp, buf, nil
}

// writeFrame writes one length-prefixed payload. It returns the total
// bytes put on the wire (header + payload). Payloads over maxFrame are
// rejected up front — the receiver would drop the connection after the
// bytes were shipped, and beyond 4 GiB the length prefix itself would
// wrap and desynchronize the stream.
// Header and payload go out in a single Write: sockets default to
// TCP_NODELAY, so separate writes would flush the 4-byte header as its
// own segment.
func writeFrame(w io.Writer, payload []byte) (int64, error) {
	bp, frame, err := encodeFrame(func(dst []byte) ([]byte, error) {
		return append(dst, payload...), nil
	})
	if err != nil {
		return 0, err
	}
	defer putFrame(bp)
	if _, err := w.Write(frame); err != nil {
		return 0, err
	}
	return int64(len(frame)), nil
}

// readFrame reads one length-prefixed payload into buf, reusing its
// capacity (pass a pooled frame buffer), and returns the payload and the
// total bytes taken off the wire. The buffer grows at most frameChunk
// bytes ahead of the bytes read. Decoded messages never alias the payload
// (see BinaryMessage), so the caller returns the buffer to the pool once
// it has decoded the frame.
func readFrame(r io.Reader, buf []byte) ([]byte, int64, error) {
	var hdr [frameHeader]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return buf, 0, err
	}
	n := int(binary.BigEndian.Uint32(hdr[:]))
	if n > maxFrame {
		return buf, 0, errTooLarge(int64(n))
	}
	buf = buf[:0]
	for len(buf) < n {
		have := len(buf)
		buf = slices.Grow(buf, min(n-have, frameChunk))[:min(n, have+frameChunk)]
		if _, err := io.ReadFull(r, buf[have:]); err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return buf, 0, err
		}
	}
	return buf, frameHeader + int64(n), nil
}
