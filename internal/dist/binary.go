package dist

import (
	"encoding/binary"
	"errors"
	"fmt"
	"reflect"
	"slices"
	"sync"
	"time"

	"paxq/internal/wirefmt"
)

// The envelope grammar (everything inside one frame):
//
//	payload  := version kind rest
//	version  := 0x01                     (binVersion)
//	kind     := 0x00 request | 0x01 response
//	request  := tag body                 (tag 0x00: nil request, no body)
//	response := compute status rest
//	compute  := 8 bytes big-endian       (handler nanoseconds, fixed width)
//	status   := 0x00 ok  -> tag body     (tag 0x00: nil response)
//	          | 0x01 err -> uvarint-length-prefixed error string
//	tag      := uvarint                  (RegisterBinary)
//	body     := the message's own AppendBinary bytes
//
// The version byte leads every payload so a future format change fails
// loudly with ErrBadVersion instead of desynchronizing the stream. The
// golden-bytes corpus of internal/pax pins the format: a change to any
// byte of it is a binVersion bump.
const (
	binVersion byte = 0x01

	binKindReq  byte = 0x00
	binKindResp byte = 0x01

	binStatusOK  byte = 0x00
	binStatusErr byte = 0x01
)

// Typed decode errors, matchable with errors.Is. They surface to callers
// through Call (a response that fails to decode) and to sites through the
// error envelope (a request that fails to decode).
var (
	// ErrBadVersion reports a payload whose version byte is not a version
	// this build speaks.
	ErrBadVersion = errors.New("dist: unsupported codec version")
	// ErrUnknownTag reports a message tag absent from the binary registry —
	// a peer speaking a newer protocol, or corruption.
	ErrUnknownTag = errors.New("dist: unknown message tag")
	// ErrBadEnvelope reports an envelope that is structurally broken:
	// truncated, an unknown kind or status byte, or trailing garbage.
	ErrBadEnvelope = errors.New("dist: malformed envelope")
)

// MsgTag is the numeric identity of a message type on the wire. Tags are
// part of the protocol: changing a type's tag is a wire-format break.
type MsgTag uint32

// BinaryMessage is a request or response that encodes itself on the
// wire. AppendBinary appends the message body to dst (so the transport
// encodes straight into a pooled frame buffer); DecodeBinary decodes a
// body and must consume it exactly. Implementations may alias sub-slices
// of the input — the transport never recycles a received frame's buffer.
type BinaryMessage interface {
	WireTag() MsgTag
	AppendBinary(dst []byte) ([]byte, error)
	DecodeBinary(data []byte) error
}

// binaryRegistry maps tags to factories. Registration happens in package
// init functions (internal/pax registers its stage messages); lookups are
// on the hot decode path.
var binaryRegistry = struct {
	sync.RWMutex
	factory map[MsgTag]func() BinaryMessage
	typeOf  map[MsgTag]reflect.Type
}{
	factory: make(map[MsgTag]func() BinaryMessage),
	typeOf:  make(map[MsgTag]reflect.Type),
}

// RegisterBinary makes a message type known to the codec. The
// factory must return a fresh, zero message; its WireTag names the type on
// the wire. Registering the same concrete type again is a no-op;
// registering a different type under an already-taken tag panics — tag
// collisions are protocol bugs that must fail at init, not at decode.
func RegisterBinary(factory func() BinaryMessage) {
	m := factory()
	tag := m.WireTag()
	if tag == 0 {
		//paxlint:allow nopanic(init-time registration: a tag collision must fail the process before it serves)
		panic("dist: RegisterBinary: tag 0 is reserved for nil messages")
	}
	t := reflect.TypeOf(m)
	binaryRegistry.Lock()
	defer binaryRegistry.Unlock()
	if prev, ok := binaryRegistry.typeOf[tag]; ok {
		if prev == t {
			return
		}
		//paxlint:allow nopanic(init-time registration: a tag collision must fail the process before it serves)
		panic(fmt.Sprintf("dist: RegisterBinary: tag %d already registered to %v, cannot register %v", tag, prev, t))
	}
	binaryRegistry.factory[tag] = factory
	binaryRegistry.typeOf[tag] = t
}

// RegisteredTags lists every registered tag in ascending order, so a
// test can demand that each one has its bytes pinned.
func RegisteredTags() []MsgTag {
	binaryRegistry.RLock()
	defer binaryRegistry.RUnlock()
	tags := make([]MsgTag, 0, len(binaryRegistry.factory))
	for tag := range binaryRegistry.factory {
		tags = append(tags, tag)
	}
	slices.Sort(tags)
	return tags
}

// newMessage instantiates the registered type for a tag.
func newMessage(tag MsgTag) (BinaryMessage, error) {
	binaryRegistry.RLock()
	factory, ok := binaryRegistry.factory[tag]
	binaryRegistry.RUnlock()
	if !ok {
		return nil, fmt.Errorf("%w: %d", ErrUnknownTag, tag)
	}
	return factory(), nil
}

// appendMessage appends tag + body for msg (nil encodes as tag 0).
func appendMessage(dst []byte, msg any) ([]byte, error) {
	if msg == nil {
		return append(dst, 0), nil
	}
	bm, ok := msg.(BinaryMessage)
	if !ok {
		return nil, fmt.Errorf("dist: %T does not implement BinaryMessage", msg)
	}
	// A typed-nil response (a handler's `return resp, nil` with a nil
	// *Resp) passes the interface nil check above but would panic inside
	// AppendBinary — on the server's encode path, outside invokeHandler's
	// recover, killing the whole site. Degrade it to an error envelope.
	if v := reflect.ValueOf(msg); v.Kind() == reflect.Pointer && v.IsNil() {
		return nil, fmt.Errorf("dist: cannot encode typed-nil %T", msg)
	}
	tag := bm.WireTag()
	if tag == 0 {
		return nil, fmt.Errorf("dist: %T reports reserved tag 0", msg)
	}
	dst = binary.AppendUvarint(dst, uint64(tag))
	return bm.AppendBinary(dst)
}

// consumeMessage decodes a tag + body occupying all of p.
func consumeMessage(p []byte) (any, error) {
	tag, rest, err := wirefmt.Uvarint(p)
	if err != nil {
		return nil, fmt.Errorf("%w: message tag: %v", ErrBadEnvelope, err)
	}
	if tag == 0 {
		if len(rest) != 0 {
			return nil, fmt.Errorf("%w: %d bytes after nil message", ErrBadEnvelope, len(rest))
		}
		return nil, nil
	}
	m, err := newMessage(MsgTag(tag))
	if err != nil {
		return nil, err
	}
	if err := m.DecodeBinary(rest); err != nil {
		return nil, fmt.Errorf("dist: decode %T: %w", m, err)
	}
	return m, nil
}

// appendRequest appends a request payload.
func appendRequest(dst []byte, req any) ([]byte, error) {
	dst = append(dst, binVersion, binKindReq)
	return appendMessage(dst, req)
}

// decodeRequest decodes a request payload.
func decodeRequest(p []byte) (any, error) {
	rest, err := consumeEnvelopeHeader(p, binKindReq)
	if err != nil {
		return nil, err
	}
	return consumeMessage(rest)
}

// appendResponse appends a response payload.
func appendResponse(dst []byte, env respEnvelope) ([]byte, error) {
	dst = append(dst, binVersion, binKindResp)
	var compute [8]byte
	binary.BigEndian.PutUint64(compute[:], uint64(env.Compute))
	dst = append(dst, compute[:]...)
	if env.Err != "" {
		dst = append(dst, binStatusErr)
		return wirefmt.AppendString(dst, env.Err), nil
	}
	dst = append(dst, binStatusOK)
	return appendMessage(dst, env.Resp)
}

// decodeResponse decodes a response payload.
func decodeResponse(p []byte) (respEnvelope, error) {
	rest, err := consumeEnvelopeHeader(p, binKindResp)
	if err != nil {
		return respEnvelope{}, err
	}
	if len(rest) < 9 {
		return respEnvelope{}, fmt.Errorf("%w: response of %d bytes", ErrBadEnvelope, len(p))
	}
	env := respEnvelope{Compute: time.Duration(binary.BigEndian.Uint64(rest[:8]))}
	status := rest[8]
	rest = rest[9:]
	switch status {
	case binStatusOK:
		resp, err := consumeMessage(rest)
		if err != nil {
			return respEnvelope{}, err
		}
		env.Resp = resp
	case binStatusErr:
		msg, tail, err := wirefmt.String(rest)
		if err != nil {
			return respEnvelope{}, fmt.Errorf("%w: error string: %v", ErrBadEnvelope, err)
		}
		if len(tail) != 0 {
			return respEnvelope{}, fmt.Errorf("%w: %d bytes after error string", ErrBadEnvelope, len(tail))
		}
		env.Err = msg
	default:
		return respEnvelope{}, fmt.Errorf("%w: status byte %d", ErrBadEnvelope, status)
	}
	return env, nil
}

// consumeEnvelopeHeader validates the version and kind bytes.
func consumeEnvelopeHeader(p []byte, wantKind byte) ([]byte, error) {
	if len(p) < 2 {
		return nil, fmt.Errorf("%w: payload of %d bytes", ErrBadEnvelope, len(p))
	}
	if p[0] != binVersion {
		return nil, fmt.Errorf("%w: byte 0x%02x (this build speaks 0x%02x)", ErrBadVersion, p[0], binVersion)
	}
	if p[1] != wantKind {
		return nil, fmt.Errorf("%w: kind byte 0x%02x, want 0x%02x", ErrBadEnvelope, p[1], wantKind)
	}
	return p[2:], nil
}
