package dist

import (
	"bytes"
	"testing"
)

// FuzzReadFrame drives the frame reader with arbitrary byte streams: it
// must never panic, never allocate the announced length eagerly beyond
// the cap (a hostile 4-byte header must not pin a gigabyte), and on
// success must account exactly the bytes it consumed.
func FuzzReadFrame(f *testing.F) {
	// Well-formed frames: a request and an error response.
	if payload, err := EncodeRequest(Binary, &echoReq{Payload: "seed"}); err == nil {
		var buf bytes.Buffer
		writeFrame(&buf, payload)
		f.Add(buf.Bytes())
	}
	if payload, err := EncodeResponse(Binary, nil, "seed error", 1); err == nil {
		var buf bytes.Buffer
		writeFrame(&buf, payload)
		f.Add(buf.Bytes())
	}
	f.Add([]byte{})                             // empty stream
	f.Add([]byte{0, 0, 0, 0})                   // zero-length frame
	f.Add([]byte{0xff, 0xff, 0xff, 0xff})       // length beyond maxFrame
	f.Add([]byte{0x7f, 0xff, 0xff, 0xff, 1, 2}) // huge announced, tiny actual
	f.Add([]byte{0, 0, 0, 5, 'a', 'b'})         // truncated payload
	f.Fuzz(func(t *testing.T, data []byte) {
		payload, n, err := readFrame(bytes.NewReader(data))
		if err != nil {
			return
		}
		if n != frameHeader+int64(len(payload)) {
			t.Fatalf("accounted %d bytes for a %d-byte payload", n, len(payload))
		}
		if int(n) > len(data) {
			t.Fatalf("claimed to read %d of %d available bytes", n, len(data))
		}
	})
}

// FuzzDecodeEnvelope feeds arbitrary bytes to the payload decoders of
// both envelope kinds — the exact path a hostile peer controls after
// framing. Malformed input must error, never panic.
func FuzzDecodeEnvelope(f *testing.F) {
	// Seeds: request, ok-response, error-response, plus corrupted shapes
	// (wrong version, unknown tag, truncated body).
	if p, err := EncodeRequest(Binary, &echoReq{Payload: "seed request"}); err == nil {
		f.Add(p)
		f.Add(p[:len(p)-3])
		bad := append([]byte(nil), p...)
		bad[0] = 0x7f
		f.Add(bad)
	}
	if p, err := EncodeResponse(Binary, &echoResp{Payload: "pong", Site: 3}, "", 1); err == nil {
		f.Add(p)
	}
	if p, err := EncodeResponse(Binary, nil, "handler failed", 1); err == nil {
		f.Add(p)
	}
	f.Add([]byte{binVersion, binKindReq, 0xBD, 0x01}) // unknown tag 189
	f.Add([]byte{})
	f.Add([]byte{0x03, 0xff, 0x82})
	f.Fuzz(func(t *testing.T, data []byte) {
		_, _ = decodeRequest(data)
		_, _ = decodeResponse(data)
	})
}
