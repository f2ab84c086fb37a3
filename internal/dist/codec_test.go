package dist

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"runtime/debug"
	"strings"
	"testing"
	"time"
)

// mustEncodeReq builds a binary request payload for the tests.
func mustEncodeReq(t *testing.T, req any) []byte {
	t.Helper()
	p, err := EncodeRequest(Binary, req)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestBinaryBadVersionByte(t *testing.T) {
	p := mustEncodeReq(t, &echoReq{Payload: "x"})
	p[0] = 0x7F
	if _, err := DecodeRequest(Binary, p); !errors.Is(err, ErrBadVersion) {
		t.Errorf("version 0x7F: err = %v, want ErrBadVersion", err)
	}
	// Responses validate the version too.
	rp, err := EncodeResponse(Binary, &echoResp{}, "", time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	rp[0] = binVersion + 1
	if _, _, _, err := DecodeResponse(Binary, rp); !errors.Is(err, ErrBadVersion) {
		t.Errorf("response version 0x%02x: err = %v, want ErrBadVersion", rp[0], err)
	}
}

func TestBinaryUnknownMessageTag(t *testing.T) {
	p := []byte{binVersion, binKindReq}
	p = append(p, 0xBD, 0x01) // tag 189: unregistered
	if _, err := DecodeRequest(Binary, p); !errors.Is(err, ErrUnknownTag) {
		t.Errorf("err = %v, want ErrUnknownTag", err)
	}
}

func TestBinaryMalformedEnvelope(t *testing.T) {
	cases := map[string][]byte{
		"empty":            {},
		"version only":     {binVersion},
		"wrong kind":       {binVersion, 0x7E, 0x00},
		"short response":   {binVersion, binKindResp, 1, 2, 3},
		"bad status":       append([]byte{binVersion, binKindResp}, 0, 0, 0, 0, 0, 0, 0, 1, 0x9 /* status 9 */),
		"nil msg trailing": {binVersion, binKindReq, 0x00, 0xAA},
	}
	for name, p := range cases {
		if _, err := DecodeRequest(Binary, p); err == nil {
			t.Errorf("%s: request decode succeeded", name)
		}
		if _, _, _, err := DecodeResponse(Binary, p); err == nil {
			t.Errorf("%s: response decode succeeded", name)
		}
	}
	if _, err := DecodeRequest(Binary, []byte{binVersion, binKindResp, 0x00}); !errors.Is(err, ErrBadEnvelope) {
		t.Error("kind mismatch must be ErrBadEnvelope")
	}
}

func TestBinaryTruncatedMessageBody(t *testing.T) {
	full := mustEncodeReq(t, &echoReq{Payload: "a longer payload string"})
	for cut := 0; cut < len(full); cut++ {
		if _, err := DecodeRequest(Binary, full[:cut]); err == nil {
			t.Fatalf("prefix of %d/%d bytes decoded successfully", cut, len(full))
		}
	}
}

func TestBinaryErrorEnvelopeRoundTrip(t *testing.T) {
	p, err := EncodeResponse(Binary, nil, "site 3: stage out of order", 5*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	resp, herr, compute, err := DecodeResponse(Binary, p)
	if err != nil {
		t.Fatal(err)
	}
	if resp != nil || herr != "site 3: stage out of order" || compute != 5*time.Millisecond {
		t.Errorf("got resp=%v herr=%q compute=%v", resp, herr, compute)
	}
}

func TestBinaryNilRequestRoundTrip(t *testing.T) {
	p, err := EncodeRequest(Binary, nil)
	if err != nil {
		t.Fatal(err)
	}
	req, err := DecodeRequest(Binary, p)
	if err != nil || req != nil {
		t.Errorf("nil request round trip: %v, %v", req, err)
	}
}

// TestTypedNilResponseBecomesError pins the unencodable-response
// contract for the binary codec: a handler returning a typed-nil
// response (non-nil interface, nil pointer) must fail that one call with
// an error envelope — not panic the server's encode path and take the
// whole site down. Exercised over both transports; the TCP leg is the
// dangerous one (the encode runs outside invokeHandler's recover).
func TestTypedNilResponseBecomesError(t *testing.T) {
	handler := func(req any) (any, error) {
		if r, ok := req.(*echoReq); ok {
			if rest, found := strings.CutPrefix(r.Payload, "fail:"); found {
				return nil, errors.New(rest)
			}
		}
		return (*echoResp)(nil), nil
	}
	l := NewLocal()
	defer l.Close()
	l.AddSite(1, handler)
	if _, _, err := l.Call(context.Background(), 1, &echoReq{}); err == nil || !strings.Contains(err.Error(), "typed-nil") {
		t.Errorf("Local typed-nil response: err = %v, want typed-nil encode error", err)
	}

	srv, err := NewTCPServer("127.0.0.1:0", handler)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	tr := NewTCP(map[SiteID]string{1: srv.Addr()})
	defer tr.Close()
	if _, _, err := tr.Call(context.Background(), 1, &echoReq{}); err == nil || !strings.Contains(err.Error(), "typed-nil") {
		t.Errorf("TCP typed-nil response: err = %v, want typed-nil encode error", err)
	}
	// The connection — and the server — must survive for the next call.
	if _, _, err := tr.Call(context.Background(), 1, &echoReq{Payload: "fail:still alive"}); err == nil || !strings.Contains(err.Error(), "still alive") {
		t.Errorf("server did not survive the typed-nil response: %v", err)
	}
}

// TestFrameWritePathAllocs is the regression cap for the pooled frame
// write: steady-state encoding and writing of a binary frame must cost at
// most one allocation per call (pool churn), not one per byte region.
func TestFrameWritePathAllocs(t *testing.T) {
	req := &echoReq{Payload: strings.Repeat("x", 256)}
	// Warm the pool.
	for i := 0; i < 16; i++ {
		bp, _, err := encodeFrame(func(dst []byte) ([]byte, error) {
			return appendRequest(dst, req)
		})
		if err != nil {
			t.Fatal(err)
		}
		putFrame(bp)
	}
	avg := testing.AllocsPerRun(200, func() {
		bp, frame, err := encodeFrame(func(dst []byte) ([]byte, error) {
			return appendRequest(dst, req)
		})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := io.Discard.Write(frame); err != nil {
			t.Fatal(err)
		}
		putFrame(bp)
	})
	if avg > 1 {
		t.Errorf("frame write path allocates %.1f/op, want <= 1", avg)
	}
}

// TestFrameReadPathAllocs is the read side's cap: reading a frame into a
// pooled buffer and returning the buffer costs at most one allocation per
// call (pool churn) in steady state, for a frame far larger than a fresh
// pool buffer.
func TestFrameReadPathAllocs(t *testing.T) {
	if raceEnabled() {
		t.Skip("sync.Pool drops a random share of Puts under -race, so pool churn is not steady state")
	}
	var wire bytes.Buffer
	if _, err := writeFrame(&wire, bytes.Repeat([]byte("x"), 64<<10)); err != nil {
		t.Fatal(err)
	}
	r := bytes.NewReader(wire.Bytes())
	read := func() {
		r.Reset(wire.Bytes())
		bp := getFrame()
		payload, _, err := readFrame(r, *bp)
		*bp = payload
		if err != nil || len(payload) != 64<<10 {
			t.Fatalf("readFrame: %d bytes, %v", len(payload), err)
		}
		putFrame(bp)
	}
	for i := 0; i < 16; i++ {
		read() // warm the pool
	}
	if avg := testing.AllocsPerRun(200, read); avg > 1 {
		t.Errorf("frame read path allocates %.1f/op, want <= 1", avg)
	}
}

// raceEnabled reports whether the test binary was built with -race.
func raceEnabled() bool {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return false
	}
	for _, s := range bi.Settings {
		if s.Key == "-race" {
			return s.Value == "true"
		}
	}
	return false
}

// TestLocalCallAllocsBounded caps the whole metered Local round trip
// under the binary codec — the hot path concurrent queries share.
func TestLocalCallAllocsBounded(t *testing.T) {
	l := NewLocal()
	defer l.Close()
	l.AddSite(1, echoHandler(1))
	ctx := context.Background()
	req := &echoReq{Payload: "warm"}
	for i := 0; i < 16; i++ {
		if _, _, err := l.Call(ctx, 1, req); err != nil {
			t.Fatal(err)
		}
	}
	avg := testing.AllocsPerRun(200, func() {
		if _, _, err := l.Call(ctx, 1, req); err != nil {
			t.Fatal(err)
		}
	})
	// Handler response + decode copies + metrics; the budget guards
	// against reintroducing per-call encoder state.
	if avg > 12 {
		t.Errorf("Local.Call allocates %.1f/op, want <= 12", avg)
	}
}

// TestOversizeFrameIsTyped pins the frame limit's error on both sides: a
// length prefix announcing maxFrame+1 on the read side, and a payload of
// maxFrame+1 bytes on the write side, both matchable as
// ErrMessageTooLarge. The write-side payload is allocated but never
// touched, so it costs address space only.
func TestOversizeFrameIsTyped(t *testing.T) {
	var hdr [frameHeader]byte
	binary.BigEndian.PutUint32(hdr[:], maxFrame+1)
	if _, _, err := readFrame(bytes.NewReader(hdr[:]), nil); !errors.Is(err, ErrMessageTooLarge) {
		t.Errorf("readFrame: err = %v, want ErrMessageTooLarge", err)
	}
	_, _, err := encodeFrame(func([]byte) ([]byte, error) {
		return make([]byte, frameHeader+maxFrame+1), nil
	})
	if !errors.Is(err, ErrMessageTooLarge) {
		t.Errorf("encodeFrame: err = %v, want ErrMessageTooLarge", err)
	}
}

// TestTCPOversizeResponseNotRetriable: a site that answers with a frame
// over the limit fails the call with ErrMessageTooLarge, and not
// retriably — a replica would build the same response.
func TestTCPOversizeResponseNotRetriable(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		if _, _, err := readFrame(conn, nil); err != nil {
			return
		}
		var hdr [frameHeader]byte
		binary.BigEndian.PutUint32(hdr[:], maxFrame+1)
		conn.Write(hdr[:])
	}()
	tr := NewTCP(map[SiteID]string{1: ln.Addr().String()})
	defer tr.Close()
	_, cost, err := tr.Call(context.Background(), 1, &echoReq{Payload: "p"})
	if !errors.Is(err, ErrMessageTooLarge) || Retriable(err) {
		t.Errorf("err = %v (retriable %v), want non-retriable ErrMessageTooLarge", err, Retriable(err))
	}
	if cost != (CallCost{}) {
		t.Errorf("cost = %+v, want zero (no response envelope arrived)", cost)
	}
}
