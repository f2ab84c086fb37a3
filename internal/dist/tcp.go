package dist

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"
)

// TCPServer serves one site's Handler over TCP: it accepts connections and
// answers request frames with response frames, one at a time per
// connection. Handler errors (and panics) are propagated to the caller in
// the response envelope; the connection stays usable.
type TCPServer struct {
	ln net.Listener
	h  Handler

	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	closed bool
}

// NewTCPServer listens on addr (e.g. "127.0.0.1:0") and serves h.
func NewTCPServer(addr string, h Handler) (*TCPServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("dist: listen %s: %w", addr, err)
	}
	s := &TCPServer{ln: ln, h: h, conns: make(map[net.Conn]struct{})}
	go s.acceptLoop()
	return s, nil
}

// Addr returns the server's bound address, usable in the address map of
// NewTCP.
func (s *TCPServer) Addr() string { return s.ln.Addr().String() }

// Close stops accepting and severs every open connection, including those
// with a request in flight — their callers see a transport error. It does
// not wait for running handlers to return.
func (s *TCPServer) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	conns := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	err := s.ln.Close()
	for _, c := range conns {
		c.Close()
	}
	return err
}

func (s *TCPServer) acceptLoop() {
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return // Close tore the listener down
			}
			// Transient accept failure (e.g. fd exhaustion): back off and
			// keep serving rather than silently abandoning the listener.
			time.Sleep(5 * time.Millisecond)
			continue
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		go s.serveConn(conn)
	}
}

func (s *TCPServer) serveConn(conn net.Conn) {
	defer func() {
		conn.Close()
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
	}()
	for {
		payload, _, err := readFrame(conn)
		if err != nil {
			return // client went away, or Close severed us
		}
		env := respEnvelope{}
		if req, err := decodeRequest(payload); err != nil {
			env.Err = err.Error()
		} else {
			start := time.Now()
			resp, herr := invokeHandler(s.h, req)
			env.Compute = takeCompute(resp, time.Since(start))
			if herr != nil {
				env.Err = herr.Error()
			} else {
				env.Resp = resp
			}
		}
		// Encode header and envelope into one pooled buffer; a single
		// Write ships the whole frame.
		bp, frame, err := encodeFrame(func(dst []byte) ([]byte, error) {
			return appendResponse(dst, env)
		})
		if err != nil {
			// The handler produced an unencodable response; report that
			// instead of dropping the connection.
			encErr := err.Error()
			bp, frame, err = encodeFrame(func(dst []byte) ([]byte, error) {
				return appendResponse(dst, respEnvelope{Err: encErr, Compute: env.Compute})
			})
			if err != nil {
				return
			}
		}
		_, werr := conn.Write(frame)
		putFrame(bp)
		if werr != nil {
			return
		}
	}
}

// TCP is the client transport: it connects to one TCPServer per site as
// listed in the address map, pooling idle connections per site.
//
// Delivery is at most once: a request is never resent, so a site handler
// can never observe the same stage request twice. A pooled connection
// that the site dropped while idle (site restart) is detected with a
// non-blocking probe before the request is written and replaced by a
// fresh dial; a connection that dies mid-call fails that call.
type TCP struct {
	addrs map[SiteID]string
	m     *Metrics

	mu     sync.Mutex
	idle   map[SiteID][]net.Conn
	active map[net.Conn]struct{}
	closed bool
}

// NewTCP creates a client for a cluster of TCP sites. Connections are
// dialed lazily on first use.
func NewTCP(addrs map[SiteID]string) *TCP {
	t := &TCP{
		addrs:  make(map[SiteID]string, len(addrs)),
		m:      NewMetrics(),
		idle:   make(map[SiteID][]net.Conn),
		active: make(map[net.Conn]struct{}),
	}
	for id, a := range addrs {
		t.addrs[id] = a
	}
	return t
}

// Metrics returns the transport's counters.
func (t *TCP) Metrics() *Metrics { return t.m }

// Addrs returns a copy of the site address map the transport dials.
func (t *TCP) Addrs() map[SiteID]string {
	out := make(map[SiteID]string, len(t.addrs))
	for id, a := range t.addrs {
		out[id] = a
	}
	return out
}

// Close drops every connection, idle and in flight; calls in flight fail
// with a transport error.
func (t *TCP) Close() error {
	t.mu.Lock()
	t.closed = true
	conns := make([]net.Conn, 0, len(t.active))
	for _, idle := range t.idle {
		conns = append(conns, idle...)
	}
	for c := range t.active {
		conns = append(conns, c)
	}
	t.idle = make(map[SiteID][]net.Conn)
	t.active = make(map[net.Conn]struct{})
	t.mu.Unlock()
	for _, c := range conns {
		c.Close()
	}
	return nil
}

// popIdle checks one pooled connection out for the site, or nil.
func (t *TCP) popIdle(to SiteID) (net.Conn, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return nil, ErrTransportClosed
	}
	conns := t.idle[to]
	if len(conns) == 0 {
		return nil, nil
	}
	conn := conns[len(conns)-1]
	t.idle[to] = conns[:len(conns)-1]
	t.active[conn] = struct{}{}
	return conn, nil
}

// dialBackoffs are the waits between dial attempts in getConn: a site
// that is restarting (its listener briefly down) is reached on a later
// attempt instead of failing the call. The schedule is short — a site
// that stays unreachable past ~100ms is treated as dead and handed to
// the failover layer, which owns the longer replica-rotation backoff.
var dialBackoffs = []time.Duration{5 * time.Millisecond, 20 * time.Millisecond, 80 * time.Millisecond}

// getConn returns a healthy connection for the site: a pooled one that
// passes the staleness probe, else a fresh dial bounded by ctx. Dial
// failures are retried on the dialBackoffs schedule before the site is
// reported unavailable, so a peer restart between two queries costs a
// redial, not a failed call.
func (t *TCP) getConn(ctx context.Context, to SiteID) (net.Conn, error) {
	for {
		conn, err := t.popIdle(to)
		if err != nil {
			return nil, err
		}
		if conn == nil {
			break
		}
		if staleConn(conn) {
			t.dropConn(conn)
			continue
		}
		return conn, nil
	}
	t.mu.Lock()
	addr := t.addrs[to]
	closed := t.closed
	t.mu.Unlock()
	if closed {
		return nil, ErrTransportClosed
	}
	if addr == "" {
		return nil, fmt.Errorf("dist: unknown site %d", to)
	}
	var d net.Dialer
	var conn net.Conn
	var err error
	for attempt := 0; ; attempt++ {
		conn, err = d.DialContext(ctx, "tcp", addr)
		if err == nil {
			break
		}
		if ctx.Err() != nil || attempt >= len(dialBackoffs) {
			return nil, siteUnavailable(to, fmt.Errorf("dial %s: %w", addr, err))
		}
		select {
		case <-ctx.Done():
			return nil, siteUnavailable(to, fmt.Errorf("dial %s: %w", addr, err))
		case <-time.After(dialBackoffs[attempt]):
		}
	}
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		conn.Close()
		return nil, ErrTransportClosed
	}
	t.active[conn] = struct{}{}
	t.mu.Unlock()
	return conn, nil
}

// putConn returns a connection to the idle pool.
func (t *TCP) putConn(to SiteID, conn net.Conn) {
	t.mu.Lock()
	defer t.mu.Unlock()
	delete(t.active, conn)
	if t.closed {
		conn.Close()
		return
	}
	t.idle[to] = append(t.idle[to], conn)
}

// dropConn discards a connection that failed or went stale.
func (t *TCP) dropConn(conn net.Conn) {
	t.mu.Lock()
	delete(t.active, conn)
	t.mu.Unlock()
	conn.Close()
}

// Call performs one round trip to the site. Handler errors come back as
// plain errors with a valid CallCost (the site did the work); transport
// errors identify the site and carry a zero cost. The lifetime Metrics are
// updated once per completed round trip with the bytes actually put on the
// wire and the handler time the server reported.
//
// The context bounds the whole round trip. Cancellation or deadline
// expiry unblocks any in-flight read or write by poisoning the
// connection's I/O deadline; the connection is then discarded (its stream
// may hold a half-delivered frame), and the call fails with the context's
// error.
func (t *TCP) Call(ctx context.Context, to SiteID, req any) (any, CallCost, error) {
	// Header and envelope are laid out in one pooled buffer up front: the
	// whole frame ships with a single Write and the steady-state encode
	// path allocates nothing.
	bp, frame, err := encodeFrame(func(dst []byte) ([]byte, error) {
		return appendRequest(dst, req)
	})
	if err != nil {
		return nil, CallCost{}, err
	}
	defer putFrame(bp)
	conn, err := t.getConn(ctx, to)
	if err != nil {
		if ctxErr := ctx.Err(); ctxErr != nil {
			return nil, CallCost{}, fmt.Errorf("dist: site %d: %w", to, ctxErr)
		}
		return nil, CallCost{}, err
	}
	stop := context.AfterFunc(ctx, func() {
		conn.SetDeadline(time.Unix(1, 0)) // the distant past: fail all I/O now
	})
	env, sent, recvd, err := roundTrip(conn, frame)
	canceled := !stop()
	if err != nil {
		t.dropConn(conn)
		if ctxErr := ctx.Err(); canceled && ctxErr != nil {
			return nil, CallCost{}, fmt.Errorf("dist: site %d: %w", to, ctxErr)
		}
		if errors.Is(err, ErrMessageTooLarge) {
			// The site answered with a frame over the limit; a replica
			// would build the same response, so this is not retriable.
			return nil, CallCost{}, fmt.Errorf("dist: site %d: %w", to, err)
		}
		// The connection died mid-call (site killed, listener torn down):
		// the site is unavailable, and since the response never arrived
		// the failover layer may re-run the request on a replica.
		return nil, CallCost{}, siteUnavailable(to, err)
	}
	if canceled {
		// The round trip won the race against cancellation, but the
		// poisoned deadline makes the connection unusable for pooling.
		t.dropConn(conn)
	} else {
		t.putConn(to, conn)
	}
	cost := CallCost{Sent: sent, Recv: recvd, Compute: env.Compute}
	t.m.Add(to, cost)
	if env.Err != "" {
		return nil, cost, errors.New(env.Err)
	}
	return env.Resp, cost, nil
}

// roundTrip writes one pre-framed request and reads the response frame.
func roundTrip(conn net.Conn, frame []byte) (env respEnvelope, sent, recvd int64, err error) {
	if _, err = conn.Write(frame); err != nil {
		return env, 0, 0, err
	}
	sent = int64(len(frame))
	respPayload, recvd, err := readFrame(conn)
	if err != nil {
		return env, 0, 0, err
	}
	if env, err = decodeResponse(respPayload); err != nil {
		return env, 0, 0, err
	}
	return env, sent, recvd, nil
}
