package transport

import (
	"bufio"
	"fmt"
	"net"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// NetFault is a one-shot network disruption armed on a client: the next
// request triggers it and the fault clears. The chaos network stages use
// these to prove the coordinator's fail-open contract covers the wire.
type NetFault int32

const (
	// NetNone: no disruption.
	NetNone NetFault = iota
	// NetPartition writes a partial frame and slams the connection shut
	// mid-request — the worker may or may not have seen the request.
	NetPartition
	// NetTrickle writes the request one byte at a time until the request
	// deadline expires — a pathological slow writer.
	NetTrickle
	// NetGarbage injects non-frame bytes ahead of the request, forcing the
	// server's framing validation to fail closed and drop the connection.
	NetGarbage
)

// Client is the coordinator's side of one worker endpoint: a checkout pool
// of connections. Do takes an idle connection (or dials one), runs one
// exclusive write → read exchange on the caller's goroutine under the
// socket deadline, and returns the connection on success. Any error closes
// it instead, so a possibly desynchronized stream is never reused. No
// exchange waits behind another, and the pool never outgrows its concurrent
// callers. All failures surface as the service's typed transport errors.
type Client struct {
	network string
	addr    string
	shard   int

	mu    sync.Mutex
	conns []*poolConn // every open connection, idle or checked out

	fault atomic.Int32
}

// poolConn is one pooled connection and its buffers, owned by the Do that
// checked it out (idle excepted).
type poolConn struct {
	conn   net.Conn
	br     *bufio.Reader
	wbuf   []byte // request frame
	rbuf   []byte // response frame
	nextID uint64
	idle   bool // guarded by Client.mu
}

// NewClient builds a client for the worker at (network, addr). No
// connection is made until the first Do.
func NewClient(network, addr string, shard int) *Client {
	return &Client{network: network, addr: addr, shard: shard}
}

// InjectNetFault arms a one-shot network disruption for the next request.
func (c *Client) InjectNetFault(f NetFault) { c.fault.Store(int32(f)) }

// Close drops every connection. A Do in flight fails with ShardDownError;
// later Dos re-dial.
func (c *Client) Close() {
	c.mu.Lock()
	conns := c.conns
	c.conns = nil
	c.mu.Unlock()
	for _, pc := range conns {
		pc.conn.Close()
	}
}

// checkout returns an idle connection, or nil when every one is in use.
func (c *Client) checkout() *poolConn {
	c.mu.Lock()
	defer c.mu.Unlock()
	for i := len(c.conns) - 1; i >= 0; i-- {
		if pc := c.conns[i]; pc.idle {
			pc.idle = false
			return pc
		}
	}
	return nil
}

// drop closes a connection that saw an error and forgets it.
func (c *Client) drop(pc *poolConn) {
	pc.conn.Close()
	c.mu.Lock()
	c.conns = slices.DeleteFunc(c.conns, func(other *poolConn) bool { return other == pc })
	c.mu.Unlock()
}

// down wraps a transport-level failure as the typed shard-down error.
func (c *Client) down(format string, args ...any) error {
	return &ShardDownError{Shard: c.shard, Reason: fmt.Sprintf(format, args...)}
}

// classify maps an I/O error onto the typed contract: deadline expiries
// become DeadlineError (the per-request deadline was mapped onto the
// socket), everything else ShardDownError.
func (c *Client) classify(err error, op string, timeout time.Duration) error {
	if nerr, ok := err.(net.Error); ok && nerr.Timeout() {
		return &DeadlineError{Shard: c.shard, Op: op, Timeout: timeout}
	}
	return c.down("%v", err)
}

// Do sends one request and reads its response under the given deadline,
// which also covers dialing when no pooled connection is idle. The
// transport-level error (nil on a completed exchange) is returned
// separately from the application-level Response.Err.
func (c *Client) Do(req Request, timeout time.Duration) (Response, error) {
	deadline := time.Now().Add(timeout)
	pc := c.checkout()
	if pc == nil {
		conn, err := net.DialTimeout(c.network, c.addr, timeout)
		if err != nil {
			return Response{}, c.down("dial: %v", err)
		}
		pc = &poolConn{conn: conn, br: bufio.NewReader(conn)}
		c.mu.Lock()
		c.conns = append(c.conns, pc)
		c.mu.Unlock()
	}
	resp, err := c.exchange(pc, req, deadline, timeout)
	if err != nil {
		c.drop(pc)
		return Response{}, err
	}
	c.mu.Lock()
	pc.idle = true
	c.mu.Unlock()
	return resp, nil
}

// exchange is one request/response on a connection the caller owns.
func (c *Client) exchange(pc *poolConn, req Request, deadline time.Time, timeout time.Duration) (Response, error) {
	pc.nextID++
	req.ID = pc.nextID
	if err := pc.conn.SetDeadline(deadline); err != nil {
		return Response{}, c.down("set deadline: %v", err)
	}
	pc.wbuf = sealFrame(AppendRequest(append(pc.wbuf[:0], frameHeaderSpace[:]...), req), FrameRequest)
	frame := pc.wbuf

	switch NetFault(c.fault.Swap(int32(NetNone))) {
	case NetPartition:
		// Half the frame, then gone: the server reads a truncated frame
		// (or nothing) and drops the connection; this side reports the
		// shard unreachable. Whether the worker applied the request is
		// deliberately unknowable — that is the partition contract.
		_, _ = pc.conn.Write(frame[:len(frame)/2])
		return Response{}, c.down("connection dropped mid-request (partition)")
	case NetTrickle:
		for i := range frame {
			if time.Now().After(deadline) {
				return Response{}, &DeadlineError{Shard: c.shard, Op: req.Op.String(), Timeout: timeout}
			}
			if _, err := pc.conn.Write(frame[i : i+1]); err != nil {
				return Response{}, c.classify(err, req.Op.String(), timeout)
			}
			time.Sleep(2 * time.Millisecond)
		}
	case NetGarbage:
		// Non-frame bytes first: the server's magic/length validation
		// fails closed and the connection dies — the request itself is
		// never parsed.
		_, _ = pc.conn.Write([]byte("\x00GARBAGE-NOT-A-FRAME\xff\xfe\xfd\xfc"))
		fallthrough
	default:
		if _, err := pc.conn.Write(frame); err != nil {
			return Response{}, c.classify(err, req.Op.String(), timeout)
		}
	}

	typ, payload, err := ReadFrameInto(pc.br, &pc.rbuf)
	if err != nil {
		// Includes FrameError: a bad frame means the stream is
		// desynchronized, so the connection is poisoned either way.
		return Response{}, c.classify(err, req.Op.String(), timeout)
	}
	if typ != FrameResponse {
		return Response{}, c.down("unexpected frame type %d", typ)
	}
	resp, err := DecodeResponse(payload)
	if err != nil {
		return Response{}, c.down("bad response: %v", err)
	}
	if resp.ID != req.ID {
		// No connection outlives a failed exchange, so a stale reply should
		// never land here; if one does, it is a typed error, not an answer.
		return Response{}, c.down("response id %d for request %d (stream desync)", resp.ID, req.ID)
	}
	return resp, nil
}
