package transport

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"os"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"dangsan/internal/frame"
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
//
// While the process has no more exchanges in flight than Ps, an exchange
// gets a direct connection — a blocking socket: one write(2), one read(2),
// the kernel wakes the calling thread — and every caller beyond that a
// polled one, parked in the netpoller, whose batched wake-ups win once
// callers outnumber Ps. So at most GOMAXPROCS threads block in the kernel.
type Client struct {
	network string
	addr    string
	shard   int
	procs   int32 // GOMAXPROCS at NewClient: the gate

	// Counts tallies the exchanges by kind. An owner that replaces its
	// client may point each at one tally before the first Do.
	Counts *ExchangeCounts

	mu    sync.Mutex
	conns []*poolConn // every open connection, idle or checked out

	fault atomic.Int32
}

// ExchangeCounts counts exchanges by the kind of connection they ran on.
type ExchangeCounts struct{ Direct, Polled atomic.Uint64 }

// inFlight counts the exchanges running in this process, over every Client.
var inFlight atomic.Int32

// poolConn is one pooled connection and its buffers, owned by the Do that
// checked it out (idle excepted).
type poolConn struct {
	link   link
	direct bool
	br     *bufio.Reader
	wbuf   []byte // request frame
	rbuf   []byte // response frame
	nextID uint64
	idle   bool // guarded by Client.mu
	doomed bool // Close found it checked out; guarded by Client.mu
}

// link is a pooled connection as an exchange sees it.
type link interface {
	io.ReadWriteCloser
	// arm gives the exchange that follows timeout from now; past it Read
	// and Write fail with a timeout error.
	arm(timeout time.Duration) error
	// interrupt fails the exchange in progress, from any goroutine. The
	// descriptor stays open: only the connection's owner Closes.
	interrupt()
}

// polledLink is a net.Conn on the runtime's netpoller.
type polledLink struct{ net.Conn }

func (l polledLink) arm(timeout time.Duration) error { return l.SetDeadline(time.Now().Add(timeout)) }
func (l polledLink) interrupt()                      { l.Conn.Close() }

// directLink is a blocking-mode socket the netpoller never saw. The kernel
// keeps its deadline, SO_RCVTIMEO and SO_SNDTIMEO, which are set only when
// an exchange brings another timeout than they hold.
type directLink struct {
	fd       int
	armed    time.Duration // what the two socket timeouts hold
	deadline time.Time     // of the exchange in progress
	waited   bool          // the exchange has used some of its timeout
}

// newDirectLink moves conn's socket to a descriptor the poller never
// registered, in blocking mode. conn is spent: O_NONBLOCK lives on the open
// file description the two share, and closing conn is what deletes its
// epoll entry (explicitly; the dup would otherwise keep it alive).
func newDirectLink(conn net.Conn) (link, error) {
	defer conn.Close()
	rc, err := conn.(syscall.Conn).SyscallConn()
	if err != nil {
		return nil, err
	}
	var fd uintptr
	var errno syscall.Errno
	err = rc.Control(func(s uintptr) {
		fd, _, errno = syscall.Syscall(syscall.SYS_FCNTL, s, syscall.F_DUPFD_CLOEXEC, 0)
	})
	if err == nil && errno != 0 {
		err = os.NewSyscallError("dup", errno)
	}
	if err != nil {
		return nil, err
	}
	if err := syscall.SetNonblock(int(fd), false); err != nil {
		syscall.Close(int(fd))
		return nil, os.NewSyscallError("setnonblock", err)
	}
	return &directLink{fd: int(fd)}, nil
}

func (d *directLink) arm(timeout time.Duration) error {
	d.deadline, d.waited = time.Now().Add(timeout), false
	return d.setTimeout(timeout)
}

func (d *directLink) setTimeout(timeout time.Duration) error {
	if timeout <= 0 {
		return os.ErrDeadlineExceeded // and a zero timeval would mean "forever"
	}
	if timeout != d.armed {
		tv := syscall.NsecToTimeval(max(timeout, time.Microsecond).Nanoseconds())
		for _, opt := range [...]int{syscall.SO_RCVTIMEO, syscall.SO_SNDTIMEO} {
			if err := syscall.SetsockoptTimeval(d.fd, syscall.SOL_SOCKET, opt, &tv); err != nil {
				return os.NewSyscallError("setsockopt", err)
			}
		}
		d.armed = timeout
	}
	return nil
}

// call is one blocking read(2) or write(2). The socket timeout bounds each
// call, not their sum, so one that follows a wait (EINTR, a frame arriving
// in pieces) first re-arms with what is left of the exchange's.
func (d *directLink) call(op func(int, []byte) (int, error), p []byte) (int, error) {
	for {
		if d.waited {
			if err := d.setTimeout(time.Until(d.deadline)); err != nil {
				return 0, err
			}
		}
		switch n, err := op(d.fd, p); {
		case err == syscall.EINTR, err == syscall.EAGAIN:
			// The kernel counts a socket timeout in whole jiffies from
			// inside the current one, so EAGAIN can come up to a jiffy
			// early: the re-arm above reports the deadline once it passed.
			d.waited = true
		case err != nil:
			return 0, err
		case n == 0 && len(p) > 0:
			return 0, io.EOF
		default:
			return n, nil
		}
	}
}

func (d *directLink) Read(p []byte) (int, error) {
	n, err := d.call(syscall.Read, p)
	d.waited = true
	return n, err
}

// Write does not count a write that returns whole as a wait: a request
// frame is far smaller than the empty socket buffer it lands in.
func (d *directLink) Write(p []byte) (int, error) {
	for done := 0; ; d.waited = true {
		n, err := d.call(syscall.Write, p[done:])
		if done += n; err != nil || done == len(p) {
			return done, err
		}
	}
}

func (d *directLink) interrupt()   { syscall.Shutdown(d.fd, syscall.SHUT_RDWR) }
func (d *directLink) Close() error { return syscall.Close(d.fd) }

// NewClient builds a client for the worker at (network, addr). No
// connection is made until the first Do.
func NewClient(network, addr string, shard int) *Client {
	return &Client{network: network, addr: addr, shard: shard,
		procs: int32(runtime.GOMAXPROCS(0)), Counts: new(ExchangeCounts)}
}

// InjectNetFault arms a one-shot network disruption for the next request.
func (c *Client) InjectNetFault(f NetFault) { c.fault.Store(int32(f)) }

// Close drops every connection. A Do in flight fails with ShardDownError;
// later Dos re-dial. A checked-out connection is only interrupted: its Do
// closes it, so no descriptor number is reused under a blocked read.
func (c *Client) Close() {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, pc := range c.conns {
		if pc.idle {
			pc.link.Close()
		} else {
			pc.doomed = true
			pc.link.interrupt()
		}
	}
	c.conns = nil
}

// checkout returns an idle connection of the wanted kind, or nil when every
// one is in use.
func (c *Client) checkout(direct bool) *poolConn {
	c.mu.Lock()
	defer c.mu.Unlock()
	for i := len(c.conns) - 1; i >= 0; i-- {
		if pc := c.conns[i]; pc.idle && pc.direct == direct {
			pc.idle = false
			return pc
		}
	}
	return nil
}

// release ends a checkout: back to the pool after a clean exchange, closed
// and forgotten after an error or once Close has reached it.
func (c *Client) release(pc *poolConn, clean bool) {
	c.mu.Lock()
	if pc.idle = clean && !pc.doomed; pc.idle {
		c.mu.Unlock()
		return
	}
	c.conns = slices.DeleteFunc(c.conns, func(other *poolConn) bool { return other == pc })
	c.mu.Unlock()
	pc.link.Close()
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
// which also covers dialing when no pooled connection of its kind is idle.
// The transport-level error (nil on a completed exchange) is returned
// separately from the application-level Response.Err.
func (c *Client) Do(req Request, timeout time.Duration) (Response, error) {
	direct := inFlight.Add(1) <= c.procs
	defer inFlight.Add(-1)
	pc := c.checkout(direct)
	if pc == nil {
		start := time.Now()
		conn, err := net.DialTimeout(c.network, c.addr, timeout)
		var l link = polledLink{conn}
		if err == nil && direct {
			l, err = newDirectLink(conn)
		}
		if err != nil {
			return Response{}, c.down("dial: %v", err)
		}
		pc = &poolConn{link: l, direct: direct, br: bufio.NewReader(l)}
		c.mu.Lock()
		c.conns = append(c.conns, pc)
		c.mu.Unlock()
		timeout -= time.Since(start)
	}
	if direct {
		c.Counts.Direct.Add(1)
	} else {
		c.Counts.Polled.Add(1)
	}
	resp, err := c.exchange(pc, req, timeout)
	c.release(pc, err == nil)
	return resp, err
}

// exchange is one request/response on a connection the caller owns.
func (c *Client) exchange(pc *poolConn, req Request, timeout time.Duration) (Response, error) {
	pc.nextID++
	req.ID = pc.nextID
	if err := pc.link.arm(timeout); err != nil {
		return Response{}, c.classify(err, req.Op.String(), timeout)
	}
	pc.wbuf = sealFrame(AppendRequest(append(pc.wbuf[:0], make([]byte, frame.HeaderBytes)...), req), FrameRequest)
	msg := pc.wbuf

	switch NetFault(c.fault.Swap(int32(NetNone))) {
	case NetPartition:
		// Half the frame, then gone: the server reads a truncated frame
		// (or nothing) and drops the connection; this side reports the
		// shard unreachable. Whether the worker applied the request is
		// deliberately unknowable — that is the partition contract.
		_, _ = pc.link.Write(msg[:len(msg)/2])
		return Response{}, c.down("connection dropped mid-request (partition)")
	case NetTrickle:
		deadline := time.Now().Add(timeout)
		for i := range msg {
			if time.Now().After(deadline) {
				return Response{}, &DeadlineError{Shard: c.shard, Op: req.Op.String(), Timeout: timeout}
			}
			if _, err := pc.link.Write(msg[i : i+1]); err != nil {
				return Response{}, c.classify(err, req.Op.String(), timeout)
			}
			time.Sleep(2 * time.Millisecond)
		}
		if err := pc.link.arm(time.Until(deadline)); err != nil {
			return Response{}, c.classify(err, req.Op.String(), timeout)
		}
	case NetGarbage:
		// Non-frame bytes first: the server's magic/length validation
		// fails closed and the connection dies — the request itself is
		// never parsed.
		_, _ = pc.link.Write([]byte("\x00GARBAGE-NOT-A-FRAME\xff\xfe\xfd\xfc"))
		fallthrough
	default:
		if _, err := pc.link.Write(msg); err != nil {
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
