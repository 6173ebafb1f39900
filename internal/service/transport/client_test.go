package transport

import (
	"errors"
	"math"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"
)

// Tests of the client's checkout pool: exclusive synchronous exchanges, a
// connection that saw any error is never reused, Close reaches in-flight
// exchanges, and the pool never outgrows its callers — on both kinds of
// connection. The tests that predate the two kinds run with the gate live
// (direct while callers <= GOMAXPROCS); TestPoolBothKinds runs
// the same bodies with each kind forced.

// newClientFn is NewClient or one of its forced-kind variants.
type newClientFn func(network, addr string, shard int) *Client

// clientOfKind forces every exchange of the client it builds onto one kind
// of connection by moving its gate out of reach.
func clientOfKind(direct bool) newClientFn {
	return func(network, addr string, shard int) *Client {
		c := NewClient(network, addr, shard)
		if c.procs = 0; direct {
			c.procs = math.MaxInt32
		}
		return c
	}
}

// openByKind counts the pooled connections of each kind.
func (c *Client) openByKind() (direct, polled int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, pc := range c.conns {
		if pc.direct {
			direct++
		} else {
			polled++
		}
	}
	return direct, polled
}

// countingListener counts accepted connections: the pool reusing a
// connection is "no new accept", dropping one is "the next Do dials".
type countingListener struct {
	net.Listener
	accepts atomic.Int64
}

func (l *countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err == nil {
		l.accepts.Add(1)
	}
	return c, err
}

func listenCounting(t *testing.T) *countingListener {
	t.Helper()
	l, err := net.Listen("unix", filepath.Join(t.TempDir(), "w.sock"))
	if err != nil {
		t.Fatal(err)
	}
	return &countingListener{Listener: l}
}

func (c *Client) openConns() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.conns)
}

// rawServer answers every request frame with whatever bytes reply returns —
// the way to put a malformed or mismatched response on the wire.
func rawServer(t *testing.T, l net.Listener, reply func(Request) []byte) {
	t.Helper()
	rawConnServer(t, l, func(conn net.Conn, req Request) { conn.Write(reply(req)) })
}

// rawConnServer hands every request frame to onRequest with the connection
// it came in on, to answer, stall, close or reset as it likes.
func rawConnServer(t *testing.T, l net.Listener, onRequest func(net.Conn, Request)) {
	t.Helper()
	t.Cleanup(func() { l.Close() })
	go func() {
		for {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				for {
					_, payload, err := ReadFrame(conn)
					if err != nil {
						return
					}
					req, err := DecodeRequest(payload)
					if err != nil {
						return
					}
					onRequest(conn, req)
				}
			}()
		}
	}()
}

func TestPoolHungExchangeDoesNotDelayOthers(t *testing.T) {
	hungExchangeDoesNotDelayOthers(t, NewClient)
}

func hungExchangeDoesNotDelayOthers(t *testing.T, newClient newClientFn) {
	hung := make(chan struct{})
	release := make(chan struct{})
	addr := echoServer(t, "unix", func(req Request) Response {
		if req.Key == 1 {
			close(hung)
			<-release
		}
		return Response{Known: true}
	})
	c := newClient("unix", addr, 0)
	defer c.Close()
	first := make(chan error, 1)
	go func() {
		_, err := c.Do(Request{Op: OpCheck, Key: 1}, 10*time.Second)
		first <- err
	}()
	<-hung
	start := time.Now()
	if _, err := c.Do(Request{Op: OpCheck, Key: 2}, 5*time.Second); err != nil {
		t.Fatalf("Do next to a hung exchange: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("Do next to a hung exchange took %v: it queued behind it", elapsed)
	}
	close(release)
	if err := <-first; err != nil {
		t.Fatalf("the hung exchange, once released: %v", err)
	}
}

func TestPoolNeverReusesAConnectionThatSawAnError(t *testing.T) {
	neverReusesAConnectionThatSawAnError(t, NewClient)
}

func neverReusesAConnectionThatSawAnError(t *testing.T, newClient newClientFn) {
	okFrame := func(req Request) []byte {
		return AppendFrame(nil, FrameResponse, EncodeResponse(Response{ID: req.ID, Known: true}))
	}
	cases := []struct {
		name string
		// bad is the reply to Key 1; every other key gets a good one.
		bad   func(Request) []byte
		fault NetFault
	}{
		{name: "deadline", bad: func(Request) []byte { time.Sleep(150 * time.Millisecond); return nil }},
		{name: "bad frame", bad: func(Request) []byte { return []byte("not a frame, sixteen bytes or more") }},
		{name: "id mismatch", bad: func(req Request) []byte {
			return AppendFrame(nil, FrameResponse, EncodeResponse(Response{ID: req.ID + 7}))
		}},
		{name: "request frame as reply", bad: func(req Request) []byte {
			return AppendFrame(nil, FrameRequest, EncodeRequest(req))
		}},
		{name: "partition", fault: NetPartition},
		{name: "trickle", fault: NetTrickle},
		{name: "garbage", fault: NetGarbage},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			l := listenCounting(t)
			rawServer(t, l, func(req Request) []byte {
				if req.Key == 1 && tc.bad != nil {
					return tc.bad(req)
				}
				return okFrame(req)
			})
			c := newClient("unix", l.Addr().String(), 3)
			defer c.Close()
			if _, err := c.Do(Request{Op: OpCheck, Key: 2}, time.Second); err != nil {
				t.Fatalf("healthy exchange: %v", err)
			}
			if _, err := c.Do(Request{Op: OpCheck, Key: 2}, time.Second); err != nil || l.accepts.Load() != 1 {
				t.Fatalf("second healthy exchange: err %v, %d connections accepted, want reuse of 1", err, l.accepts.Load())
			}
			c.InjectNetFault(tc.fault)
			_, err := c.Do(Request{Op: OpCheck, Key: 1}, 50*time.Millisecond)
			var down *ShardDownError
			var dl *DeadlineError
			if !errors.As(err, &down) && !errors.As(err, &dl) {
				t.Fatalf("failed exchange: %v, want a typed transport error", err)
			}
			if n := c.openConns(); n != 0 {
				t.Fatalf("%d connections still pooled after an error", n)
			}
			if _, err := c.Do(Request{Op: OpCheck, Key: 2}, time.Second); err != nil {
				t.Fatalf("exchange after the error: %v", err)
			}
			if got := l.accepts.Load(); got != 2 {
				t.Fatalf("%d connections accepted, want 2: the one that saw the error must not serve again", got)
			}
		})
	}
}

func TestPoolCloseFailsInFlightDo(t *testing.T) { closeFailsInFlightDo(t, NewClient) }

func closeFailsInFlightDo(t *testing.T, newClient newClientFn) {
	hung := make(chan struct{})
	release := make(chan struct{})
	defer close(release)
	addr := echoServer(t, "unix", func(req Request) Response {
		if req.Key == 1 {
			close(hung)
			<-release
		}
		return Response{}
	})
	c := newClient("unix", addr, 4)
	inflight := make(chan error, 1)
	go func() {
		_, err := c.Do(Request{Op: OpCheck, Key: 1}, 30*time.Second)
		inflight <- err
	}()
	<-hung
	c.Close()
	select {
	case err := <-inflight:
		var down *ShardDownError
		if !errors.As(err, &down) || down.Shard != 4 {
			t.Fatalf("in-flight Do after Close: %v, want ShardDownError for shard 4", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not fail the in-flight Do")
	}
	// Close is not terminal: the next Do dials afresh.
	if _, err := c.Do(Request{Op: OpCheck, Key: 2}, time.Second); err != nil {
		t.Fatalf("Do after Close: %v", err)
	}
	c.Close()
}

// TestPoolSizeBoundedByConcurrentCallers: nothing is dialed that is not
// pooled, and the pool is bounded per kind — direct connections by
// GOMAXPROCS (the gate admits no more direct exchanges at once, in the whole
// process), polled ones by the peak of concurrent callers. The total may
// exceed that peak by up to GOMAXPROCS: a caller takes only its own kind, so
// one that finds the gate closed dials a polled connection while a direct
// one sits idle — the price of never blocking a thread past the gate.
func TestPoolSizeBoundedByConcurrentCallers(t *testing.T) {
	l := listenCounting(t)
	srv := NewServer(l, func(Request) Response {
		time.Sleep(200 * time.Microsecond) // make exchanges overlap
		return Response{}
	})
	go srv.Serve()
	t.Cleanup(srv.Close)
	c := NewClient("unix", l.Addr().String(), 0)
	defer c.Close()

	const callers, each = 6, 40
	var active, peak atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < each; k++ {
				n := active.Add(1)
				for p := peak.Load(); n > p && !peak.CompareAndSwap(p, n); p = peak.Load() {
				}
				_, err := c.Do(Request{Op: OpPing}, 5*time.Second)
				active.Add(-1)
				if err != nil {
					t.Errorf("Do: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	direct, polled := c.openByKind()
	if dialed := l.accepts.Load(); dialed != int64(direct+polled) || direct > runtime.GOMAXPROCS(0) || int64(polled) > peak.Load() {
		t.Fatalf("%d direct + %d polled connections pooled, %d dialed, GOMAXPROCS %d, peak concurrent callers %d: want pooled == dialed, direct <= GOMAXPROCS, polled <= peak",
			direct, polled, dialed, runtime.GOMAXPROCS(0), peak.Load())
	}
	if got := c.Counts.Direct.Load() + c.Counts.Polled.Load(); got != callers*each {
		t.Fatalf("%d exchanges counted, want %d", got, callers*each)
	}
}

var bothKinds = []struct {
	name   string
	direct bool
}{{"direct", true}, {"polled", false}}

func TestPoolBothKinds(t *testing.T) {
	for _, k := range bothKinds {
		newClient := clientOfKind(k.direct)
		t.Run(k.name+"/hung", func(t *testing.T) { hungExchangeDoesNotDelayOthers(t, newClient) })
		t.Run(k.name+"/no-reuse", func(t *testing.T) { neverReusesAConnectionThatSawAnError(t, newClient) })
		t.Run(k.name+"/close", func(t *testing.T) { closeFailsInFlightDo(t, newClient) })
		t.Run(k.name+"/faults", func(t *testing.T) { netFaultsFailClosedAndRecover(t, newClient) })
		t.Run(k.name+"/own-kind", func(t *testing.T) {
			c := newClient("unix", echoServer(t, "unix", func(Request) Response { return Response{} }), 0)
			defer c.Close()
			for i := 0; i < 3; i++ {
				if _, err := c.Do(Request{Op: OpPing}, time.Second); err != nil {
					t.Fatal(err)
				}
			}
			wantDirect, wantPolled := 0, 1
			if k.direct {
				wantDirect, wantPolled = 1, 0
			}
			if direct, polled := c.openByKind(); direct != wantDirect || polled != wantPolled {
				t.Fatalf("%d direct, %d polled connections pooled, want %d and %d", direct, polled, wantDirect, wantPolled)
			}
			if d, p := c.Counts.Direct.Load(), c.Counts.Polled.Load(); d+p != 3 || (d == 3) != k.direct {
				t.Fatalf("counted %d direct, %d polled exchanges of 3", d, p)
			}
		})
	}
}

// TestDirectErrorsAreTyped pins what a blocking socket's failures become:
// the armed timeout running out (EAGAIN) is the deadline, a peer that went
// away — EOF, ECONNRESET, EPIPE — is the shard down.
func TestDirectErrorsAreTyped(t *testing.T) {
	serve := func(t *testing.T, network string, onRequest func(net.Conn, Request)) string {
		addr := "127.0.0.1:0"
		if network == "unix" {
			addr = filepath.Join(t.TempDir(), "w.sock")
		}
		l, err := net.Listen(network, addr)
		if err != nil {
			t.Fatal(err)
		}
		rawConnServer(t, l, onRequest)
		return l.Addr().String()
	}
	reply := func(conn net.Conn, req Request) {
		conn.Write(AppendFrame(nil, FrameResponse, EncodeResponse(Response{ID: req.ID})))
	}
	newClient := clientOfKind(true)
	isDown := func(err error) bool { var e *ShardDownError; return errors.As(err, &e) }
	isDeadline := func(err error) bool { var e *DeadlineError; return errors.As(err, &e) }

	t.Run("EAGAIN", func(t *testing.T) {
		c := newClient("unix", serve(t, "unix", func(net.Conn, Request) { time.Sleep(300 * time.Millisecond) }), 0)
		defer c.Close()
		start := time.Now()
		_, err := c.Do(Request{Op: OpPing}, 40*time.Millisecond)
		if elapsed := time.Since(start); !isDeadline(err) || elapsed < 40*time.Millisecond || elapsed > 250*time.Millisecond {
			t.Fatalf("silent peer: %v after %v, want DeadlineError after ~40ms", err, elapsed)
		}
	})
	t.Run("EOF", func(t *testing.T) {
		c := newClient("unix", serve(t, "unix", func(conn net.Conn, _ Request) { conn.Close() }), 0)
		defer c.Close()
		if _, err := c.Do(Request{Op: OpPing}, time.Second); !isDown(err) {
			t.Fatalf("peer closed instead of replying: %v, want ShardDownError", err)
		}
	})
	t.Run("ECONNRESET", func(t *testing.T) {
		c := newClient("tcp", serve(t, "tcp", func(conn net.Conn, _ Request) {
			conn.(*net.TCPConn).SetLinger(0) // close sends RST
			conn.Close()
		}), 0)
		defer c.Close()
		if _, err := c.Do(Request{Op: OpPing}, time.Second); !isDown(err) {
			t.Fatalf("peer reset instead of replying: %v, want ShardDownError", err)
		}
	})
	t.Run("EPIPE", func(t *testing.T) {
		closed := make(chan struct{})
		c := newClient("unix", serve(t, "unix", func(conn net.Conn, req Request) {
			reply(conn, req)
			conn.Close()
			close(closed)
		}), 0)
		defer c.Close()
		if _, err := c.Do(Request{Op: OpPing}, time.Second); err != nil {
			t.Fatalf("exchange before the peer closed: %v", err)
		}
		<-closed
		// The pooled connection's peer is gone: the write fails.
		if _, err := c.Do(Request{Op: OpPing}, time.Second); !isDown(err) {
			t.Fatalf("write to a closed peer: %v, want ShardDownError", err)
		}
	})
	t.Run("no time left", func(t *testing.T) {
		c := newClient("unix", serve(t, "unix", reply), 0)
		defer c.Close()
		for _, timeout := range []time.Duration{0, -time.Second} {
			if _, err := c.Do(Request{Op: OpPing}, time.Second); err != nil {
				t.Fatalf("pooling a connection: %v", err)
			}
			// A zero timeval would mean "no timeout": never set, failed instead.
			if _, err := c.Do(Request{Op: OpPing}, timeout); !isDeadline(err) {
				t.Fatalf("timeout %v on a pooled connection: %v, want DeadlineError at once", timeout, err)
			}
		}
	})
}

// TestDirectDeadlineCoversTheExchange: SO_RCVTIMEO bounds one read(2), so a
// peer that sends half a response and stalls would get a second full timeout
// on the read for the rest; the link re-arms that read with the remainder.
func TestDirectDeadlineCoversTheExchange(t *testing.T) {
	const timeout, sentAfter = 200 * time.Millisecond, 120 * time.Millisecond
	l := listenCounting(t)
	rawServer(t, l, func(req Request) []byte {
		time.Sleep(sentAfter)
		frame := AppendFrame(nil, FrameResponse, EncodeResponse(Response{ID: req.ID}))
		return frame[:len(frame)/2]
	})
	c := clientOfKind(true)("unix", l.Addr().String(), 0)
	defer c.Close()
	start := time.Now()
	_, err := c.Do(Request{Op: OpPing}, timeout)
	elapsed := time.Since(start)
	var dl *DeadlineError
	if !errors.As(err, &dl) {
		t.Fatalf("half a response, then silence: %v, want DeadlineError", err)
	}
	// A fresh timeout for the second read would end at sentAfter + timeout.
	if elapsed < timeout || elapsed > timeout+sentAfter/2 {
		t.Fatalf("DeadlineError after %v, want %v (+ scheduling slack)", elapsed, timeout)
	}
}

// TestDirectEINTRKeepsTheDeadline pelts the thread blocked in read(2) with
// signals: a socket read under SO_RCVTIMEO is never restarted by the kernel,
// so each one surfaces as EINTR, and the retry must wait out only what is
// left — re-armed with the full timeout, this exchange would never end.
func TestDirectEINTRKeepsTheDeadline(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	addr := echoServer(t, "unix", func(req Request) Response {
		if req.Key == 1 {
			<-release
		}
		return Response{Known: true}
	})
	c := clientOfKind(true)("unix", addr, 0)
	defer c.Close()

	const timeout = 150 * time.Millisecond
	tid := make(chan int, 1)
	type result struct {
		err     error
		elapsed time.Duration
	}
	done := make(chan result, 1)
	go func() {
		runtime.LockOSThread()
		defer runtime.UnlockOSThread()
		tid <- syscall.Gettid()
		start := time.Now()
		_, err := c.Do(Request{Op: OpCheck, Key: 1}, timeout)
		done <- result{err, time.Since(start)}
	}()
	target := <-tid
	pelt := time.NewTicker(2 * time.Millisecond)
	defer pelt.Stop()
	giveUp := time.After(5 * time.Second)
	for {
		select {
		case r := <-done:
			var dl *DeadlineError
			if !errors.As(r.err, &dl) || r.elapsed < timeout || r.elapsed > timeout+100*time.Millisecond {
				t.Fatalf("interrupted read: %v after %v, want DeadlineError after %v", r.err, r.elapsed, timeout)
			}
			// The same interrupted link must still serve: EINTR is not an error.
			if _, err := c.Do(Request{Op: OpCheck, Key: 2}, time.Second); err != nil {
				t.Fatalf("exchange after the interrupted one: %v", err)
			}
			return
		case <-pelt.C:
			// SIGURG: the runtime's own preemption signal, ignored when spurious.
			if err := syscall.Tgkill(os.Getpid(), target, syscall.SIGURG); err != nil {
				t.Fatal(err)
			}
		case <-giveUp:
			t.Fatal("the interrupted exchange has not ended: each EINTR re-armed the full timeout")
		}
	}
}

// TestDirectCallRetriesEINTRWithTheRemainder is the same contract without
// the kernel's timing: a read that reports EINTR is retried, and the socket
// timeout at the retry is what was left of the exchange's, not all of it.
func TestDirectCallRetriesEINTRWithTheRemainder(t *testing.T) {
	fds, err := syscall.Socketpair(syscall.AF_UNIX, syscall.SOCK_STREAM, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer syscall.Close(fds[0])
	defer syscall.Close(fds[1])
	d := &directLink{fd: fds[0]}
	if err := d.arm(time.Second); err != nil || d.armed != time.Second {
		t.Fatalf("arm: %v, armed %v", err, d.armed)
	}
	var armedAtCall []time.Duration
	n, err := d.call(func(int, []byte) (int, error) {
		armedAtCall = append(armedAtCall, d.armed)
		if len(armedAtCall) < 3 {
			time.Sleep(10 * time.Millisecond)
			return -1, syscall.EINTR
		}
		return 5, nil
	}, make([]byte, 8))
	if n != 5 || err != nil || len(armedAtCall) != 3 {
		t.Fatalf("call: n %d, err %v, %d attempts", n, err, len(armedAtCall))
	}
	if a := armedAtCall; a[0] != time.Second || a[1] > time.Second-10*time.Millisecond || a[2] > a[1]-10*time.Millisecond {
		t.Fatalf("socket timeout at each attempt %v: want the full second, then what was left of it", a)
	}
	// Out of time between attempts: fail, never set a zero ("forever") timeout.
	if err := d.arm(5 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	_, err = d.call(func(int, []byte) (int, error) {
		time.Sleep(10 * time.Millisecond)
		return -1, syscall.EINTR
	}, nil)
	if !errors.Is(err, os.ErrDeadlineExceeded) || d.armed <= 0 {
		t.Fatalf("EINTR past the deadline: %v (armed %v), want a deadline error", err, d.armed)
	}
	// EAGAIN before the deadline (the kernel's timeout can end a jiffy
	// early) is retried the same way; after it, it is the deadline error.
	for _, tc := range []struct {
		timeout time.Duration
		wantN   int
		wantErr error
	}{{time.Second, 5, nil}, {5 * time.Millisecond, 0, os.ErrDeadlineExceeded}} {
		if err := d.arm(tc.timeout); err != nil {
			t.Fatal(err)
		}
		calls := 0
		n, err = d.call(func(int, []byte) (int, error) {
			if calls++; calls == 1 {
				time.Sleep(10 * time.Millisecond)
				return -1, syscall.EAGAIN
			}
			return 5, nil
		}, make([]byte, 8))
		if n != tc.wantN || !errors.Is(err, tc.wantErr) {
			t.Fatalf("EAGAIN with %v to go: n %d, err %v, want %d, %v", tc.timeout, n, err, tc.wantN, tc.wantErr)
		}
	}
}

// TestDirectTimeoutFollowsTheExchange: the socket timeout is sticky, so it
// must be re-set whenever an exchange brings another one — a 50 ms heartbeat
// and a 250 ms op alternating on one connection each get their own.
func TestDirectTimeoutFollowsTheExchange(t *testing.T) {
	l := listenCounting(t)
	srv := NewServer(l, func(req Request) Response {
		if req.Key == 1 {
			time.Sleep(120 * time.Millisecond)
		}
		return Response{}
	})
	go srv.Serve()
	t.Cleanup(srv.Close)
	c := clientOfKind(true)("unix", l.Addr().String(), 0)
	defer c.Close()
	const ping, op = 50 * time.Millisecond, 250 * time.Millisecond
	for i := 0; i < 2; i++ {
		if _, err := c.Do(Request{Op: OpPing}, ping); err != nil {
			t.Fatalf("round %d: ping: %v", i, err)
		}
		// 120 ms of work: fails if the ping's 50 ms were still armed.
		if _, err := c.Do(Request{Op: OpCheck, Key: 1}, op); err != nil {
			t.Fatalf("round %d: slow op under its own 250ms: %v", i, err)
		}
	}
	if got := l.accepts.Load(); got != 1 {
		t.Fatalf("%d connections used, want the one pooled connection throughout", got)
	}
	// And back: a ping that takes 120 ms fails at 50, not at the op's 250.
	start := time.Now()
	_, err := c.Do(Request{Op: OpPing, Key: 1}, ping)
	var dl *DeadlineError
	if elapsed := time.Since(start); !errors.As(err, &dl) || elapsed > 110*time.Millisecond {
		t.Fatalf("slow ping after a 250ms op: %v after %v, want DeadlineError at ~50ms", err, elapsed)
	}
}

// TestCloseUnblocksInFlightDirectDo: Close may not close(2) a descriptor a
// thread is blocked on, so it shuts the socket down; the blocked read
// returns, and its Do reports the shard down and closes the descriptor.
func TestCloseUnblocksInFlightDirectDo(t *testing.T) {
	hung := make(chan struct{}, 1)
	release := make(chan struct{})
	defer close(release)
	addr := echoServer(t, "unix", func(Request) Response {
		hung <- struct{}{}
		<-release
		return Response{}
	})
	before := openDescriptors(t)
	c := clientOfKind(true)("unix", addr, 6)
	inflight := make(chan error, 1)
	go func() {
		_, err := c.Do(Request{Op: OpCheck}, 30*time.Second)
		inflight <- err
	}()
	<-hung
	time.Sleep(5 * time.Millisecond) // let the caller reach read(2)
	start := time.Now()
	c.Close()
	select {
	case err := <-inflight:
		var down *ShardDownError
		if elapsed := time.Since(start); !errors.As(err, &down) || down.Shard != 6 || elapsed > 50*time.Millisecond {
			t.Fatalf("in-flight Do after Close: %v after %v, want ShardDownError for shard 6 within 50ms", err, elapsed)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not unblock the in-flight Do")
	}
	if n := c.openConns(); n != 0 {
		t.Fatalf("%d connections pooled after Close", n)
	}
	// The server side of the connection is still parked in the handler; the
	// client's descriptor is what must be gone.
	if after := openDescriptors(t); after > before+1 {
		t.Fatalf("%d descriptors open, %d before the Do: the interrupted Do did not close its own", after, before)
	}
}

// openDescriptors counts this process's open file descriptors.
func openDescriptors(t *testing.T) int {
	t.Helper()
	ents, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Skipf("no /proc/self/fd: %v", err)
	}
	return len(ents)
}

// TestDirectConnsLeakNoDescriptors: a direct connection is a bare descriptor
// no finalizer watches, so every path out of the pool must close it exactly
// once — clean reuse, each injected fault, a deadline, and Close.
func TestDirectConnsLeakNoDescriptors(t *testing.T) {
	addr := echoServer(t, "unix", func(req Request) Response {
		if req.Key == 1 {
			time.Sleep(30 * time.Millisecond)
		}
		return Response{}
	})
	baseline := openDescriptors(t)
	c := clientOfKind(true)("unix", addr, 0)
	failed := 0
	for i := 0; i < 1000; i++ {
		req, timeout := Request{Op: OpPing}, time.Second
		switch {
		case i%100 == 99:
			c.InjectNetFault(NetTrickle)
			timeout = 5 * time.Millisecond
		case i%10 == 3:
			c.InjectNetFault(NetPartition)
		case i%10 == 6:
			c.InjectNetFault(NetGarbage)
		case i%50 == 9:
			req.Key, timeout = 1, 5*time.Millisecond // a plain deadline
		}
		if _, err := c.Do(req, timeout); err != nil {
			failed++
		}
	}
	if failed < 200 {
		t.Fatalf("only %d of 1000 exchanges failed: the faults did not fire", failed)
	}
	c.Close()
	// The server closes its side of each dropped connection when it next
	// reads it; wait for those too.
	deadline := time.Now().Add(5 * time.Second)
	for openDescriptors(t) > baseline {
		if time.Now().After(deadline) {
			t.Fatalf("%d descriptors open after Close, %d before the first Do", openDescriptors(t), baseline)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestDirectExchangesBoundedByProcs pins the gate: however many callers and
// clients the process has, at most GOMAXPROCS exchanges are direct at once —
// that many threads can sit blocked in the kernel, no more — and every
// caller beyond parks in the netpoller.
func TestDirectExchangesBoundedByProcs(t *testing.T) {
	procs := runtime.GOMAXPROCS(0)
	callers := 8 * procs
	var entered atomic.Int64
	release := make(chan struct{})
	addr := echoServer(t, "unix", func(Request) Response {
		entered.Add(1)
		<-release
		return Response{}
	})
	clients := []*Client{NewClient("unix", addr, 0), NewClient("unix", addr, 1)}
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(c *Client) {
			defer wg.Done()
			if _, err := c.Do(Request{Op: OpPing}, 30*time.Second); err != nil {
				t.Errorf("Do: %v", err)
			}
		}(clients[i%2])
	}
	for deadline := time.Now().Add(10 * time.Second); entered.Load() < int64(callers); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d callers reached the handler", entered.Load(), callers)
		}
	}
	var direct, polled int
	for _, c := range clients {
		d, p := c.openByKind()
		direct, polled = direct+d, polled+p
	}
	if direct != procs || polled != callers-procs {
		t.Errorf("%d callers held %d direct + %d polled connections over two clients, want %d (GOMAXPROCS) + %d",
			callers, direct, polled, procs, callers-procs)
	}
	close(release)
	wg.Wait()
	var counted uint64
	for _, c := range clients {
		counted += c.Counts.Direct.Load()
		c.Close()
	}
	if counted != uint64(procs) {
		t.Errorf("%d exchanges counted direct, want %d", counted, procs)
	}
}

// flakyListener fails its first accepts with a temporary error, the way a
// process at its descriptor limit does.
type flakyListener struct {
	net.Listener
	failures atomic.Int64
	err      error
}

func (l *flakyListener) Accept() (net.Conn, error) {
	if l.failures.Add(-1) >= 0 {
		return nil, l.err
	}
	return l.Listener.Accept()
}

// TestServeSurvivesTransientAcceptError: EMFILE on accept is a condition
// that passes; a server that returned on it would keep answering its open
// connections (heartbeats included) and never take another.
func TestServeSurvivesTransientAcceptError(t *testing.T) {
	inner, err := net.Listen("unix", filepath.Join(t.TempDir(), "w.sock"))
	if err != nil {
		t.Fatal(err)
	}
	l := &flakyListener{Listener: inner, err: &net.OpError{Op: "accept", Net: "unix", Err: syscall.EMFILE}}
	l.failures.Store(4) // 5+10+20+40 ms of backoff
	srv := NewServer(l, func(Request) Response { return Response{Known: true} })
	served := make(chan error, 1)
	go func() { served <- srv.Serve() }()
	c := NewClient("unix", inner.Addr().String(), 0)
	defer c.Close()
	if resp, err := c.Do(Request{Op: OpPing}, 2*time.Second); err != nil || !resp.Known {
		t.Fatalf("Do after 4 failed accepts: %+v, %v", resp, err)
	}
	if left := l.failures.Load(); left >= 0 {
		t.Fatalf("served with %d accept failures still pending", left+1)
	}
	select {
	case err := <-served:
		t.Fatalf("Serve returned %v over temporary accept errors", err)
	default:
	}
	srv.Close()
	if err := <-served; err != nil {
		t.Fatalf("Serve after Close: %v, want nil", err)
	}

	// An error that will not pass still ends Serve, with the error.
	fatal := errors.New("listener is gone")
	dead := &flakyListener{Listener: inner, err: fatal}
	dead.failures.Store(1)
	if err := NewServer(dead, nil).Serve(); !errors.Is(err, fatal) {
		t.Fatalf("Serve over a permanent accept error: %v, want it returned", err)
	}
}
