package transport

import (
	"errors"
	"net"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// Tests of the client's checkout pool: exclusive synchronous exchanges, a
// connection that saw any error is never reused, Close reaches in-flight
// exchanges, and the pool never outgrows its callers.

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
					if _, err := conn.Write(reply(req)); err != nil {
						return
					}
				}
			}()
		}
	}()
}

func TestPoolHungExchangeDoesNotDelayOthers(t *testing.T) {
	hung := make(chan struct{})
	release := make(chan struct{})
	addr := echoServer(t, "unix", func(req Request) Response {
		if req.Key == 1 {
			close(hung)
			<-release
		}
		return Response{Known: true}
	})
	c := NewClient("unix", addr, 0)
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
			c := NewClient("unix", l.Addr().String(), 3)
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

func TestPoolCloseFailsInFlightDo(t *testing.T) {
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
	c := NewClient("unix", addr, 4)
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
	if open, dialed := int64(c.openConns()), l.accepts.Load(); open > peak.Load() || dialed != open {
		t.Fatalf("%d pooled connections, %d dialed, peak concurrent callers %d: want pooled == dialed <= peak",
			open, dialed, peak.Load())
	}
}
