package transport

import (
	"bufio"
	"net"
	"sync"
	"time"

	"dangsan/internal/frame"
)

// Handler serves one decoded request. A handler that never returns (a
// hung worker) simply never answers — the client's deadline fires; a
// handler that exits the process (kill injection) drops every connection.
type Handler func(Request) Response

// Server accepts connections and serves frames to a Handler. One
// goroutine per connection; the worker's own single-threaded discipline
// lives behind the handler (every request takes the worker's turn token),
// so concurrent connections cannot break it.
type Server struct {
	l net.Listener
	h Handler

	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	closed bool
}

// NewServer wraps a listener and handler.
func NewServer(l net.Listener, h Handler) *Server {
	return &Server{l: l, h: h, conns: make(map[net.Conn]struct{})}
}

// Serve accepts until the listener closes. It returns the accept error
// (nil after Close). A temporary one (EMFILE, ENFILE) is waited out with a
// capped backoff, as net/http does: a server that stopped accepting over
// one would go on answering its open connections and never take another.
func (s *Server) Serve() error {
	var backoff time.Duration
	for {
		conn, err := s.l.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed {
				return nil
			}
			if te, ok := err.(interface{ Temporary() bool }); ok && te.Temporary() {
				backoff = min(max(2*backoff, 5*time.Millisecond), time.Second)
				time.Sleep(backoff)
				continue
			}
			return err
		}
		backoff = 0
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return nil
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		go s.serveConn(conn)
	}
}

// Close stops accepting and drops every open connection.
func (s *Server) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	conns := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	s.l.Close()
	for _, c := range conns {
		c.Close()
	}
}

// serveConn is one connection's read/handle/reply loop. Every failure —
// bad frame, garbage bytes, truncated read, codec error — fails closed by
// dropping the connection: after a framing violation the stream position
// is unknowable, and replying to a request that was never validly framed
// would be answering a question nobody asked. A handler panic is
// contained the same way (the worker process's own panic handling decides
// whether the process survives).
func (s *Server) serveConn(conn net.Conn) {
	defer func() {
		recover()
		conn.Close()
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
	}()
	// One buffered read per frame, per-connection buffers: no garbage per op.
	br := bufio.NewReader(conn)
	var rbuf, wbuf []byte
	for {
		typ, payload, err := ReadFrameInto(br, &rbuf)
		if err != nil {
			return
		}
		if typ != FrameRequest {
			return
		}
		req, err := DecodeRequest(payload)
		if err != nil {
			return
		}
		resp := s.h(req)
		resp.ID = req.ID
		wbuf = sealFrame(AppendResponse(append(wbuf[:0], make([]byte, frame.HeaderBytes)...), resp), FrameResponse)
		if _, err := conn.Write(wbuf); err != nil {
			return
		}
	}
}
