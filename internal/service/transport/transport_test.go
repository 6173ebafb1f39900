package transport

import (
	"bytes"
	"encoding/binary"
	"errors"
	"net"
	"path/filepath"
	"testing"
	"time"

	"dangsan/internal/pointerlog"
	"dangsan/internal/proc"
	"dangsan/internal/tcmalloc"
	"dangsan/internal/vmem"
)

func TestFrameRoundtrip(t *testing.T) {
	payload := EncodeRequest(Request{ID: 7, Op: OpAlloc, Key: 42, Size: 128, Stores: 6})
	b := AppendFrame(nil, FrameRequest, payload)
	typ, got, n, err := DecodeFrame(b)
	if err != nil {
		t.Fatalf("DecodeFrame: %v", err)
	}
	if typ != FrameRequest || n != len(b) || !bytes.Equal(got, payload) {
		t.Fatalf("roundtrip mismatch: typ=%d n=%d", typ, n)
	}
	// Stream path must agree with the in-memory path.
	typ2, got2, err := ReadFrame(bytes.NewReader(b))
	if err != nil || typ2 != typ || !bytes.Equal(got2, payload) {
		t.Fatalf("ReadFrame disagrees: %v", err)
	}
}

func TestFrameFailsClosed(t *testing.T) {
	valid := AppendFrame(nil, FrameResponse, EncodeResponse(Response{ID: 1}))
	cases := map[string][]byte{
		"empty":            nil,
		"short header":     valid[:8],
		"truncated body":   valid[:len(valid)-1],
		"bad magic":        append([]byte("XXXX"), valid[4:]...),
		"bad type":         func() []byte { b := append([]byte(nil), valid...); b[4] = 9; return b }(),
		"reserved nonzero": func() []byte { b := append([]byte(nil), valid...); b[5] = 1; return b }(),
		"corrupt payload":  func() []byte { b := append([]byte(nil), valid...); b[len(b)-1] ^= 0xff; return b }(),
		"oversized length": func() []byte {
			b := append([]byte(nil), valid...)
			binary.LittleEndian.PutUint32(b[8:], MaxFramePayload+1)
			return b
		}(),
	}
	for name, b := range cases {
		if _, _, _, err := DecodeFrame(b); err == nil {
			t.Errorf("%s: DecodeFrame accepted a bad frame", name)
		} else {
			var fe *FrameError
			if !errors.As(err, &fe) {
				t.Errorf("%s: error is not a *FrameError: %v", name, err)
			}
		}
	}
}

func TestRequestCodecRejectsBadFields(t *testing.T) {
	good := EncodeRequest(Request{Op: OpCheck, Key: 1})
	if _, err := DecodeRequest(good[:len(good)-1]); err == nil {
		t.Fatal("short request accepted")
	}
	if _, err := DecodeRequest(append(good, 0)); err == nil {
		t.Fatal("long request accepted")
	}
	bad := append([]byte(nil), good...)
	bad[8] = 0 // op below range
	if _, err := DecodeRequest(bad); err == nil {
		t.Fatal("op 0 accepted")
	}
	bad[8] = byte(OpDisrupt)
	bad[9] = DisruptKillAfter + 1
	if _, err := DecodeRequest(bad); err == nil {
		t.Fatal("unknown disrupt mode accepted")
	}
}

// TestErrorCodecLossless is the typed-error contract on the wire: every
// error kind a worker can produce round-trips into a value errors.As
// recognizes with identical fields.
func TestErrorCodecLossless(t *testing.T) {
	cases := []error{
		nil,
		&ShardDownError{Shard: 3, Reason: "worker exited"},
		&DeadlineError{Shard: 1, Op: "check", Timeout: 25 * time.Millisecond},
		&ClosedError{},
		&tcmalloc.OutOfMemoryError{Size: 4096},
		&proc.ExhaustedError{Resource: "globals", Tid: -1, Size: 8},
		&vmem.Fault{Addr: 0x8000000000001000, Kind: vmem.FaultNonCanonical},
		&vmem.Fault{Addr: 0x1234, Kind: vmem.FaultFreedRange},
		errors.New("some untyped thing"),
	}
	for _, want := range cases {
		resp := Response{ID: 9, Known: true, Err: want}
		got, err := DecodeResponse(EncodeResponse(resp))
		if err != nil {
			t.Fatalf("decode (%v): %v", want, err)
		}
		if want == nil {
			if got.Err != nil {
				t.Fatalf("nil error decoded as %v", got.Err)
			}
			continue
		}
		switch w := want.(type) {
		case *ShardDownError:
			var g *ShardDownError
			if !errors.As(got.Err, &g) || *g != *w {
				t.Fatalf("ShardDownError mangled: %v", got.Err)
			}
		case *DeadlineError:
			var g *DeadlineError
			if !errors.As(got.Err, &g) || *g != *w {
				t.Fatalf("DeadlineError mangled: %v", got.Err)
			}
		case *ClosedError:
			var g *ClosedError
			if !errors.As(got.Err, &g) {
				t.Fatalf("ClosedError mangled: %v", got.Err)
			}
		case *tcmalloc.OutOfMemoryError:
			var g *tcmalloc.OutOfMemoryError
			if !errors.As(got.Err, &g) || *g != *w {
				t.Fatalf("OutOfMemoryError mangled: %v", got.Err)
			}
		case *proc.ExhaustedError:
			var g *proc.ExhaustedError
			if !errors.As(got.Err, &g) || *g != *w {
				t.Fatalf("ExhaustedError mangled: %v", got.Err)
			}
		case *vmem.Fault:
			var g *vmem.Fault
			if !errors.As(got.Err, &g) || *g != *w {
				t.Fatalf("Fault mangled: %v", got.Err)
			}
		default:
			var g *OpaqueError
			if !errors.As(got.Err, &g) || g.Msg != want.Error() {
				t.Fatalf("opaque error mangled: %v", got.Err)
			}
		}
	}
}

func TestResponseCodecVerdictAndStats(t *testing.T) {
	blob, err := EncodeStats(WireStats{
		Stats: pointerlog.Snapshot{Logged: 12, LogBytes: 96},
		Cold:  pointerlog.ColdStats{Segments: 3, DiskBytes: 400},
		Audit: []string{"drift"},
	})
	if err != nil {
		t.Fatal(err)
	}
	resp := Response{ID: 4, Known: true, Freed: true, UAF: true, StatsJSON: blob}
	got, err := DecodeResponse(EncodeResponse(resp))
	if err != nil {
		t.Fatal(err)
	}
	if !got.Known || !got.Freed || !got.UAF || got.Degraded {
		t.Fatalf("verdict flags mangled: %+v", got)
	}
	ws, err := DecodeStats(got.StatsJSON)
	if err != nil {
		t.Fatal(err)
	}
	if ws.Stats.Logged != 12 || ws.Cold != (pointerlog.ColdStats{Segments: 3, DiskBytes: 400}) || len(ws.Audit) != 1 {
		t.Fatalf("stats mangled: %+v", ws)
	}
	// Trailing garbage after a well-formed response must fail closed.
	if _, err := DecodeResponse(append(EncodeResponse(resp), 0xAA)); err == nil {
		t.Fatal("trailing bytes accepted")
	}
}

// echoServer serves a handler on the given network for the test's
// lifetime and returns the dial address.
func echoServer(t *testing.T, network string, h Handler) string {
	t.Helper()
	addr := "127.0.0.1:0"
	if network == "unix" {
		addr = filepath.Join(t.TempDir(), "w.sock")
	}
	l, err := net.Listen(network, addr)
	if err != nil {
		t.Fatalf("listen %s: %v", network, err)
	}
	srv := NewServer(l, h)
	go srv.Serve()
	t.Cleanup(srv.Close)
	return l.Addr().String()
}

func TestClientServerBothNetworks(t *testing.T) {
	for _, network := range []string{"unix", "tcp"} {
		t.Run(network, func(t *testing.T) {
			addr := echoServer(t, network, func(req Request) Response {
				if req.Op == OpCheck {
					return Response{Known: true, Freed: true, UAF: true}
				}
				return Response{}
			})
			c := NewClient(network, addr, 0)
			defer c.Close()
			for i := 0; i < 3; i++ {
				resp, err := c.Do(Request{Op: OpCheck, Key: uint64(i)}, time.Second)
				if err != nil {
					t.Fatalf("Do %d: %v", i, err)
				}
				if !resp.Known || !resp.Freed || !resp.UAF {
					t.Fatalf("verdict lost on the wire: %+v", resp)
				}
			}
		})
	}
}

func TestClientDeadlineMapsToDeadlineError(t *testing.T) {
	block := make(chan struct{})
	defer close(block)
	addr := echoServer(t, "unix", func(req Request) Response {
		<-block // hung worker
		return Response{}
	})
	c := NewClient("unix", addr, 5)
	defer c.Close()
	_, err := c.Do(Request{Op: OpPing}, 30*time.Millisecond)
	var dl *DeadlineError
	if !errors.As(err, &dl) {
		t.Fatalf("want DeadlineError, got %v", err)
	}
	if dl.Shard != 5 || dl.Op != "ping" {
		t.Fatalf("deadline attribution wrong: %+v", dl)
	}
}

func TestClientDownServerMapsToShardDown(t *testing.T) {
	c := NewClient("unix", filepath.Join(t.TempDir(), "nobody.sock"), 2)
	defer c.Close()
	_, err := c.Do(Request{Op: OpPing}, 50*time.Millisecond)
	var down *ShardDownError
	if !errors.As(err, &down) || down.Shard != 2 {
		t.Fatalf("want ShardDownError for shard 2, got %v", err)
	}
}

func TestNetFaultsFailClosedAndRecover(t *testing.T) { netFaultsFailClosedAndRecover(t, NewClient) }

func netFaultsFailClosedAndRecover(t *testing.T, newClient newClientFn) {
	addr := echoServer(t, "unix", func(req Request) Response { return Response{Known: true} })
	c := newClient("unix", addr, 1)
	defer c.Close()
	for _, tc := range []struct {
		fault NetFault
		name  string
	}{{NetPartition, "partition"}, {NetTrickle, "trickle"}, {NetGarbage, "garbage"}} {
		if _, err := c.Do(Request{Op: OpPing}, 200*time.Millisecond); err != nil {
			t.Fatalf("pre-%s request failed: %v", tc.name, err)
		}
		c.InjectNetFault(tc.fault)
		_, err := c.Do(Request{Op: OpPing}, 50*time.Millisecond)
		if err == nil {
			t.Fatalf("%s: disrupted request succeeded", tc.name)
		}
		var down *ShardDownError
		var dl *DeadlineError
		if !errors.As(err, &down) && !errors.As(err, &dl) {
			t.Fatalf("%s: untyped error %v", tc.name, err)
		}
		// The fault is one-shot: the client reconnects and recovers.
		if _, err := c.Do(Request{Op: OpPing}, 200*time.Millisecond); err != nil {
			t.Fatalf("post-%s request failed: %v", tc.name, err)
		}
	}
}

// TestServerSurvivesGarbageConnections floods the server with raw garbage
// and partial frames; it must drop every such connection without panicking
// and keep serving well-formed clients.
func TestServerSurvivesGarbageConnections(t *testing.T) {
	addr := echoServer(t, "unix", func(req Request) Response { return Response{Known: true} })
	for _, junk := range [][]byte{
		[]byte("total garbage"),
		AppendFrame(nil, FrameRequest, EncodeRequest(Request{Op: OpPing}))[:10],
		AppendFrame(nil, FrameResponse, nil), // response frame where a request belongs
	} {
		conn, err := net.Dial("unix", addr)
		if err != nil {
			t.Fatal(err)
		}
		conn.Write(junk)
		conn.Close()
	}
	c := NewClient("unix", addr, 0)
	defer c.Close()
	if _, err := c.Do(Request{Op: OpPing}, time.Second); err != nil {
		t.Fatalf("server stopped serving after garbage: %v", err)
	}
}

// TestAppendCodecMatchesEncodeAndReusesBuffers: the append-style encoders
// produce the Encode* bytes behind whatever dst already holds, a frame
// built in place equals AppendFrame over a separate payload, and a
// ReadFrameInto round trip through reused buffers allocates nothing.
func TestAppendCodecMatchesEncodeAndReusesBuffers(t *testing.T) {
	req := Request{ID: 9, Op: OpAlloc, Key: 0xabcdef, Size: 640, Stores: 12}
	resp := Response{ID: 9, Known: true, Freed: true, Err: &DeadlineError{Shard: 1, Op: "alloc", Timeout: time.Second}}
	prefix := []byte("prefix")
	if got := AppendRequest(append([]byte(nil), prefix...), req); !bytes.Equal(got, append(append([]byte(nil), prefix...), EncodeRequest(req)...)) {
		t.Fatalf("AppendRequest != prefix + EncodeRequest: %x", got)
	}
	if got := AppendResponse(append([]byte(nil), prefix...), resp); !bytes.Equal(got, append(append([]byte(nil), prefix...), EncodeResponse(resp)...)) {
		t.Fatalf("AppendResponse != prefix + EncodeResponse: %x", got)
	}
	inPlace := func(r Response) []byte {
		return sealFrame(AppendResponse(append([]byte(nil), frameHeaderSpace[:]...), r), FrameResponse)
	}
	if got, want := inPlace(resp), AppendFrame(nil, FrameResponse, EncodeResponse(resp)); !bytes.Equal(got, want) {
		t.Fatalf("in-place response frame %x, want %x", got, want)
	}

	var wbuf, rbuf []byte
	var rd bytes.Reader
	ok := Response{ID: 9, Known: true}
	roundTrip := func() {
		wbuf = sealFrame(AppendResponse(append(wbuf[:0], frameHeaderSpace[:]...), ok), FrameResponse)
		rd.Reset(wbuf)
		typ, payload, err := ReadFrameInto(&rd, &rbuf)
		if err != nil || typ != FrameResponse {
			t.Fatalf("ReadFrameInto: typ %d err %v", typ, err)
		}
		if got, err := DecodeResponse(payload); err != nil || got.ID != ok.ID || !got.Known || got.Err != nil {
			t.Fatalf("round trip: %+v %v", got, err)
		}
	}
	roundTrip() // sizes the buffers
	if allocs := testing.AllocsPerRun(100, roundTrip); allocs != 0 {
		t.Fatalf("%v allocs per framed round trip through reused buffers, want 0", allocs)
	}

	// A frame larger than the buffer grows it; the next small frame still
	// fits and the payload of the big one was intact.
	big := Response{ID: 1, StatsJSON: bytes.Repeat([]byte("s"), 10000)}
	rd.Reset(inPlace(big))
	_, payload, err := ReadFrameInto(&rd, &rbuf)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := DecodeResponse(payload); err != nil || !bytes.Equal(got.StatsJSON, big.StatsJSON) {
		t.Fatalf("grown-buffer frame: %v", err)
	}
	roundTrip()
}
