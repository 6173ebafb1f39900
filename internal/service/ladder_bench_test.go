package service

import (
	"testing"
	"time"

	"dangsan/internal/service/transport"
)

// BenchmarkWireLadder keeps the cost ladder of one service op visible
// without the benchmark suite: each rung adds one layer to the one before.
// The worker is this test binary, re-exec'd (TestMain routes it).
//
//	do-echo        Client.Do to a handler that returns at once (OpDisrupt
//	               to "none" never takes the worker's turn)
//	do-ping        Client.Do through the worker's turn token
//	endpoint-ping  the same through wireEndpoint.send
//	service-check  Service.Check: coordinator + endpoint + detector work,
//	               over the in-process transport and over a unix socket
func BenchmarkWireLadder(b *testing.B) {
	cfg := Config{RequestTimeout: time.Second, HeartbeatInterval: time.Hour}.normalized()
	ep, err := spawnWireWorker(cfg, "unix", 0, 0, b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	wep := ep.(*wireEndpoint)
	defer func() {
		wep.kill()
		wep.close()
	}()
	do := func(b *testing.B, req transport.Request) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if resp, err := wep.client.Do(req, time.Second); err != nil || resp.Err != nil {
				b.Fatal(err, resp.Err)
			}
		}
	}
	b.Run("do-echo", func(b *testing.B) { do(b, transport.Request{Op: transport.OpDisrupt, Mode: transport.DisruptNone}) })
	b.Run("do-ping", func(b *testing.B) { do(b, transport.Request{Op: transport.OpPing}) })
	b.Run("endpoint-ping", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if resp := wep.send(request{kind: opPing}, time.Second); resp.err != nil {
				b.Fatal(resp.err)
			}
		}
	})
	for _, tr := range []string{TransportChan, TransportUnix} {
		b.Run("service-check/"+tr, func(b *testing.B) {
			s, err := New(Config{Shards: 1, Transport: tr, WorkDir: b.TempDir(), RequestTimeout: time.Second, HeartbeatInterval: time.Hour})
			if err != nil {
				b.Fatal(err)
			}
			defer s.Close()
			if v, err := s.Alloc("t", 1, 64, 4); err != nil || v.Degraded {
				b.Fatal(v, err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if v, err := s.Check("t", 1); err != nil || !v.Known {
					b.Fatal(v, err)
				}
			}
		})
	}
}
