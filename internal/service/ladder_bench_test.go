package service

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"dangsan/internal/pointerlog"
	"dangsan/internal/service/transport"
)

// BenchmarkWireLadder keeps the cost ladder of one service op visible
// without the benchmark suite: each rung adds one layer to the one before.
// The worker is this test binary, re-exec'd (TestMain routes it).
//
//	do-echo        Client.Do to a handler that returns at once (OpDisrupt
//	               to "none" never takes the worker's turn)
//	do-ping        Client.Do through the worker's turn lock
//	endpoint-ping  the same through wireEndpoint.send
//	service-check  Service.Check: coordinator + endpoint + detector work,
//	               over the in-process transport and over a unix socket
//	.../callers=N  the unix rung with N closed-loop goroutines on the one
//	               shard, as ops/s and the share of exchanges that ran on
//	               a direct connection: both sides of the client's gate
//	               (direct while callers <= GOMAXPROCS, polled beyond)
func BenchmarkWireLadder(b *testing.B) {
	cfg := Config{RequestTimeout: time.Second, HeartbeatInterval: time.Hour}.normalized()
	ep, err := spawnWireWorker(cfg, 0, 0, b.TempDir(), new(transport.ExchangeCounts))
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
			if resp := wep.send(transport.Request{Op: transport.OpPing}, time.Second); resp.Err != nil {
				b.Fatal(resp.Err)
			}
		}
	})
	for _, tr := range []string{TransportChan, TransportUnix} {
		b.Run("service-check/"+tr, func(b *testing.B) {
			s := oneLiveKey(b, tr)
			defer s.Close()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if v, err := s.Check("t", 1); err != nil || !v.Known {
					b.Fatal(v, err)
				}
			}
		})
	}
	for _, callers := range []int{1, 2, 4, 16} {
		b.Run(fmt.Sprintf("service-check/unix/callers=%d", callers), func(b *testing.B) {
			s := oneLiveKey(b, TransportUnix)
			defer s.Close()
			before := s.Counters()
			b.ReportAllocs()
			b.ResetTimer()
			var wg sync.WaitGroup
			for c := 0; c < callers; c++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < b.N/callers; i++ {
						if v, err := s.Check("t", 1); err != nil || !v.Known {
							b.Error(v, err)
							return
						}
					}
				}()
			}
			wg.Wait()
			b.StopTimer()
			c := s.Counters()
			ops := float64(c.Requests - before.Requests)
			b.ReportMetric(ops/b.Elapsed().Seconds(), "ops/s")
			b.ReportMetric(float64(c.WireDirect-before.WireDirect)/ops, "direct/op")
		})
	}
}

// oneLiveKey is a one-shard service over tr holding the key ("t", 1) the
// service-check rungs check.
func oneLiveKey(b *testing.B, tr string) *Service {
	s, err := New(Config{Shards: 1, Transport: tr, WorkDir: b.TempDir(), RequestTimeout: time.Second, HeartbeatInterval: time.Hour})
	if err != nil {
		b.Fatal(err)
	}
	if v, err := s.Alloc("t", 1, 64, 4); err != nil || v.Degraded {
		s.Close()
		b.Fatal(v, err)
	}
	return s
}

// BenchmarkServiceParallel keeps the turn lock's contention visible: b.N
// ops (a Check of a live key, or an Alloc+Free pair) split over 1, 2 and 4
// closed-loop goroutines on 2 chan shards, reported as ops/s with the share
// of sends that found the turn taken and the share that had to park.
func BenchmarkServiceParallel(b *testing.B) {
	for _, mix := range []string{"check", "allocfree"} {
		for _, g := range []int{1, 2, 4} {
			b.Run(fmt.Sprintf("%s/goroutines=%d", mix, g), func(b *testing.B) {
				s, err := New(Config{Shards: 2, RequestTimeout: time.Second, HeartbeatInterval: time.Hour})
				if err != nil {
					b.Fatal(err)
				}
				defer s.Close()
				const liveKeys = 64 // spread over both shards
				for c := 0; c < g; c++ {
					for k := uint64(0); k < liveKeys; k++ {
						if v, err := s.Alloc(fmt.Sprint("t", c), k, 64, 4); err != nil || v.Degraded {
							b.Fatal(v, err)
						}
					}
				}
				before := s.Counters()
				b.ResetTimer()
				var wg sync.WaitGroup
				for c := 0; c < g; c++ {
					wg.Add(1)
					go func(c int) {
						defer wg.Done()
						tenant := fmt.Sprint("t", c)
						// Random keys: the shard is the key's low bit, and
						// counting keys would march the goroutines over the
						// two shards in step, never meeting.
						var rng jitterRNG
						rng.seed(uint64(c) + 1)
						for i := 0; i < b.N/g; i++ {
							key := rng.next()
							if mix == "check" {
								if v, err := s.Check(tenant, key%liveKeys); err != nil || !v.Known {
									b.Error(v, err)
									return
								}
								continue
							}
							if v, err := s.Alloc(tenant, liveKeys+key, 64, 4); err != nil || v.Degraded {
								b.Error(v, err)
								return
							}
							if v, err := s.Free(tenant, liveKeys+key); err != nil || v.Degraded {
								b.Error(v, err)
								return
							}
						}
					}(c)
				}
				wg.Wait()
				b.StopTimer()
				c := s.Counters()
				ops := float64(c.Requests - before.Requests)
				b.ReportMetric(ops/b.Elapsed().Seconds(), "ops/s")
				b.ReportMetric(float64(c.TurnContended-before.TurnContended)/ops, "contended/op")
				b.ReportMetric(float64(c.TurnParked-before.TurnParked)/ops, "parked/op")
			})
		}
	}
}

// BenchmarkServiceHeavyKey keeps the cost of the cold tier under a worker's
// turn visible: one client on one chan shard, each iteration an Alloc with
// 300 scattered stores — past the hash switch, so with the tier at its
// minimum threshold the key spills three or four segments — and the Free of
// the key 256 allocs back, which reads them again. cold=off is the same
// loop with every table resident.
func BenchmarkServiceHeavyKey(b *testing.B) {
	for _, cold := range []struct {
		name  string
		spill uint64
	}{{"off", 0}, {"min", pointerlog.MinColdSpillBytes}} {
		b.Run("cold="+cold.name, func(b *testing.B) {
			s, err := New(Config{Shards: 1, ColdSpillBytes: cold.spill, ColdDir: b.TempDir(), RequestTimeout: time.Second, HeartbeatInterval: time.Hour})
			if err != nil {
				b.Fatal(err)
			}
			defer s.Close()
			const lag = 256
			op := func(i uint64) {
				if v, err := s.Alloc("t", i, 64, 300); err != nil || v.Degraded {
					b.Fatal(v, err)
				}
				if i >= lag {
					if v, err := s.Free("t", i-lag); err != nil || v.Degraded {
						b.Fatal(v, err)
					}
				}
			}
			for i := uint64(0); i < lag; i++ {
				op(i)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := uint64(0); i < uint64(b.N); i++ {
				op(lag + i)
			}
		})
	}
}
