package service

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"dangsan/internal/service/transport"
	"dangsan/internal/vmem"
)

// Tests of the worker execution model: no worker goroutine, a turn lock,
// every op on its caller's goroutine. All of them are meant to run under
// -race.

// handleProbe is a proc.TraceSink: the process calls it synchronously for
// every malloc, free and pointer store, i.e. from inside worker.handle. It
// is the tests' window into the token-protected region.
type handleProbe struct {
	in       atomic.Bool
	events   atomic.Uint64
	overlaps atomic.Uint64
	// entered, when non-nil, is closed by the first event, which then
	// blocks until release closes: a caller parked inside handle.
	entered chan struct{}
	release chan struct{}
	once    sync.Once
	// hold, when nonzero, is slept inside every event: a holder that
	// outlasts the poll budget, so the callers behind it park.
	hold time.Duration
}

func (p *handleProbe) TraceEvent(kind uint8, tid int32, a, b, c uint64) {
	if !p.in.CompareAndSwap(false, true) {
		p.overlaps.Add(1)
		return
	}
	if p.events.Add(1)%16 == 0 {
		runtime.Gosched() // widen the window a second caller would need
	}
	if p.hold > 0 {
		time.Sleep(p.hold)
	}
	if p.entered != nil {
		p.once.Do(func() {
			close(p.entered)
			<-p.release
		})
	}
	p.in.Store(false)
}

func newTestWorker(t *testing.T, cfg Config) *worker {
	t.Helper()
	w, err := newWorker(0, cfg.normalized(), new(turnCounters))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		w.shutdown()
		if waitClosed(w.done, 5*time.Second) {
			w.close()
		} else {
			t.Error("worker never died after shutdown")
		}
	})
	return w
}

func isDeadline(err error) bool {
	var dl *DeadlineError
	return errors.As(err, &dl)
}

func isDown(err error) bool {
	var down *ShardDownError
	return errors.As(err, &down)
}

// TestWorkerTurnExcludesConcurrentCallers: N callers hammer one worker;
// the probe inside handle never sees two of them at once, every op is
// answered, and the audit identity — exact only if the detector was driven
// single-threaded — holds afterwards.
func TestWorkerTurnExcludesConcurrentCallers(t *testing.T) { exerciseTurnExclusion(t, 0) }

// TestWorkerTurnExclusionOnOneP: the same on one P — with a worker built
// there, whose contended callers park at once, and with one built on several
// Ps, whose pollers must yield for the holder to run at all.
func TestWorkerTurnExclusionOnOneP(t *testing.T) {
	t.Run("polls", func(t *testing.T) { exerciseTurnExclusion(t, 1) })
	t.Run("parks", func(t *testing.T) {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
		exerciseTurnExclusion(t, 0)
	})
}

// exerciseTurnExclusion builds a worker, drops to procs Ps if procs > 0, and
// runs the exclusion check.
func exerciseTurnExclusion(t *testing.T, procs int) {
	w := newTestWorker(t, testConfig(t, 1))
	if procs > 0 {
		w.polls = turnPolls // whatever this machine has
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	}
	probe := &handleProbe{}
	w.proc.SetTracer(probe)

	const callers, keysEach = 8, 150
	var wg sync.WaitGroup
	var failed atomic.Uint64
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for k := 0; k < keysEach; k++ {
				key := uint64(c)<<32 | uint64(k)
				stores := uint32(4)
				if k%16 == 0 {
					stores = 300 // hash mode and the cold tier take part
				}
				for _, req := range []transport.Request{
					{Op: transport.OpAlloc, Key: key, Size: 64 + uint64(k), Stores: stores},
					{Op: transport.OpCheck, Key: key},
					{Op: transport.OpFree, Key: key},
				} {
					if resp := w.send(req, 10*time.Second); resp.Err != nil {
						failed.Add(1)
						t.Errorf("caller %d %s key %d: %v", c, req.Op, k, resp.Err)
						return
					}
				}
			}
		}(c)
	}
	wg.Wait()
	if n := probe.overlaps.Load(); n != 0 {
		t.Fatalf("%d events saw a second caller inside handle", n)
	}
	if probe.events.Load() == 0 {
		t.Fatal("probe never ran: the test observed nothing")
	}
	ws, err := statsOf(w.send(transport.Request{Op: transport.OpStats}, 10*time.Second))
	if err != nil || len(ws.Audit) != 0 {
		t.Fatalf("audit identity after %d concurrent callers: err %v, violations %v", callers, err, ws.Audit)
	}
}

// TestWorkerDeadlineCoversWaitsNotHandle pins the deadline's scope: a
// caller parked inside handle past its own deadline still gets its answer
// (handle is not interrupted), while a caller waiting for the turn behind
// it gives up on time with a DeadlineError.
func TestWorkerDeadlineCoversWaitsNotHandle(t *testing.T) {
	w := newTestWorker(t, testConfig(t, 1))
	probe := &handleProbe{entered: make(chan struct{}), release: make(chan struct{})}
	w.proc.SetTracer(probe)

	holder := make(chan transport.Response, 1)
	go func() {
		holder <- w.send(transport.Request{Op: transport.OpAlloc, Key: 1, Size: 64, Stores: 2}, time.Millisecond)
	}()
	<-probe.entered

	const timeout = 20 * time.Millisecond
	start := time.Now()
	resp := w.send(transport.Request{Op: transport.OpPing}, timeout)
	if elapsed := time.Since(start); !isDeadline(resp.Err) || elapsed < timeout || elapsed > timeout+2*time.Second {
		t.Fatalf("waiter behind a busy turn: err %v after %v, want DeadlineError after ~%v", resp.Err, elapsed, timeout)
	}
	close(probe.release)
	if resp := <-holder; resp.Err != nil {
		t.Fatalf("holder, long past its 1ms deadline inside handle: %v, want its answer", resp.Err)
	}
	if resp := w.send(transport.Request{Op: transport.OpCheck, Key: 1}, time.Second); resp.Err != nil || !resp.Known {
		t.Fatalf("the holder's alloc was not applied: %+v", resp)
	}
}

// TestWorkerHangHoldsTurnUntilDeadlineOrStop: in hang mode the holder
// keeps the turn and serves nothing; a caller behind it with a short
// deadline gets DeadlineError on time; shutdown releases the patient ones
// with ShardDownError and the worker dies (done closes) without anyone
// being abandoned.
func TestWorkerHangHoldsTurnUntilDeadlineOrStop(t *testing.T) {
	w := newTestWorker(t, testConfig(t, 1))
	setMode(t, w, transport.DisruptHang)
	patient := make(chan transport.Response, 2)
	for i := 0; i < 2; i++ {
		go func() { patient <- w.send(transport.Request{Op: transport.OpPing}, time.Minute) }()
	}
	waitUntil(t, 5*time.Second, "a hung holder", func() bool { return w.turn.Load() == turnHeld })

	const timeout = 20 * time.Millisecond
	start := time.Now()
	resp := w.send(transport.Request{Op: transport.OpPing}, timeout)
	if elapsed := time.Since(start); !isDeadline(resp.Err) || elapsed > timeout+2*time.Second {
		t.Fatalf("caller behind a hung holder: err %v after %v, want DeadlineError within ~%v", resp.Err, elapsed, timeout)
	}

	w.shutdown()
	for i := 0; i < 2; i++ {
		select {
		case resp := <-patient:
			if !isDown(resp.Err) {
				t.Fatalf("patient caller %d after shutdown: %v, want ShardDownError", i, resp.Err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("shutdown did not release a caller held by hang mode")
		}
	}
	if !waitClosed(w.done, 5*time.Second) {
		t.Fatal("done never closed after shutdown")
	}
	if resp := w.send(transport.Request{Op: transport.OpPing}, time.Second); !isDown(resp.Err) {
		t.Fatalf("send to a dead worker: %v, want ShardDownError", resp.Err)
	}
}

// TestServiceHangCloseAbandonsNobody is the same at the service level:
// callers stuck behind a hung shard, then Close — every caller returns,
// and the worker is stopped, not abandoned.
func TestServiceHangCloseAbandonsNobody(t *testing.T) {
	cfg := testConfig(t, 1)
	cfg.HeartbeatInterval = time.Hour // no failover: Close must do the releasing
	cfg.RequestTimeout = 10 * time.Second
	s := mustNew(t, cfg)
	s.retry.maxElapsed = 10 * time.Second
	if err := s.Disrupt(0, "hang"); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(k uint64) {
			defer wg.Done()
			if v, err := s.Check("t", k); err != nil || !v.Degraded {
				t.Errorf("check behind a hung shard, then Close: %+v %v, want degraded", v, err)
			}
		}(uint64(i))
	}
	// Both callers must be inside the shard before Close: one holding the
	// hung turn, the other contended on it. A caller that has not reached
	// Check yet would get ClosedError, which is not what this test pins.
	waitUntil(t, 5*time.Second, "a hung holder and a contended caller", func() bool {
		w := s.shards[0].ep.Load().ep.(*worker)
		return w.turn.Load() == turnHeld && w.counts.contended.Load() >= 1
	})
	s.Close()
	wg.Wait()
	if c := s.Counters(); c.Abandoned != 0 {
		t.Fatalf("Close abandoned %d workers; stop should have released the hung turn", c.Abandoned)
	}
}

// TestSlowModeGiveUpMeansNotApplied pins the behaviour change of the
// synchronous model: a caller whose deadline is shorter than the slow
// delay (2 × RequestTimeout, so every caller's) gives up WITHOUT the op
// being applied (the old worker goroutine applied it late). The API is
// idempotent, so the re-issue applies it.
func TestSlowModeGiveUpMeansNotApplied(t *testing.T) {
	cfg := testConfig(t, 1)
	cfg.HeartbeatInterval = time.Hour // keep failover out: the shard must stay this worker
	cfg.RequestTimeout = 30 * time.Millisecond
	slowDelay := 2 * cfg.RequestTimeout
	s := mustNew(t, cfg)
	s.retry = retryPolicy{maxAttempts: 2, baseDelay: 100 * time.Microsecond, maxDelay: time.Millisecond, maxElapsed: 50 * time.Millisecond}
	if err := s.Disrupt(0, "slow"); err != nil {
		t.Fatal(err)
	}
	if v, err := s.Alloc("t", 1, 64, 2); err != nil || !v.Degraded {
		t.Fatalf("alloc with a deadline shorter than the slow delay: %+v %v, want degraded", v, err)
	}
	if c := s.Counters(); c.Timeouts == 0 {
		t.Fatal("the give-up was not a deadline")
	}
	if err := s.Disrupt(0, "none"); err != nil {
		t.Fatal(err)
	}
	// Well past the slow delay: a late apply would have landed by now.
	time.Sleep(2 * slowDelay)
	if st := s.ShardStats()[0]; st.Rebuilding || st.Failovers != 0 {
		t.Fatalf("shard status %+v, want the same worker, serving", st)
	}
	if v, err := s.Check("t", 1); err != nil || v.Degraded || v.Known {
		t.Fatalf("check after the give-up: %+v %v, want served and the key unknown (not applied)", v, err)
	}
	// The retry applies it — and with a deadline longer than the slow delay
	// a slow worker does too, just late.
	if err := s.Disrupt(0, "slow"); err != nil {
		t.Fatal(err)
	}
	w := s.shards[0].ep.Load().ep
	start := time.Now()
	if resp := w.send(transport.Request{Op: transport.OpAlloc, Key: keyFor("t", 1), Size: 64, Stores: 2}, 10*time.Second); resp.Err != nil {
		t.Fatalf("patient alloc on a slow worker: %v", resp.Err)
	}
	if elapsed := time.Since(start); elapsed < slowDelay {
		t.Fatalf("slow worker answered in %v, the slow delay is %v", elapsed, slowDelay)
	}
	if err := s.Disrupt(0, "none"); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, 5*time.Second, "the re-issued alloc to show", func() bool {
		v, err := s.Check("t", 1)
		return err == nil && !v.Degraded && v.Known
	})
}

// setMode switches the failure w simulates, the way Service.Disrupt does.
func setMode(t *testing.T, w *worker, mode uint8) {
	t.Helper()
	if resp := w.send(transport.Request{Op: transport.OpDisrupt, Mode: mode}, time.Second); resp.Err != nil {
		t.Fatal(resp.Err)
	}
}

// hangHolder puts w in hang mode and parks one caller inside send, holding
// the turn until its (minute-long) deadline or shutdown; its response
// arrives on the returned channel.
func hangHolder(t *testing.T, w *worker) <-chan transport.Response {
	t.Helper()
	setMode(t, w, transport.DisruptHang)
	held := make(chan transport.Response, 1)
	go func() { held <- w.send(transport.Request{Op: transport.OpPing}, time.Minute) }()
	waitUntil(t, 5*time.Second, "a hung holder", func() bool { return w.turn.Load() == turnHeld })
	return held
}

// TestDisruptLandsOnHungWorker: a mode change goes through send like every
// op but never waits for the turn — a caller hung inside it holds the turn,
// and the heal still has to land — whether the coordinator calls send itself
// or a worker process's connection handler does.
func TestDisruptLandsOnHungWorker(t *testing.T) {
	for _, row := range []struct {
		name string
		do   func(w *worker) transport.Handler
	}{
		{"send", func(w *worker) transport.Handler {
			return func(req transport.Request) transport.Response { return w.send(req, time.Second) }
		}},
		{"workerHandler", workerHandler},
	} {
		t.Run(row.name, func(t *testing.T) {
			w := newTestWorker(t, testConfig(t, 1))
			do := row.do(w)
			if resp := do(transport.Request{Op: transport.OpDisrupt, Mode: transport.DisruptHang}); resp.Err != nil {
				t.Fatal(resp.Err)
			}
			held := make(chan transport.Response, 1)
			go func() { held <- w.send(transport.Request{Op: transport.OpPing}, time.Minute) }()
			waitUntil(t, 5*time.Second, "a hung holder", func() bool { return w.turn.Load() == turnHeld })

			healed := make(chan transport.Response, 1)
			go func() { healed <- do(transport.Request{Op: transport.OpDisrupt, Mode: transport.DisruptNone}) }()
			select {
			case resp := <-healed:
				if resp.Err != nil {
					t.Fatal(resp.Err)
				}
			case <-time.After(5 * time.Second):
				t.Fatal("OpDisrupt waited behind the hung holder")
			}
			if mode := uint8(w.mode.Load()); mode != transport.DisruptNone || w.turn.Load() != turnHeld {
				t.Fatalf("after the heal: mode %d, turn state %d; want mode 0 landed while the turn was still held", mode, w.turn.Load())
			}
			w.shutdown()
			if resp := <-held; !isDown(resp.Err) {
				t.Fatalf("hung holder after shutdown: %v, want ShardDownError", resp.Err)
			}
		})
	}
}

// TestTurnNoLostWakeups: pingers behind a holder that every few
// milliseconds sleeps inside handle past the poll budget park and depend on
// release's wake token (or, past turnBypass, its hand-off). A lost wake-up
// shows as a DeadlineError at the 1 s deadline.
func TestTurnNoLostWakeups(t *testing.T) {
	for _, callers := range []int{2, 8} {
		t.Run(fmt.Sprint(callers), func(t *testing.T) {
			w := newTestWorker(t, testConfig(t, 1))
			w.proc.SetTracer(&handleProbe{hold: 2 * time.Millisecond})
			var holds atomic.Uint64
			stopSlow := make(chan struct{})
			slowDone := make(chan struct{})
			go func() {
				defer close(slowDone)
				for key := uint64(1); ; key++ {
					select {
					case <-stopSlow:
						return
					case <-time.After(3 * time.Millisecond):
					}
					// One malloc event: one 2 ms hold.
					if resp := w.send(transport.Request{Op: transport.OpAlloc, Key: key, Size: 64}, 10*time.Second); resp.Err != nil {
						t.Errorf("slow holder: %v", resp.Err)
						return
					}
					holds.Add(1)
				}
			}()
			var wg sync.WaitGroup
			for c := 0; c < callers; c++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < 200_000 || holds.Load() < 20; i++ {
						if resp := w.send(transport.Request{Op: transport.OpPing}, time.Second); resp.Err != nil {
							t.Errorf("ping %d: %v", i, resp.Err)
							return
						}
					}
				}()
			}
			wg.Wait()
			close(stopSlow)
			<-slowDone
			if w.counts.parked.Load() == 0 {
				t.Fatal("nobody parked: the test exercised no wake-up")
			}
		})
	}
}

// TestTurnWaitersTimeOutInParallel: k callers behind a hung holder each give
// up at their own deadline — together, not one timeout after another.
func TestTurnWaitersTimeOutInParallel(t *testing.T) {
	w := newTestWorker(t, testConfig(t, 1))
	hangHolder(t, w)
	const k, timeout = 4, 100 * time.Millisecond
	start := time.Now()
	var wg sync.WaitGroup
	for i := 0; i < k; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if resp := w.send(transport.Request{Op: transport.OpPing}, timeout); !isDeadline(resp.Err) {
				t.Errorf("waiter behind a hung holder: %v, want DeadlineError", resp.Err)
			}
		}()
	}
	wg.Wait()
	if elapsed := time.Since(start); elapsed < timeout || elapsed > 2*timeout {
		t.Fatalf("%d waiters gave up after %v, want ~%v each, in parallel", k, elapsed, timeout)
	}
}

// TestTurnShutdownReleasesEveryWaiter: shutdown reaches callers that are
// parked and callers still polling; each gets ShardDownError, done closes
// (a second close would panic) and no op enters handle.
func TestTurnShutdownReleasesEveryWaiter(t *testing.T) {
	w := newTestWorker(t, testConfig(t, 1))
	probe := &handleProbe{}
	w.proc.SetTracer(probe)
	held := hangHolder(t, w)
	const parked, polling = 3, 3
	out := make(chan transport.Response, parked+polling)
	waiter := func(key uint64) {
		out <- w.send(transport.Request{Op: transport.OpAlloc, Key: key, Size: 64, Stores: 2}, time.Minute)
	}
	for i := 0; i < parked; i++ {
		go waiter(uint64(i))
	}
	waitUntil(t, 10*time.Second, "waiters to park", func() bool { return w.parked.Load() == parked })
	for i := 0; i < polling; i++ {
		go waiter(uint64(parked + i))
	}
	for w.counts.contended.Load() < parked+polling {
		runtime.Gosched()
	}
	w.shutdown()
	for i := 0; i < parked+polling; i++ {
		select {
		case resp := <-out:
			if !isDown(resp.Err) {
				t.Fatalf("waiter after shutdown: %v, want ShardDownError", resp.Err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("shutdown left a waiter behind")
		}
	}
	if resp := <-held; !isDown(resp.Err) {
		t.Fatalf("hung holder after shutdown: %v, want ShardDownError", resp.Err)
	}
	if !waitClosed(w.done, 5*time.Second) || w.turn.Load() != turnRetired {
		t.Fatalf("worker not dead after shutdown: turn state %d", w.turn.Load())
	}
	if resp := w.send(transport.Request{Op: transport.OpAlloc, Key: 99, Size: 64}, time.Second); !isDown(resp.Err) {
		t.Fatalf("send to a dead worker: %v, want ShardDownError", resp.Err)
	}
	if n := probe.events.Load(); n != 0 {
		t.Fatalf("%d events inside handle on a worker that only ever hung and died", n)
	}
}

// hammer runs op from n goroutines in a closed loop until stop closes.
func hammer(n int, stop <-chan struct{}, op func(caller, i int)) *sync.WaitGroup {
	var wg sync.WaitGroup
	for c := 0; c < n; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				op(c, i)
			}
		}(c)
	}
	return &wg
}

// TestTurnBoundedBypass: barging callers cannot starve a patient one. A
// victim with a 50 ms deadline among four callers hammering one worker never
// times out, and a 1-shard service under four hammering clients misses no
// heartbeat.
func TestTurnBoundedBypass(t *testing.T) {
	t.Run("victim", func(t *testing.T) {
		w := newTestWorker(t, testConfig(t, 1))
		stop := make(chan struct{})
		wg := hammer(4, stop, func(c, i int) {
			key := uint64(c)<<32 | uint64(i)
			for _, req := range []transport.Request{{Op: transport.OpAlloc, Key: key, Size: 64, Stores: 40}, {Op: transport.OpFree, Key: key}} {
				if resp := w.send(req, 10*time.Second); resp.Err != nil {
					t.Errorf("hammering caller %d: %v", c, resp.Err)
				}
			}
		})
		for end := time.Now().Add(300 * time.Millisecond); time.Now().Before(end); {
			if resp := w.send(transport.Request{Op: transport.OpPing}, 50*time.Millisecond); resp.Err != nil {
				t.Errorf("victim: %v", resp.Err)
				break
			}
		}
		close(stop)
		wg.Wait()
	})
	t.Run("heartbeats", func(t *testing.T) {
		cfg := testConfig(t, 1)
		cfg.HeartbeatTimeout = 50 * time.Millisecond
		s := mustNew(t, cfg)
		stop := make(chan struct{})
		wg := hammer(4, stop, func(c, i int) {
			tenant, key := fmt.Sprint("t", c), uint64(i)
			if _, err := s.Alloc(tenant, key, 64, 40); err != nil {
				t.Errorf("alloc: %v", err)
			}
			if _, err := s.Free(tenant, key); err != nil {
				t.Errorf("free: %v", err)
			}
		})
		time.Sleep(300 * time.Millisecond)
		close(stop)
		wg.Wait()
		if c := s.Counters(); c.HeartbeatMisses != 0 || c.Failovers != 0 || c.Requests == 0 {
			t.Fatalf("hammered shard: %d heartbeat misses, %d failovers over %d requests (%d contended, %d parked)",
				c.HeartbeatMisses, c.Failovers, c.Requests, c.TurnContended, c.TurnParked)
		}
	})
}

// TestResponseStaysSmall: the response goes by value through handle → send →
// do on every op; it must stay within one cache line, the stats reply behind
// its slice header.
func TestResponseStaysSmall(t *testing.T) {
	if n := unsafe.Sizeof(transport.Response{}); n > 64 {
		t.Fatalf("transport.Response is %d bytes, want ≤ 64", n)
	}
}

// TestAllocFaultLeaksNothing: an alloc whose pointer stores fault must undo
// its malloc and give its anchor slot back — there is no keyRec to free
// them by later.
func TestAllocFaultLeaksNothing(t *testing.T) {
	w := newTestWorker(t, testConfig(t, 1))
	page := (w.scratch + vmem.PageSize - 1) / vmem.PageSize * vmem.PageSize
	w.proc.AddressSpace().Globals().UnmapPages(page, 1)
	failingAlloc := func(key uint64) {
		t.Helper()
		var fault *vmem.Fault
		// 300 stores at stride 97 reach every page of the scratch arena.
		if resp := w.send(transport.Request{Op: transport.OpAlloc, Key: key, Size: 256, Stores: 300}, time.Second); !errors.As(resp.Err, &fault) {
			t.Fatalf("alloc storing into an unmapped scratch page: %v, want a vmem.Fault", resp.Err)
		}
	}
	failingAlloc(1) // the first failure moves one fresh globals slot into the pool
	// MemoryFootprint itself counts every log byte ever allocated (the
	// paper's convention), so the test pins its resident half.
	mapped, pool := w.proc.AddressSpace().MappedBytes(), len(w.anchorFree)
	_, globals := w.proc.GlobalsUsed()
	for key := uint64(2); key < 200; key++ {
		failingAlloc(key)
	}
	if got := w.proc.AddressSpace().MappedBytes(); got != mapped {
		t.Errorf("mapped bytes %d → %d over 198 failed allocs", mapped, got)
	}
	if _, got := w.proc.GlobalsUsed(); got != globals || len(w.anchorFree) != pool {
		t.Errorf("globals end %d → %d, anchor pool %d → %d over 198 failed allocs", globals, got, pool, len(w.anchorFree))
	}
	if st := w.proc.Allocator().Stats(); st.LiveObjects != 0 || len(w.recs) != 0 {
		t.Errorf("%d live objects and %d key records left by failed allocs", st.LiveObjects, len(w.recs))
	}
	ws, err := statsOf(w.send(transport.Request{Op: transport.OpStats}, time.Second))
	if err != nil || len(ws.Audit) != 0 || ws.Stats.LogBytesLive != 0 {
		t.Errorf("after failed allocs: err %v, stats %+v", err, ws)
	}
}
