package service

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// Tests of the worker execution model: no worker goroutine, a 1-slot turn
// token, every op on its caller's goroutine. All of them are meant to run
// under -race.

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
}

func (p *handleProbe) TraceEvent(kind uint8, tid int32, a, b, c uint64) {
	if !p.in.CompareAndSwap(false, true) {
		p.overlaps.Add(1)
		return
	}
	if p.events.Add(1)%16 == 0 {
		runtime.Gosched() // widen the window a second caller would need
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
	w, err := newWorker(0, 0, cfg.normalized())
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
func TestWorkerTurnExcludesConcurrentCallers(t *testing.T) {
	w := newTestWorker(t, testConfig(t, 1))
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
				stores := 4
				if k%16 == 0 {
					stores = 300 // hash mode and the cold tier take part
				}
				for _, req := range []request{
					{kind: opAlloc, key: key, size: 64 + uint64(k), stores: stores},
					{kind: opCheck, key: key},
					{kind: opFree, key: key},
				} {
					if resp := w.send(req, 10*time.Second); resp.err != nil {
						failed.Add(1)
						t.Errorf("caller %d %s key %d: %v", c, req.kind, k, resp.err)
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
	if resp := w.send(request{kind: opQuiesce}, 10*time.Second); resp.err != nil {
		t.Fatalf("quiesce: %v", resp.err)
	}
	resp := w.send(request{kind: opStats}, 10*time.Second)
	if resp.err != nil || len(resp.audit) != 0 {
		t.Fatalf("audit identity after %d concurrent callers: err %v, violations %v", callers, resp.err, resp.audit)
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

	holder := make(chan response, 1)
	go func() {
		holder <- w.send(request{kind: opAlloc, key: 1, size: 64, stores: 2}, time.Millisecond)
	}()
	<-probe.entered

	const timeout = 20 * time.Millisecond
	start := time.Now()
	resp := w.send(request{kind: opPing}, timeout)
	if elapsed := time.Since(start); !isDeadline(resp.err) || elapsed < timeout || elapsed > timeout+2*time.Second {
		t.Fatalf("waiter behind a busy turn: err %v after %v, want DeadlineError after ~%v", resp.err, elapsed, timeout)
	}
	close(probe.release)
	if resp := <-holder; resp.err != nil {
		t.Fatalf("holder, long past its 1ms deadline inside handle: %v, want its answer", resp.err)
	}
	if resp := w.send(request{kind: opCheck, key: 1}, time.Second); resp.err != nil || !resp.verdict.Known {
		t.Fatalf("the holder's alloc was not applied: %+v %v", resp.verdict, resp.err)
	}
}

// TestWorkerHangHoldsTurnUntilDeadlineOrStop: in hang mode the holder
// keeps the turn and serves nothing; a caller behind it with a short
// deadline gets DeadlineError on time; shutdown releases the patient ones
// with ShardDownError and the worker dies (done closes) without anyone
// being abandoned.
func TestWorkerHangHoldsTurnUntilDeadlineOrStop(t *testing.T) {
	w := newTestWorker(t, testConfig(t, 1))
	if err := w.disrupt(disruptHang); err != nil {
		t.Fatal(err)
	}
	patient := make(chan response, 2)
	for i := 0; i < 2; i++ {
		go func() { patient <- w.send(request{kind: opPing}, time.Minute) }()
	}
	waitUntil(t, 5*time.Second, "a hung holder", func() bool { return len(w.turn) == 1 })

	const timeout = 20 * time.Millisecond
	start := time.Now()
	resp := w.send(request{kind: opPing}, timeout)
	if elapsed := time.Since(start); !isDeadline(resp.err) || elapsed > timeout+2*time.Second {
		t.Fatalf("caller behind a hung holder: err %v after %v, want DeadlineError within ~%v", resp.err, elapsed, timeout)
	}

	w.shutdown()
	for i := 0; i < 2; i++ {
		select {
		case resp := <-patient:
			if !isDown(resp.err) {
				t.Fatalf("patient caller %d after shutdown: %v, want ShardDownError", i, resp.err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("shutdown did not release a caller held by hang mode")
		}
	}
	if !waitClosed(w.done, 5*time.Second) {
		t.Fatal("done never closed after shutdown")
	}
	if resp := w.send(request{kind: opPing}, time.Second); !isDown(resp.err) {
		t.Fatalf("send to a dead worker: %v, want ShardDownError", resp.err)
	}
}

// TestServiceHangCloseAbandonsNobody is the same at the service level:
// callers stuck behind a hung shard, then Close — every caller returns,
// and the worker is stopped, not abandoned.
func TestServiceHangCloseAbandonsNobody(t *testing.T) {
	cfg := testConfig(t, 1)
	cfg.HeartbeatInterval = time.Hour // no failover: Close must do the releasing
	cfg.RequestTimeout = 10 * time.Second
	cfg.Retry.MaxElapsed = 10 * time.Second
	s := mustNew(t, cfg)
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
	waitUntil(t, 5*time.Second, "a hung holder", func() bool {
		return len(s.shards[0].ep.Load().ep.(*worker).turn) == 1
	})
	s.Close()
	wg.Wait()
	if c := s.Counters(); c.Abandoned != 0 {
		t.Fatalf("Close abandoned %d workers; stop should have released the hung turn", c.Abandoned)
	}
}

// TestSlowModeGiveUpMeansNotApplied pins the behaviour change of the
// synchronous model: a caller whose deadline is shorter than SlowDelay
// gives up WITHOUT the op being applied (the old worker goroutine applied
// it late). The API is idempotent, so the re-issue applies it.
func TestSlowModeGiveUpMeansNotApplied(t *testing.T) {
	cfg := testConfig(t, 1)
	cfg.HeartbeatInterval = time.Hour // keep failover out: the shard must stay this worker
	cfg.SlowDelay = 60 * time.Millisecond
	cfg.RequestTimeout = 5 * time.Millisecond
	cfg.Retry = RetryPolicy{MaxAttempts: 2, BaseDelay: 100 * time.Microsecond, MaxDelay: time.Millisecond, MaxElapsed: 50 * time.Millisecond}
	s := mustNew(t, cfg)
	if err := s.Disrupt(0, "slow"); err != nil {
		t.Fatal(err)
	}
	if v, err := s.Alloc("t", 1, 64, 2); err != nil || !v.Degraded {
		t.Fatalf("alloc with a deadline shorter than SlowDelay: %+v %v, want degraded", v, err)
	}
	if c := s.Counters(); c.Timeouts == 0 {
		t.Fatal("the give-up was not a deadline")
	}
	if err := s.Disrupt(0, "none"); err != nil {
		t.Fatal(err)
	}
	// Well past SlowDelay: a late apply would have landed by now.
	time.Sleep(2 * cfg.SlowDelay)
	waitUntil(t, 5*time.Second, "breaker to let a probe through", func() bool {
		v, err := s.Check("t", 1)
		if err != nil {
			t.Fatal(err)
		}
		if v.Degraded {
			return false
		}
		if v.Known {
			t.Fatal("the op the caller gave up on was applied anyway")
		}
		return true
	})
	// The retry applies it — and with a deadline longer than SlowDelay a
	// slow worker does too, just late.
	if err := s.Disrupt(0, "slow"); err != nil {
		t.Fatal(err)
	}
	w := s.shards[0].ep.Load().ep
	start := time.Now()
	if resp := w.send(request{kind: opAlloc, key: keyFor("t", 1), size: 64, stores: 2}, 10*time.Second); resp.err != nil {
		t.Fatalf("patient alloc on a slow worker: %v", resp.err)
	}
	if elapsed := time.Since(start); elapsed < cfg.SlowDelay {
		t.Fatalf("slow worker answered in %v, SlowDelay is %v", elapsed, cfg.SlowDelay)
	}
	if err := s.Disrupt(0, "none"); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, 5*time.Second, "the re-issued alloc to show", func() bool {
		v, err := s.Check("t", 1)
		return err == nil && !v.Degraded && v.Known
	})
}
