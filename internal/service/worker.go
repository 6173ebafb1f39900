package service

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"dangsan/internal/detectors/dangsan"
	"dangsan/internal/faultinject"
	"dangsan/internal/pointerlog"
	"dangsan/internal/proc"
	"dangsan/internal/tcmalloc"
)

// opKind enumerates the worker's request vocabulary.
type opKind uint8

const (
	opAlloc opKind = iota
	opFree
	opCheck
	opPing
	opStats
	opQuiesce
)

func (k opKind) String() string {
	switch k {
	case opAlloc:
		return "alloc"
	case opFree:
		return "free"
	case opCheck:
		return "check"
	case opPing:
		return "ping"
	case opStats:
		return "stats"
	case opQuiesce:
		return "quiesce"
	}
	return "unknown"
}

// Verdict is the service-level answer to a request. Degraded verdicts are
// the fail-open outcome: the shard could not answer (breaker open, retries
// exhausted, rebuild in progress) and the coordinator says so instead of
// guessing — never a false UAF claim, never a hang.
type Verdict struct {
	// Known: the shard has a record for the key.
	Known bool
	// Freed: the key's object has been freed (check verdicts only).
	Freed bool
	// UAF: a dereference through the key's anchor pointer faulted — for a
	// freed key this is the detector catching the use-after-free.
	UAF bool
	// Degraded: the shard could not be consulted; all other fields are
	// meaningless.
	Degraded bool
}

// request is one op for a worker.
type request struct {
	kind   opKind
	key    uint64
	size   uint64
	stores int
}

// response carries the worker's answer. err is always one of the typed
// errors (ShardDownError/DeadlineError from the transport, the allocator's
// OutOfMemoryError, proc's ExhaustedError, or a vmem.Fault from a live-key
// check) — an untyped error escaping a worker is a contract violation the
// chaos harness would flag.
type response struct {
	verdict Verdict
	stats   pointerlog.Snapshot
	cold    pointerlog.ColdStats
	audit   []string
	err     error
}

// disruptMode is the injected failure a worker is currently simulating.
type disruptMode int32

const (
	disruptNone disruptMode = iota
	// disruptSlow: every request waits SlowDelay before being served, or
	// gives up at its deadline, unapplied.
	disruptSlow
	// disruptHang: no request is ever served; each caller holds the turn
	// until its deadline or the supervisor's stop (failover).
	disruptHang
	// disruptKill: the worker exits on its next request without replying —
	// a crash, from the coordinator's perspective.
	disruptKill
	// disruptKillAfter: the worker APPLIES its next request and then dies
	// without replying — the crash-consistency window between a worker
	// committing a mutation and the coordinator journaling it.
	disruptKillAfter
	// disruptSigKill: the worker dies immediately, not on its next
	// request. For a process worker this is a real SIGKILL; the in-process
	// analog stops the worker as soon as the turn is free.
	disruptSigKill
	// Network faults (wire transports only): one-shot disruptions of the
	// coordinator→worker connections themselves — the worker is healthy,
	// the wire is not. disruptNetPartition drops connections mid-request,
	// disruptNetTrickle writes a byte every few milliseconds until the
	// deadline, disruptNetGarbage injects non-frame bytes ahead of a
	// request.
	disruptNetPartition
	disruptNetTrickle
	disruptNetGarbage
)

// keyRec is the worker-side state for one key.
type keyRec struct {
	anchor uint64 // globals slot holding the object pointer (deref target)
	base   uint64
	size   uint64
	stores int
	freed  bool
}

// worker owns one shard: an isolated address space, allocator, shadow
// table, pointer log, and detector. There is no worker goroutine: send
// takes the 1-slot turn token and runs the op on its caller's goroutine, so
// whoever holds the token IS the worker and the audit identity stays exact
// (all detector work, synchronous quarantine drains included, happens under
// the token). The supervisor owns stop; done closes once the worker is dead
// — stopped, killed or panicked — and the token is retired with it.
type worker struct {
	shard       int
	incarnation int

	proc  *proc.Process
	det   *dangsan.Detector
	th    *proc.Thread
	plane *faultinject.Plane

	turn     chan struct{}
	stop     chan struct{}
	stopOnce sync.Once
	done     chan struct{}
	mode     atomic.Int32
	panicked atomic.Bool

	slowDelay   time.Duration
	freedWindow int

	recs         map[uint64]*keyRec
	freedFIFO    []uint64
	anchorFree   []uint64
	scratch      uint64
	scratchSlots uint64
}

// newWorker builds a shard worker with a fresh isolated stack, serving at
// once; failover replays the journal into it before publishing it.
func newWorker(shard, incarnation int, cfg Config) (*worker, error) {
	var plane *faultinject.Plane
	if cfg.FaultRate > 0 {
		// Distinct deterministic stream per shard and incarnation so a
		// rebuilt worker does not replay its predecessor's failures.
		plane = faultinject.New(cfg.FaultSeed + int64(shard)*1000003 + int64(incarnation)*7919)
		plane.EnableAll(cfg.FaultRate, cfg.FaultBudget)
	}
	plCfg := pointerlog.DefaultConfig()
	plCfg.Audit = cfg.Audit
	plCfg.MaxMetadataBytes = cfg.MaxMetadataBytes
	if cfg.QuarantineBytes > 0 {
		plCfg.QuarantineBytes = cfg.QuarantineBytes
		plCfg.QuarantineEpoch = cfg.QuarantineEpoch
		// Synchronous drains keep the worker single-threaded end to end:
		// the audit identity stays exact and failover never races a
		// background drain goroutine.
		plCfg.QuarantineSync = true
	}
	if cfg.ColdSpillBytes > 0 {
		plCfg.ColdSpillBytes = cfg.ColdSpillBytes
		plCfg.ColdDir = cfg.ColdDir
	}
	det := dangsan.NewWithOptions(dangsan.Options{Config: plCfg, Faults: plane})
	p := proc.NewWithOptions(det, proc.Options{HeapBytes: cfg.HeapBytes, Faults: plane})
	w := &worker{
		shard:        shard,
		incarnation:  incarnation,
		proc:         p,
		det:          det,
		th:           p.NewThread(),
		plane:        plane,
		turn:         make(chan struct{}, 1),
		stop:         make(chan struct{}),
		done:         make(chan struct{}),
		slowDelay:    cfg.SlowDelay,
		freedWindow:  cfg.FreedWindow,
		recs:         make(map[uint64]*keyRec),
		scratchSlots: uint64(cfg.ScratchSlots),
	}
	scratch, err := p.TryAllocGlobal(w.scratchSlots * 8)
	if err != nil {
		det.Close()
		return nil, err
	}
	w.scratch = scratch
	return w, nil
}

// shutdown stops the worker: no later request is served, and done closes
// as soon as the turn is free. Safe to call repeatedly.
func (w *worker) shutdown() {
	w.stopOnce.Do(func() {
		close(w.stop)
		w.retireIfStopped()
	})
}

// retireIfStopped closes done once the worker is stopped and nobody holds
// the turn, by taking the token for good. shutdown calls it after closing
// stop and every holder after giving the token back, so whichever comes
// last finds the token free; it is never released again, so done closes
// exactly once and nothing runs in the worker after it.
func (w *worker) retireIfStopped() {
	select {
	case <-w.stop:
		select {
		case w.turn <- struct{}{}:
			close(w.done)
		default:
		}
	default:
	}
}

// coldPath returns the worker's spill file location ("" if the cold tier
// never spilled).
func (w *worker) coldPath() string {
	return w.det.Logger().ColdLogStats().Path
}

// send runs one request on the caller's goroutine once the turn token is
// free. The deadline covers the wait for the token and any injected
// slow/hang delay, not handle itself; every failure is typed.
func (w *worker) send(req request, timeout time.Duration) (resp response) {
	var timer *time.Timer // armed only when something has to be waited for
	select {
	case w.turn <- struct{}{}:
	default:
		timer = time.NewTimer(timeout)
		defer timer.Stop()
		select {
		case w.turn <- struct{}{}:
		case <-w.done:
			return response{err: &ShardDownError{Shard: w.shard, Reason: "worker exited"}}
		case <-timer.C:
			return response{err: &DeadlineError{Shard: w.shard, Op: req.kind.String(), Timeout: timeout}}
		}
	}
	died := false
	defer func() {
		if r := recover(); r != nil {
			// A worker panic must never take the process down: record it
			// and die; the supervisor notices done and rebuilds the shard.
			// The panic value is intentionally not re-raised.
			w.panicked.Store(true)
			died = true
			resp = response{err: &ShardDownError{Shard: w.shard, Reason: "worker panicked"}}
		}
		if died {
			close(w.done) // the token dies with the worker: never released
			return
		}
		<-w.turn
		w.retireIfStopped()
	}()

	mode := disruptMode(w.mode.Load())
	if mode == disruptSlow || mode == disruptHang {
		if timer == nil {
			timer = time.NewTimer(timeout)
			defer timer.Stop()
		}
		var slow <-chan time.Time // nil in hang mode: never fires
		if mode == disruptSlow {
			st := time.NewTimer(w.slowDelay)
			defer st.Stop()
			slow = st.C
		}
		select {
		case <-slow:
		case <-timer.C:
			// The caller gave up first: the op is NOT applied.
			return response{err: &DeadlineError{Shard: w.shard, Op: req.kind.String(), Timeout: timeout}}
		case <-w.stop:
		}
	}
	select {
	case <-w.stop:
		return response{err: &ShardDownError{Shard: w.shard, Reason: "worker stopped"}}
	default:
	}
	if mode == disruptKill || mode == disruptKillAfter {
		if mode == disruptKillAfter {
			// Apply, then crash before the reply: the mutation is real but
			// never confirmed — absent from the journal, invisible to the
			// client. Crash-consistency tests live here.
			w.handle(req)
		}
		died = true
		return response{err: &ShardDownError{Shard: w.shard, Reason: "worker exited mid-request"}}
	}
	return w.handle(req)
}

// handle executes one request. Only send calls it, holding the turn token.
func (w *worker) handle(req request) response {
	switch req.kind {
	case opAlloc:
		return response{err: w.handleAlloc(req.key, req.size, req.stores)}
	case opFree:
		return response{err: w.handleFree(req.key)}
	case opCheck:
		v, err := w.handleCheck(req.key)
		return response{verdict: v, err: err}
	case opPing:
		return response{}
	case opStats:
		return response{stats: w.det.Stats(), cold: w.det.Logger().ColdLogStats(), audit: w.det.AuditViolations()}
	case opQuiesce:
		w.proc.Quiesce()
		return response{}
	}
	return response{err: fmt.Errorf("service: unknown op %d", req.kind)}
}

// handleAlloc creates the key's object: a malloc, an anchor pointer in the
// globals segment (the slot later checks dereference through), and
// `stores` scattered pointer stores into the scratch arena so the pointer
// log sees realistic fan-out — heavy keys cross the hash fallback and the
// cold spill threshold. Idempotent: re-allocating a live key is a no-op,
// so a retry after a lost reply is safe.
func (w *worker) handleAlloc(key, size uint64, stores int) error {
	if rec, ok := w.recs[key]; ok && !rec.freed {
		return nil
	}
	if size < 8 {
		size = 8
	}
	base, err := w.th.Malloc(size)
	if err != nil {
		var oom *tcmalloc.OutOfMemoryError
		if !errors.As(err, &oom) {
			return err
		}
		// One local relief attempt: drain the quarantine and return idle
		// pages, then retry. Further retries are the coordinator's call.
		w.proc.ReclaimMemory()
		base, err = w.th.Malloc(size)
		if err != nil {
			return err
		}
	}
	anchor, err := w.takeAnchor()
	if err != nil {
		// Undo the malloc so the failed registration does not leak.
		_ = w.th.Free(base)
		return err
	}
	if f := w.th.StorePtr(anchor, base); f != nil {
		return f
	}
	for i := 0; i < stores; i++ {
		// Stride 97 scatters consecutive stores across the arena so the
		// log sees distinct, non-adjacent locations (adjacent ones would
		// compress 3-into-1 and never reach hash mode).
		slot := w.scratch + ((key*2654435761 + uint64(i)*97) % w.scratchSlots * 8)
		val := base + (uint64(i)*8)%size
		if f := w.th.StorePtr(slot, val); f != nil {
			return f
		}
	}
	if rec, ok := w.recs[key]; ok {
		// Reincarnation of a freed key: the new object replaces the old
		// record; the old anchor goes back to the pool.
		w.anchorFree = append(w.anchorFree, rec.anchor)
		w.dropFreed(key)
	}
	w.recs[key] = &keyRec{anchor: anchor, base: base, size: size, stores: stores}
	return nil
}

// handleFree frees the key's object. With quarantine armed the detector
// takes custody and invalidation happens at the epoch drain — until then a
// probe through the anchor legitimately still succeeds (the memory has not
// been reused; there is no hazard yet). Idempotent on absent/freed keys.
func (w *worker) handleFree(key uint64) error {
	rec, ok := w.recs[key]
	if !ok || rec.freed {
		return nil
	}
	if err := w.th.Free(rec.base); err != nil {
		return err
	}
	rec.freed = true
	w.freedFIFO = append(w.freedFIFO, key)
	for len(w.freedFIFO) > w.freedWindow {
		old := w.freedFIFO[0]
		w.freedFIFO = w.freedFIFO[1:]
		if orec, ok := w.recs[old]; ok && orec.freed {
			w.anchorFree = append(w.anchorFree, orec.anchor)
			delete(w.recs, old)
		}
	}
	return nil
}

// handleCheck dereferences through the key's anchor. For a freed key a
// fault is the detector working (the anchor pointer was invalidated); for
// a live key a fault is a FALSE UAF — surfaced as the error so the caller
// (and the chaos harness) can flag it.
func (w *worker) handleCheck(key uint64) (Verdict, error) {
	rec, ok := w.recs[key]
	if !ok {
		return Verdict{}, nil
	}
	_, fault := w.th.Deref(rec.anchor)
	if rec.freed {
		return Verdict{Known: true, Freed: true, UAF: fault != nil}, nil
	}
	if fault != nil {
		return Verdict{Known: true}, fault
	}
	return Verdict{Known: true}, nil
}

func (w *worker) takeAnchor() (uint64, error) {
	if n := len(w.anchorFree); n > 0 {
		a := w.anchorFree[n-1]
		w.anchorFree = w.anchorFree[:n-1]
		return a, nil
	}
	return w.proc.TryAllocGlobal(8)
}

func (w *worker) dropFreed(key uint64) {
	for i, k := range w.freedFIFO {
		if k == key {
			w.freedFIFO = append(w.freedFIFO[:i], w.freedFIFO[i+1:]...)
			return
		}
	}
}

// close releases the worker's detector resources (the cold spill file).
// Only safe after done has closed; an abandoned worker (a turn that never
// came free) is deliberately never closed.
func (w *worker) close() { w.det.Close() }

// The remaining endpoint methods: the in-process worker IS the channel
// transport's endpoint.

// kill has nothing harder than shutdown for an in-process worker.
func (w *worker) kill() { w.shutdown() }

func (w *worker) doneCh() <-chan struct{} { return w.done }

func (w *worker) didPanic() bool { return w.panicked.Load() }

func (w *worker) incarnationID() int { return w.incarnation }

// disrupt injects a failure mode. Mode changes are a bare atomic store —
// they must land even when the worker is hung or its turn is taken.
func (w *worker) disrupt(m disruptMode) error {
	switch m {
	case disruptSigKill:
		// The in-process analog of SIGKILL: a holder waiting out a
		// slow/hang unblocks on stop, and the worker is dead as soon as
		// the turn is free — not on its next request.
		w.shutdown()
		return nil
	case disruptNetPartition, disruptNetTrickle, disruptNetGarbage:
		return fmt.Errorf("service: network fault %d needs a wire transport", m)
	}
	w.mode.Store(int32(m))
	return nil
}
