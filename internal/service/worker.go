package service

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"dangsan/internal/detectors/dangsan"
	"dangsan/internal/faultinject"
	"dangsan/internal/pointerlog"
	"dangsan/internal/proc"
	"dangsan/internal/service/transport"
	"dangsan/internal/tcmalloc"
	"dangsan/internal/vmem"
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
// chaos harness would flag. It is returned by value through handle → send →
// do on every op, so the stats reply of the one opStats caller sits behind a
// pointer.
type response struct {
	verdict Verdict
	stats   *transport.WireStats
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
// takes the turn lock and runs the op on its caller's goroutine, so whoever
// holds the turn IS the worker and the audit identity stays exact (all
// detector work, synchronous quarantine drains included, happens under the
// turn). The supervisor owns stop; done closes once the worker is dead —
// stopped, killed or panicked — and the turn is retired with it.
type worker struct {
	shard       int
	incarnation int

	proc  *proc.Process
	det   *dangsan.Detector
	th    *proc.Thread
	plane *faultinject.Plane

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

	// The turn lock (send, awaitTurn, release), on lines of its own: pollers
	// read turn while the holder writes the fields above.
	_           [64]byte
	turn        atomic.Uint32 // turnFree, turnHeld or turnRetired
	parked      atomic.Int32  // callers in awaitTurn's parked phase
	parkedSince atomic.Int64  // when the first of them began to wait, ns after born
	born        time.Time
	wake        chan struct{} // 1 slot: the turn came free, compete for it
	handoff     chan struct{} // unbuffered: the turn is yours
	polls       int           // turnPolls, or 0 on one P
	counts      *turnCounters
	_           [64]byte
}

const (
	turnFree uint32 = iota
	turnHeld
	turnRetired // the worker is dead
)

// turnPolls is how often a contended caller polls the turn, yielding after
// every 16th poll, before it parks: ≈ 200 µs on the reference box (190–280 µs
// measured). Parking pays only past that: a park plus the wake of a sleeping
// P cost ≈ 190 µs there (16.3 k parked waits cost 3.07 s of a svc-chan run)
// and the p99 hold is 40–60 µs.
const turnPolls = 16 << 10

// turnBypass bounds barging: while callers have been parked for longer,
// releases favour them over bargers — sync.Mutex's starvation mode at the
// same 1 ms, far under the 10–50 ms heartbeat deadlines.
const turnBypass = time.Millisecond

// turnCounters counts a shard's contended sends, across its incarnations.
type turnCounters struct{ contended, parked atomic.Uint64 }

// newWorker builds a shard worker with a fresh isolated stack, serving at
// once; failover replays the journal into it before publishing it.
func newWorker(shard, incarnation int, cfg Config, counts *turnCounters) (*worker, error) {
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
		stop:         make(chan struct{}),
		done:         make(chan struct{}),
		born:         time.Now(),
		wake:         make(chan struct{}, 1),
		handoff:      make(chan struct{}),
		counts:       counts,
		slowDelay:    cfg.SlowDelay,
		freedWindow:  cfg.FreedWindow,
		recs:         make(map[uint64]*keyRec),
		scratchSlots: uint64(cfg.ScratchSlots),
	}
	if runtime.GOMAXPROCS(0) > 1 { // on one P nobody can free the turn while this goroutine polls it
		w.polls = turnPolls
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
// the turn, by retiring it. shutdown calls it after closing stop and every
// holder after freeing the turn, so whichever comes last finds it free; only
// one CAS out of turnFree can win and nothing leaves turnRetired, so done
// closes exactly once and nothing runs in the worker after it.
func (w *worker) retireIfStopped() {
	select {
	case <-w.stop:
		if w.turn.CompareAndSwap(turnFree, turnRetired) {
			close(w.done)
		}
	default:
	}
}

// coldPath returns the worker's spill file location ("" if the cold tier
// never spilled).
func (w *worker) coldPath() string {
	return w.det.Logger().ColdLogStats().Path
}

// send runs one request on the caller's goroutine once it holds the turn.
// The deadline covers the wait for the turn and any injected slow/hang
// delay, not handle itself; every failure is typed.
func (w *worker) send(req request, timeout time.Duration) (resp response) {
	var start time.Time // read off the clock only when something has to be waited for
	if !w.turn.CompareAndSwap(turnFree, turnHeld) {
		start = time.Now()
		if err := w.awaitTurn(req.kind, timeout, start); err != nil {
			return response{err: err}
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
			w.turn.Store(turnRetired) // the turn dies with the worker: never freed
			close(w.done)
			return
		}
		w.release()
	}()

	mode := disruptMode(w.mode.Load())
	if mode == disruptSlow || mode == disruptHang {
		// Wait out SlowDelay (forever in hang mode), what the wait for the
		// turn left of the deadline, or stop.
		wait, gaveUp := timeout, true
		if !start.IsZero() {
			wait -= time.Since(start)
		}
		if mode == disruptSlow && w.slowDelay < wait {
			wait, gaveUp = w.slowDelay, false
		}
		timer := time.NewTimer(wait)
		defer timer.Stop()
		select {
		case <-timer.C:
			if gaveUp {
				// The caller gave up first: the op is NOT applied.
				return response{err: &DeadlineError{Shard: w.shard, Op: req.kind.String(), Timeout: timeout}}
			}
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

// awaitTurn is the contended half of taking the turn. A channel or a FIFO
// mutex hands a released turn to a goroutine that is not running yet, and the
// releaser coming straight back parks behind it: a convoy (DESIGN.md §12).
// So the caller polls, yielding between batches so that a P with other
// runnable goroutines is not held by a spinner; past turnPolls it parks, and
// a release only wakes it to compete again (barging) — until turnBypass.
// A deadline shorter than the poll phase is overrun by it.
func (w *worker) awaitTurn(kind opKind, timeout time.Duration, start time.Time) error {
	w.counts.contended.Add(1)
	for i := 1; i <= w.polls; i++ {
		if w.turn.Load() == turnFree && w.turn.CompareAndSwap(turnFree, turnHeld) {
			return nil
		}
		if i%16 == 0 {
			runtime.Gosched()
			if w.turn.Load() == turnRetired || time.Since(start) > min(turnBypass, timeout) {
				break // a dead worker, or slow yields: this P has other work
			}
		}
	}
	if w.turn.Load() == turnRetired {
		return &ShardDownError{Shard: w.shard, Reason: "worker exited"}
	}
	w.counts.parked.Add(1)
	if w.parked.Add(1) == 1 {
		w.parkedSince.Store(int64(start.Sub(w.born)))
	}
	defer w.parked.Add(-1)
	timer := time.NewTimer(timeout - time.Since(start))
	defer timer.Stop()
	for {
		// parked is announced: a release from here on leaves a wake token,
		// an earlier one left the turn free for this attempt.
		if w.turn.CompareAndSwap(turnFree, turnHeld) {
			return nil
		}
		select {
		case <-w.handoff:
			return nil
		case <-w.wake:
		case <-w.done:
			return &ShardDownError{Shard: w.shard, Reason: "worker exited"}
		case <-timer.C:
			return &DeadlineError{Shard: w.shard, Op: kind.String(), Timeout: timeout}
		}
	}
}

// release frees the turn for whoever takes it first and wakes one parked
// caller to compete. Once callers have been parked for turnBypass it favours
// them: it hands the turn to one that is in its select right now (the
// unbuffered send cannot strand the turn) or, if all are awake but not
// running, frees it and yields to them.
func (w *worker) release() {
	starving := w.parked.Load() > 0 && time.Since(w.born)-time.Duration(w.parkedSince.Load()) > turnBypass
	if starving {
		select {
		case w.handoff <- struct{}{}:
			runtime.Gosched() // the new holder is not running yet: let it
			return
		default:
		}
	}
	w.turn.Store(turnFree)
	if w.parked.Load() > 0 {
		select {
		case w.wake <- struct{}{}:
		default:
		}
	}
	w.retireIfStopped()
	if starving {
		runtime.Gosched()
	}
}

// handle executes one request. Only send calls it, holding the turn.
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
		return response{stats: &transport.WireStats{Stats: w.det.Stats(), Cold: w.det.Logger().ColdLogStats(), Audit: w.det.AuditViolations()}}
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
	// A faulting store leaves no keyRec to free the object by: undo the
	// malloc and give the anchor slot back here.
	undo := func(f *vmem.Fault) error {
		_ = w.th.Free(base)
		w.anchorFree = append(w.anchorFree, anchor)
		return f
	}
	if f := w.th.StorePtr(anchor, base); f != nil {
		return undo(f)
	}
	for i := 0; i < stores; i++ {
		// Stride 97 scatters consecutive stores across the arena so the
		// log sees distinct, non-adjacent locations (adjacent ones would
		// compress 3-into-1 and never reach hash mode).
		slot := w.scratch + ((key*2654435761 + uint64(i)*97) % w.scratchSlots * 8)
		val := base + (uint64(i)*8)%size
		if f := w.th.StorePtr(slot, val); f != nil {
			return undo(f)
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
