package service

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"dangsan/internal/detectors/dangsan"
	"dangsan/internal/pointerlog"
	"dangsan/internal/proc"
	"dangsan/internal/service/transport"
	"dangsan/internal/tcmalloc"
	"dangsan/internal/vmem"
)

// Verdict is the service-level answer to a request. Degraded verdicts are
// the fail-open outcome: the shard could not answer (retries exhausted,
// rebuild in progress) and the coordinator says so instead of guessing —
// never a false UAF claim, never a hang.
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

// keyRec is the worker-side state for one key.
type keyRec struct {
	anchor uint64 // globals slot holding the object pointer (deref target)
	base   uint64
	size   uint64
	stores uint32
	freed  bool
}

// worker owns one shard: an isolated address space, allocator, shadow
// table, pointer log, and detector. There is no worker goroutine: send
// takes the turn lock and runs the op on its caller's goroutine, so whoever
// holds the turn IS the worker and the audit identity stays exact (all
// detector work happens under the turn). The supervisor owns stop; done closes once the worker is dead —
// stopped, killed or panicked — and the turn is retired with it.
type worker struct {
	shard int

	proc *proc.Process
	det  *dangsan.Detector
	th   *proc.Thread

	stop     chan struct{}
	stopOnce sync.Once
	done     chan struct{}
	mode     atomic.Uint32 // the transport.Disrupt* failure being simulated
	panicked atomic.Bool

	slowDelay time.Duration // 2 × RequestTimeout: past every caller's deadline

	recs       map[uint64]*keyRec
	freed      freedWindow
	anchorFree []uint64
	scratch    uint64

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

// scratchSlots sizes each worker's scattered-pointer-store arena.
const scratchSlots = 2048

// turnCounters counts a shard's contended sends, across its incarnations.
type turnCounters struct{ contended, parked atomic.Uint64 }

// newWorker builds a shard worker with a fresh isolated stack, serving at
// once; failover replays the journal into it before publishing it.
func newWorker(shard int, cfg Config, counts *turnCounters) (*worker, error) {
	plCfg := pointerlog.DefaultConfig()
	plCfg.Audit = cfg.Audit
	if cfg.ColdSpillBytes > 0 {
		plCfg.ColdSpillBytes = cfg.ColdSpillBytes
		plCfg.ColdDir = cfg.ColdDir
	}
	det := dangsan.NewWithOptions(dangsan.Options{Config: plCfg})
	p := proc.NewWithOptions(det, proc.Options{HeapBytes: cfg.HeapBytes})
	w := &worker{
		shard:     shard,
		proc:      p,
		det:       det,
		th:        p.NewThread(),
		stop:      make(chan struct{}),
		done:      make(chan struct{}),
		born:      time.Now(),
		wake:      make(chan struct{}, 1),
		handoff:   make(chan struct{}),
		counts:    counts,
		slowDelay: 2 * cfg.RequestTimeout,
		freed:     freedWindow{max: cfg.FreedWindow},
		recs:      make(map[uint64]*keyRec),
	}
	if runtime.GOMAXPROCS(0) > 1 { // on one P nobody can free the turn while this goroutine polls it
		w.polls = turnPolls
	}
	scratch, err := p.TryAllocGlobal(scratchSlots * 8)
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

// send runs one request on the caller's goroutine once it holds the turn:
// the one handler behind both transports (the coordinator calls it directly,
// a worker process from its connection goroutines). The deadline covers the
// wait for the turn and any injected slow/hang delay, not handle itself;
// every failure is typed.
func (w *worker) send(req transport.Request, timeout time.Duration) (resp transport.Response) {
	if req.Op == transport.OpDisrupt {
		// A mode change never takes the turn: it must land on a worker that
		// is hung, and on one whose turn is taken.
		w.mode.Store(uint32(req.Mode))
		return transport.Response{}
	}
	var start time.Time // read off the clock only when something has to be waited for
	if !w.turn.CompareAndSwap(turnFree, turnHeld) {
		start = time.Now()
		if err := w.awaitTurn(req.Op, timeout, start); err != nil {
			return transport.Response{Err: err}
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
			resp = transport.Response{Err: &ShardDownError{Shard: w.shard, Reason: "worker panicked"}}
		}
		if died {
			w.turn.Store(turnRetired) // the turn dies with the worker: never freed
			close(w.done)
			return
		}
		w.release()
	}()

	mode := uint8(w.mode.Load())
	if mode == transport.DisruptSlow || mode == transport.DisruptHang {
		// Wait out slowDelay (forever in hang mode), what the wait for the
		// turn left of the deadline, or stop.
		wait, gaveUp := timeout, true
		if !start.IsZero() {
			wait -= time.Since(start)
		}
		if mode == transport.DisruptSlow && w.slowDelay < wait {
			wait, gaveUp = w.slowDelay, false
		}
		timer := time.NewTimer(wait)
		defer timer.Stop()
		select {
		case <-timer.C:
			if gaveUp {
				// The caller gave up first: the op is NOT applied.
				return transport.Response{Err: &DeadlineError{Shard: w.shard, Op: req.Op.String(), Timeout: timeout}}
			}
		case <-w.stop:
		}
	}
	select {
	case <-w.stop:
		return transport.Response{Err: &ShardDownError{Shard: w.shard, Reason: "worker stopped"}}
	default:
	}
	if mode == transport.DisruptKill || mode == transport.DisruptKillAfter {
		if mode == transport.DisruptKillAfter {
			// Apply, then crash before the reply: the mutation is real but
			// never confirmed — absent from the journal, invisible to the
			// client. Crash-consistency tests live here.
			w.handle(req)
		}
		died = true
		return transport.Response{Err: &ShardDownError{Shard: w.shard, Reason: "worker exited mid-request"}}
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
func (w *worker) awaitTurn(op transport.Op, timeout time.Duration, start time.Time) error {
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
			return &DeadlineError{Shard: w.shard, Op: op.String(), Timeout: timeout}
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
func (w *worker) handle(req transport.Request) transport.Response {
	switch req.Op {
	case transport.OpAlloc:
		return transport.Response{Err: w.handleAlloc(req.Key, req.Size, req.Stores)}
	case transport.OpFree:
		return transport.Response{Err: w.handleFree(req.Key)}
	case transport.OpCheck:
		return w.handleCheck(req.Key)
	case transport.OpPing:
		return transport.Response{}
	case transport.OpStats:
		return w.handleStats()
	}
	return transport.Response{Err: &transport.OpaqueError{Msg: fmt.Sprintf("unserviceable op %d", req.Op)}}
}

// handleStats answers with the JSON blob on both transports: stats are an
// operator path, and in-process callers exercise the codec the parity suite
// compares.
func (w *worker) handleStats() transport.Response {
	blob, err := transport.EncodeStats(transport.WireStats{Stats: w.det.Stats(), Cold: w.det.Logger().ColdLogStats(), Audit: w.det.AuditViolations()})
	if err != nil {
		return transport.Response{Err: &transport.OpaqueError{Msg: "stats encode: " + err.Error()}}
	}
	return transport.Response{StatsJSON: blob}
}

// handleAlloc creates the key's object: a malloc, an anchor pointer in the
// globals segment (the slot later checks dereference through), and
// `stores` scattered pointer stores into the scratch arena so the pointer
// log sees realistic fan-out — heavy keys cross the hash fallback and the
// cold spill threshold. Idempotent: re-allocating a live key is a no-op,
// so a retry after a lost reply is safe.
func (w *worker) handleAlloc(key, size uint64, stores uint32) error {
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
		// One local relief attempt: return idle pages, then retry. Further retries are the coordinator's call.
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
	for i := uint64(0); i < uint64(stores); i++ {
		// Stride 97 scatters consecutive stores across the arena so the
		// log sees distinct, non-adjacent locations (adjacent ones would
		// compress 3-into-1 and never reach hash mode).
		slot := w.scratch + ((key*2654435761 + i*97) % scratchSlots * 8)
		val := base + (i*8)%size
		if f := w.th.StorePtr(slot, val); f != nil {
			return undo(f)
		}
	}
	if rec, ok := w.recs[key]; ok {
		// Reincarnation of a freed key: the new object replaces the old
		// record; the old anchor goes back to the pool.
		w.anchorFree = append(w.anchorFree, rec.anchor)
		w.freed.drop(key)
	}
	w.recs[key] = &keyRec{anchor: anchor, base: base, size: size, stores: stores}
	return nil
}

// handleFree frees the key's object; the detector invalidates its anchor
// and every other logged pointer before the free returns. Idempotent on
// absent/freed keys.
func (w *worker) handleFree(key uint64) error {
	rec, ok := w.recs[key]
	if !ok || rec.freed {
		return nil
	}
	if err := w.th.Free(rec.base); err != nil {
		return err
	}
	rec.freed = true
	if old, ok := w.freed.push(key); ok {
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
func (w *worker) handleCheck(key uint64) transport.Response {
	rec, ok := w.recs[key]
	if !ok {
		return transport.Response{}
	}
	_, fault := w.th.Deref(rec.anchor)
	if rec.freed {
		return transport.Response{Known: true, Freed: true, UAF: fault != nil}
	}
	if fault != nil {
		return transport.Response{Known: true, Err: fault}
	}
	return transport.Response{Known: true}
}

func (w *worker) takeAnchor() (uint64, error) {
	if n := len(w.anchorFree); n > 0 {
		a := w.anchorFree[n-1]
		w.anchorFree = w.anchorFree[:n-1]
		return a, nil
	}
	return w.proc.TryAllocGlobal(8)
}

// close releases the worker's detector resources (the cold spill file).
// Only safe after done has closed; an abandoned worker (a turn that never
// came free) is deliberately never closed.
func (w *worker) close() {
	w.det.Close()
}

// The remaining endpoint methods: the in-process worker IS the channel
// transport's endpoint.

// kill has nothing harder than shutdown for an in-process worker. As the
// analog of SIGKILL it is still immediate: a holder waiting out a slow/hang
// unblocks on stop, and the worker is dead as soon as the turn is free — not
// on its next request.
func (w *worker) kill() { w.shutdown() }

func (w *worker) doneCh() <-chan struct{} { return w.done }

func (w *worker) didPanic() bool { return w.panicked.Load() }
