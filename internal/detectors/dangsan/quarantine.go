// Epoch-based free quarantine: deferred frees enter a bounded ring and are
// retired in batches, so one merged shadow walk (pointerlog.InvalidateMany)
// invalidates many dying objects, and an object's memory returns to the
// allocator only after its metadata is released — no address reuse while
// invalidation is pending.
//
// Lifecycle of a deferred free:
//
//	OnFreeDeferred: shadow cleared, meta moved live→quarantined (audit),
//	                entry enqueued — the detector now owns the memory.
//	epoch drain:    a batch of Config.QuarantineEpoch entries is taken;
//	                InvalidateMany walks the union of their logs once;
//	                metas are released; the release callback hands the
//	                base addresses back to the allocator.
//
// Overflow (Config.QuarantineBytes exceeded) forces synchronous drains on
// the freeing thread until the ring is back under budget — the same
// fail-open contract as MaxMetadataBytes: degraded latency, never a panic
// and never unbounded growth.
package dangsan

import (
	"sync"
	"sync/atomic"
	"time"

	"dangsan/internal/obs"
	"dangsan/internal/pointerlog"
	"dangsan/internal/tcmalloc"
)

// quarEntry is one deferred free awaiting its epoch.
type quarEntry struct {
	handle, base, size uint64
}

// quarMetrics bundles the quarantine's obs instruments; nil until
// AttachMetrics.
type quarMetrics struct {
	drainNs        *obs.Histogram
	batchObjects   *obs.Histogram
	overflowDrains *obs.Counter
	releaseErrors  *obs.Counter
}

// quarantine is the engine. All queue state is guarded by mu; the drain
// itself (invalidate + release) runs outside the lock so frees can keep
// enqueueing while a batch retires.
type quarantine struct {
	d        *Detector
	maxBytes uint64
	epoch    int
	sync     bool

	release func(bases []uint64) (int, error)

	mu      sync.Mutex
	cond    *sync.Cond
	pending []quarEntry
	head    int
	bytes   uint64
	// bases holds every address currently in custody — from enqueue until
	// its memory has been handed back through the release callback. It
	// backs double-free detection (a free of a base whose shadow entry is
	// already cleared checks here) and the runtime's Quarantined queries.
	// The value is the custody phase: 0 while the entry is parked in the
	// ring, or the retiring batch's id once a drain has taken it. The
	// phase lets enqueue distinguish a reincarnated base (its previous
	// incarnation mid-retirement, its memory already re-issued) from a
	// genuine double free without ever blocking — a freeing thread must
	// never wait on a batch, because on the synchronous-drain paths it IS
	// the thread retiring that batch (re-entrant free from the release
	// callback), and waiting would self-deadlock.
	bases map[uint64]uint64
	// batchSeq issues batch ids (starting at 1; 0 means parked).
	batchSeq uint64
	inflight int
	worker   bool

	epochs atomic.Uint64

	met atomic.Pointer[quarMetrics]
}

func newQuarantine(d *Detector, cfg pointerlog.Config) *quarantine {
	if cfg.QuarantineBytes == 0 {
		return nil
	}
	q := &quarantine{
		d:        d,
		maxBytes: cfg.QuarantineBytes,
		epoch:    cfg.QuarantineEpoch,
		sync:     cfg.QuarantineSync,
		bases:    make(map[uint64]uint64),
	}
	q.cond = sync.NewCond(&q.mu)
	return q
}

func (q *quarantine) attachMetrics(reg *obs.Registry) {
	q.met.Store(&quarMetrics{
		drainNs:        reg.Histogram("dangsan.quarantine_drain_ns"),
		batchObjects:   reg.Histogram("dangsan.quarantine_batch_objects"),
		overflowDrains: reg.Counter("dangsan.quarantine_overflow_drains"),
		releaseErrors:  reg.Counter("dangsan.quarantine_release_errors"),
	})
	reg.RegisterFunc("dangsan.quarantine_pending_objects", func() int64 {
		q.mu.Lock()
		defer q.mu.Unlock()
		return int64(len(q.pending) - q.head)
	})
	reg.RegisterFunc("dangsan.quarantine_pending_bytes", func() int64 {
		q.mu.Lock()
		defer q.mu.Unlock()
		return int64(q.bytes)
	})
	reg.RegisterFunc("dangsan.quarantine_epochs", func() int64 {
		return int64(q.epochs.Load())
	})
}

// contains reports whether base is in custody.
func (q *quarantine) contains(base uint64) bool {
	if q == nil {
		return false
	}
	q.mu.Lock()
	_, ok := q.bases[base]
	q.mu.Unlock()
	return ok
}

// reissued ends the custody of a base the allocator has issued again while
// its previous incarnation's batch is still retiring. A parked base (phase
// 0) has not gone back, cannot have been re-issued, and keeps its custody.
func (q *quarantine) reissued(base uint64) {
	if q == nil {
		return
	}
	q.mu.Lock()
	if q.bases[base] != 0 {
		delete(q.bases, base)
	}
	q.mu.Unlock()
}

// enqueue takes custody of one freed object. A base already in custody is
// normally a double free: the entry is rejected and the error surfaced to
// the program, while the first free's custody stands. The exception is a
// base whose previous incarnation is mid-retirement — its memory already
// went back through the release callback (so the allocator could re-issue
// it, and the caller's live shadow entry proves it did) but its custody
// entry is deleted only after the whole batch's callback returns. Such an
// entry carries its batch id; custody is stolen from the dying batch (the
// batch's deferred delete skips entries whose phase changed) and the
// reincarnation is enqueued normally.
//
// The steal must not block. The overflow and QuarantineSync paths retire
// batches on the freeing thread itself, so a release callback that
// re-enters free (legal under the BindRelease contract) arrives here while
// its own batch is still in flight — any wait-for-the-batch here would be
// a self-deadlock.
func (q *quarantine) enqueue(e quarEntry) error {
	q.mu.Lock()
	if phase, dup := q.bases[e.base]; dup && phase == 0 {
		// Parked in the ring, not mid-retirement: a genuine double free.
		// (A reincarnation is impossible here — parked memory has not
		// been handed back, so the allocator cannot have re-issued it.)
		q.mu.Unlock()
		return &tcmalloc.DoubleFreeError{Addr: e.base}
	}
	q.bases[e.base] = 0
	q.pending = append(q.pending, e)
	q.bytes += e.size
	overflow := q.bytes > q.maxBytes
	ready := len(q.pending)-q.head >= q.epoch
	spawn := false
	if ready && !overflow && !q.sync && !q.worker {
		q.worker = true
		spawn = true
	}
	q.mu.Unlock()

	if overflow {
		// Fail-open: the budget is blown, so this freeing thread pays for
		// drains until the ring is back under it. Epoch batching still
		// applies; only the asynchrony is lost.
		met := q.met.Load()
		for q.overBudget() && q.drainOne(q.epoch) {
			if met != nil {
				met.overflowDrains.Inc(int32(e.base >> 12))
			}
		}
		return nil
	}
	if ready && q.sync {
		q.drainOne(q.epoch)
		return nil
	}
	if spawn {
		go q.run()
	}
	return nil
}

func (q *quarantine) overBudget() bool {
	q.mu.Lock()
	over := q.bytes > q.maxBytes
	q.mu.Unlock()
	return over
}

// run is the background epoch worker: it drains full epochs while the ring
// has them, then exits. Lazily respawned by the next boundary-crossing
// enqueue, so an idle detector holds no goroutine.
func (q *quarantine) run() {
	for {
		if q.drainOne(q.epoch) {
			continue
		}
		q.mu.Lock()
		if len(q.pending)-q.head == 0 {
			q.worker = false
			q.mu.Unlock()
			return
		}
		q.mu.Unlock()
	}
}

// drainOne takes up to max entries off the ring and retires them. Returns
// false when the ring was empty.
func (q *quarantine) drainOne(max int) bool {
	q.mu.Lock()
	n := len(q.pending) - q.head
	if n == 0 {
		q.mu.Unlock()
		return false
	}
	if n > max {
		n = max
	}
	batch := make([]quarEntry, n)
	copy(batch, q.pending[q.head:q.head+n])
	q.head += n
	q.batchSeq++
	id := q.batchSeq
	for _, e := range batch {
		q.bytes -= e.size
		// Move the batch's bases from parked to mid-retirement: from here
		// a duplicate free of one of them is either caught by the shadow
		// (still cleared) or is a legal reincarnation that steals custody.
		q.bases[e.base] = id
	}
	if q.head == len(q.pending) {
		q.pending = q.pending[:0]
		q.head = 0
	} else if q.head >= 1024 {
		q.pending = append(q.pending[:0], q.pending[q.head:]...)
		q.head = 0
	}
	q.inflight++
	q.mu.Unlock()

	q.process(batch, id)

	q.mu.Lock()
	q.inflight--
	q.cond.Broadcast()
	q.mu.Unlock()
	return true
}

// process retires one batch: merged invalidation, metadata release, then
// memory return. Bases leave the custody set only after the release
// callback has run, so a double free during any phase of retirement is
// still caught — and, crucially, never reaches the allocator while it
// still considers the span live. The final delete is conditional on the
// base still being in this batch's phase: a reincarnation that stole
// custody mid-retirement (see enqueue) keeps its fresh entry.
func (q *quarantine) process(batch []quarEntry, id uint64) {
	met := q.met.Load()
	var start time.Time
	if met != nil {
		start = time.Now()
	}
	tid := int32(batch[0].base >> 12)

	metas := make([]*pointerlog.ObjectMeta, 0, len(batch))
	for _, e := range batch {
		if m := q.d.logger.MetaAt(e.handle); m != nil {
			metas = append(metas, m)
		}
	}
	q.d.logger.InvalidateMany(metas, q.d.mem)
	for _, e := range batch {
		q.d.logger.ReleaseMeta(e.handle)
	}

	bases := make([]uint64, len(batch))
	for i, e := range batch {
		bases[i] = e.base
	}
	if q.release != nil {
		if _, err := q.release(bases); err != nil && met != nil {
			// Fail-open: a span the allocator refused stays unusable but
			// everything else in the batch was returned (the callback
			// continues past errors). Count it; do not crash the drain.
			met.releaseErrors.Inc(tid)
		}
	}

	// Epoch boundary: let the cold tier reclaim segments retired by the
	// batch's metadata releases, amortized exactly like the merged walk.
	q.d.logger.CompactCold()

	q.mu.Lock()
	for _, b := range bases {
		if q.bases[b] == id {
			delete(q.bases, b)
		}
	}
	q.mu.Unlock()

	q.epochs.Add(1)
	if met != nil {
		met.batchObjects.Observe(tid, uint64(len(batch)))
		met.drainNs.Since(tid, start)
	}
}

// Drain retires every pending entry and waits for in-flight batches
// (including the background worker's) to finish. New frees arriving during
// the drain are drained too; the ring is empty and quiescent on return.
func (q *quarantine) Drain() {
	if q == nil {
		return
	}
	for {
		for q.drainOne(q.epoch) {
		}
		q.mu.Lock()
		for q.inflight > 0 {
			q.cond.Wait()
		}
		empty := len(q.pending)-q.head == 0
		q.mu.Unlock()
		if empty {
			return
		}
	}
}
