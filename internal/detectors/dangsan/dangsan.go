// Package dangsan implements the paper's use-after-free detection system:
// the heap tracker and pointer tracker glue that connects the
// pointer-to-object mapper (internal/shadow) with the pointer logger
// (internal/pointerlog).
//
// Event flow, matching the paper's Figures 2-4:
//
//   - malloc  -> createobj: allocate per-object metadata, write its handle
//     into every shadow slot the object covers.
//   - pointer store -> ptr2obj (shadow lookup of the stored VALUE) then
//     logptr (append the store LOCATION to the object's per-thread log).
//   - free    -> ptr2obj then invalptrs: re-verify every logged location
//     and overwrite still-valid pointers with their most-significant-bit
//     set; then clear the shadow slots and recycle the metadata.
package dangsan

import (
	"time"

	"dangsan/internal/detectors"
	"dangsan/internal/faultinject"
	"dangsan/internal/obs"
	"dangsan/internal/pointerlog"
	"dangsan/internal/shadow"
)

// Detector is the DangSan system. Create with New; it must be bound to the
// process's memory (done automatically by proc.New) before use.
type Detector struct {
	table  *shadow.Table
	logger *pointerlog.Logger
	mem    detectors.Memory
	// met holds the detector-level instruments (free-path latency); nil
	// until AttachMetrics.
	met *detMetrics
}

// detMetrics bundles the detector's own obs instruments (the logger and
// shadow table attach theirs separately).
type detMetrics struct {
	freeNs *obs.Histogram
}

var _ detectors.Detector = (*Detector)(nil)
var _ detectors.Binder = (*Detector)(nil)
var _ detectors.ThreadAware = (*Detector)(nil)
var _ detectors.DeferredFree = (*Detector)(nil)

// New creates a DangSan detector with the paper's default configuration.
func New() *Detector {
	return NewWithOptions(Options{})
}

// Options configures a detector: the pointer-log tunables (audit mode
// included) and a fault plane. Metrics attach through the process
// (proc.Process.AttachMetrics reaches the detector's AttachMetrics).
type Options struct {
	// Config carries the pointer-log tunables; the zero value means
	// pointerlog.DefaultConfig().
	Config pointerlog.Config
	// Faults, when non-nil, injects failures into the detector's own
	// metadata paths (registry, log blocks, hash tables, shadow pages);
	// failed allocations fall into degraded (untracked) mode.
	Faults *faultinject.Plane
}

// NewWithOptions creates a DangSan detector with explicit pointer-log
// tunables and faults wired through.
func NewWithOptions(opts Options) *Detector {
	cfg := opts.Config
	if cfg == (pointerlog.Config{}) {
		cfg = pointerlog.DefaultConfig()
	}
	d := &Detector{
		table:  shadow.NewTable(),
		logger: pointerlog.NewLogger(cfg),
	}
	d.InjectFaults(opts.Faults)
	return d
}

// InjectFaults attaches a fault-injection plane to the logger and shadow
// table. Call before the detector sees traffic; nil disables injection.
func (d *Detector) InjectFaults(p *faultinject.Plane) {
	d.logger.InjectFaults(p)
	d.table.InjectFaults(p)
}

// AttachMetrics registers the detector's instruments — the pointer
// logger's and the shadow table's — with reg. Safe to call with nil.
func (d *Detector) AttachMetrics(reg *obs.Registry) {
	if reg == nil {
		return
	}
	d.logger.AttachMetrics(reg)
	d.table.AttachMetrics(reg)
	d.met = &detMetrics{freeNs: reg.Histogram("dangsan.free_ns")}
}

// Bind implements detectors.Binder.
func (d *Detector) Bind(mem detectors.Memory) { d.mem = mem }

// Name implements detectors.Detector.
func (d *Detector) Name() string { return "dangsan" }

// AllocPad implements detectors.Detector: every allocation grows by one
// byte so a one-past-the-end pointer still maps to its object (paper §4.4).
func (d *Detector) AllocPad() uint64 { return 1 }

// OnAlloc implements detectors.Detector (the heap tracker's malloc hook).
// When metadata cannot be allocated (registry full, MaxMetadataBytes
// reached, or injected failure) the object enters degraded mode: it is
// simply never mapped in the shadow table, so pointer stores into it cost
// one failed lookup and its free skips invalidation — coverage loss,
// never a crash or a false UAF report.
func (d *Detector) OnAlloc(base, size, align uint64) {
	_, handle, err := d.logger.CreateMeta(base, size)
	if err != nil {
		d.logger.NoteDegraded(int32(base >> 12))
		return
	}
	if err := d.table.CreateObject(base, size, align, handle); err != nil {
		// Shadow population failed (rolled back internally): release the
		// metadata again so the handle can never surface half-mapped.
		d.logger.ReleaseMeta(handle)
		d.logger.NoteDegraded(int32(base >> 12))
	}
}

// OnReallocInPlace implements detectors.Detector. Growth extends the shadow
// mapping by re-running createobj (paper §4.2); shrinking additionally
// clears the no-longer-covered tail.
func (d *Detector) OnReallocInPlace(base, oldSize, newSize, align uint64) {
	handle := d.table.Lookup(base)
	if handle == 0 {
		return
	}
	meta := d.logger.MetaAt(handle)
	if meta == nil || meta.Base() != base {
		return
	}
	meta.SetSize(newSize)
	if err := d.table.CreateObject(base, newSize, align, handle); err != nil {
		// Extending the shadow mapping failed and the failed CreateObject
		// rolled back what it wrote, which may include part of the old
		// mapping. Converge to a consistent state by untracking the object
		// entirely: clear both extents (infallible), retire the metadata.
		// Its logged locations die unverified — coverage loss only.
		old := oldSize
		if newSize > old {
			old = newSize
		}
		d.table.ClearObject(base, old, align)
		d.logger.ReleaseMeta(handle)
		d.logger.NoteDegraded(int32(base >> 12))
		d.logger.BumpGen()
		return
	}
	if newSize < oldSize {
		d.table.ClearObject(base+newSize, oldSize-newSize, align)
	}
	// Cached fast-path extents for this object are stale either way.
	d.logger.BumpGen()
}

// OnFree implements detectors.Detector (the heap tracker's free hook): this
// is where dangling pointers die.
func (d *Detector) OnFree(base, size, align uint64) {
	var start time.Time
	met := d.met
	if met != nil {
		start = time.Now()
	}
	handle := d.table.Lookup(base)
	if handle == 0 {
		return
	}
	meta := d.logger.MetaAt(handle)
	if meta == nil || meta.Base() != base {
		return
	}
	d.logger.Invalidate(meta, d.mem)
	d.table.ClearObject(base, size, align)
	d.logger.ReleaseMeta(handle)
	if met != nil {
		met.freeNs.Since(int32(base>>12), start)
	}
}

// DangSan frees inline (paper §4.4): its DeferredFree methods are no-ops
// and BindRelease keeps the runtime on the inline path. They exist only
// because benchmark/trace_detector.go forwards the interface to them.

// BindRelease implements detectors.DeferredFree.
func (d *Detector) BindRelease(func(bases []uint64) (int, error)) bool { return false }

// OnFreeDeferred implements detectors.DeferredFree.
func (d *Detector) OnFreeDeferred(base, size, align uint64) (bool, error) { return false, nil }

// Quarantined implements detectors.DeferredFree.
func (d *Detector) Quarantined(base uint64) bool { return false }

// DrainQuarantine implements detectors.DeferredFree.
func (d *Detector) DrainQuarantine() {}

// OnPtrStore implements detectors.Detector (the pointer tracker's
// registerptr): look up the object the stored value points into, then log
// the store location against it. Values that point outside any tracked
// object — NULL, globals, stack, freed memory — cost exactly one shadow
// lookup.
func (d *Detector) OnPtrStore(loc, val uint64, tid int32) {
	handle := d.table.Lookup(val)
	if handle == 0 {
		return
	}
	meta := d.logger.MetaAt(handle)
	if meta == nil {
		return
	}
	d.logger.Register(meta, loc, tid)
}

// threadCtx is the per-thread store fast path: a memo of the last object
// this thread stored a pointer into — its extent and this thread's log —
// valid while the logger's generation is unchanged (no free or in-place
// realloc has happened since the memo was filled). A hit skips both the
// shadow lookup and the thread-log list walk.
type threadCtx struct {
	tid       int32
	gen       uint64
	base, end uint64
	tl        *pointerlog.ThreadLog
}

// NewThreadContext implements detectors.ThreadAware.
func (d *Detector) NewThreadContext(tid int32) detectors.ThreadContext {
	return &threadCtx{tid: tid}
}

// OnPtrStoreCtx implements detectors.ThreadAware: OnPtrStore with the
// storing thread's memo. The generation is read before the shadow lookup
// on the fill path, so a free racing with the fill bumps the generation
// past the memoized one and the memo misses from then on; the residual
// window (store racing the free of its own target) is the same benign
// race the seed path has, reconciled by free-time re-verification.
func (d *Detector) OnPtrStoreCtx(ctx detectors.ThreadContext, loc, val uint64) {
	c := ctx.(*threadCtx)
	if c.tl != nil && val >= c.base && val < c.end && c.gen == d.logger.Gen() {
		d.logger.RegisterWith(c.tl, loc, c.tid)
		return
	}
	gen := d.logger.Gen()
	handle := d.table.Lookup(val)
	if handle == 0 {
		return
	}
	meta := d.logger.MetaAt(handle)
	if meta == nil {
		return
	}
	tl := d.logger.Register(meta, loc, c.tid)
	c.tl, c.base, c.end, c.gen = tl, meta.Base(), meta.Base()+meta.Size(), gen
}

// OnMemcpy implements detectors.MemcpyHooker (the §7 extension): scan every
// aligned word of the copied destination; values that land in tracked
// objects get their new location registered, so pointers copied
// type-unsafely (memcpy, realloc moves) are invalidated at free time like
// any other copy. False registrations of integers that happen to look like
// object addresses are harmless: free-time verification treats a location
// whose value moved on as stale, and invalidating a true look-alike only
// flips a bit the paper argues is vanishingly unlikely to matter (§4.4).
func (d *Detector) OnMemcpy(dst, src, n uint64, tid int32) {
	start := (dst + 7) &^ 7
	for loc := start; loc+8 <= dst+n; loc += 8 {
		val, fault := d.mem.LoadWord(loc)
		if fault != nil {
			return
		}
		d.OnPtrStore(loc, val, tid)
	}
}

// MetadataBytes implements detectors.Detector.
func (d *Detector) MetadataBytes() uint64 {
	return d.table.Bytes() + d.logger.Stats().LogBytesTotal()
}

// Stats exposes the pointer-log counters for the Table 1 experiments.
// With audit mode on, taking a snapshot also runs the accounting
// cross-check, so a drift shows up in AuditViolations even if no free
// happens afterwards.
func (d *Detector) Stats() pointerlog.Snapshot {
	d.logger.AuditCheck()
	return d.logger.Stats().Snapshot()
}

// Degraded implements detectors.CoverageLoss: the snapshot's
// DegradedObjects and DroppedRegistrations.
func (d *Detector) Degraded() (objects, dropped uint64) {
	s := d.Stats()
	return s.DegradedObjects, s.DroppedRegistrations
}

// AuditViolations reports accumulated audit-mode accounting failures
// (empty unless Config.Audit was set and the accounting drifted).
func (d *Detector) AuditViolations() []string {
	return d.logger.AuditViolations()
}

// Logger exposes the underlying logger (tests and ablations).
func (d *Detector) Logger() *pointerlog.Logger { return d.logger }

// Close releases OS resources the detector holds — today the cold-tier
// spill file, present only when Config.ColdSpillBytes armed tiering. The
// detector must be quiescent. Safe to call when nothing was ever spilled.
func (d *Detector) Close() {
	d.logger.Close()
}
