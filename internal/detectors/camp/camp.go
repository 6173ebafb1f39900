// Package camp implements a checked-dereference use-after-free detector in
// the style of CAMP: instead of hunting down dangling pointers at free time,
// the allocator keeps a range registry of what is live and what has been
// freed, and every simulated dereference is checked against it. A
// dereference into a freed-and-not-reallocated range traps with
// vmem.FaultFreedRange; live and untracked addresses pass at the cost of one
// shadow lookup.
//
// The range registry reuses the allocator's span metadata rather than
// keeping its own interval structure: the runtime derives each object's
// usable extent and page alignment from tcmalloc's span records
// (UsableSize/PageAlignOf) and hands them to OnAlloc/OnFree, and the
// detector compresses that extent into METAlloc-style shadow slots — one
// word per alignment grain, with the span's size-class alignment choosing
// the compression shift. Liveness is encoded directly in the slot word:
//
//	meta == 0            untracked (stack, globals, degraded object) — pass
//	meta & freedBit == 0 live object (allocation sequence number)    — pass
//	meta & freedBit != 0 freed range tombstone                       — trap
//
// Everything the check path reads is a single atomic slot load, so
// concurrent dereferences from many simulated threads are race-free; there
// is no side table to synchronize.
//
// Unlike the pointer-invalidation backends, camp never writes to program
// memory and keeps no pointer log: OnPtrStore is a no-op, and the
// instrumentation pass (internal/instrument, ElideDerefChecks) statically
// elides checks it can prove safe, which is where CAMP recovers its
// performance.
//
// Fail-open contract: objects whose metadata cannot be paid for
// (Options.MaxMetadataBytes, injected MetaAlloc/ShadowPopulate faults) get
// their range cleared instead of marked — their dereferences pass
// unchecked, and stale tombstones from previous occupants are wiped so the
// degradation can never cause a false positive.
package camp

import (
	"sync/atomic"

	"dangsan/internal/detectors"
	"dangsan/internal/faultinject"
	"dangsan/internal/shadow"
	"dangsan/internal/vmem"
)

// freedBit marks a slot word as a freed-range tombstone. The low bits keep
// the allocation sequence number the object had, which is occasionally
// useful in traces but carries no semantics.
const freedBit = uint64(1) << 63

// perObjectMeta is the logical bookkeeping charge per tracked object,
// matching the other backends' accounting style; the slot words themselves
// are accounted by the shadow table.
const perObjectMeta = 16

// Detector is the CAMP-style checked-dereference detector.
type Detector struct {
	detectors.Budget
	table *shadow.Table
	seq   atomic.Uint64 // allocation sequence; live meta = seq+1 (never 0)

	statTracked    atomic.Uint64
	statChecks     atomic.Uint64
	statFaults     atomic.Uint64
	statTombstones atomic.Uint64
}

var (
	_ detectors.Detector     = (*Detector)(nil)
	_ detectors.DerefChecker = (*Detector)(nil)
)

// Options are the fail-open knobs every backend shares.
type Options = detectors.BudgetOptions

// New creates the detector with no metadata budget and no fault injection.
func New() *Detector { return NewWithOptions(Options{}) }

// NewWithOptions creates the detector with a metadata budget and fault plane
// attached to it and its shadow table.
func NewWithOptions(opts Options) *Detector {
	d := &Detector{table: shadow.NewTable()}
	d.Init("camp", opts)
	d.table.InjectFaults(opts.Faults)
	return d
}

// Name implements detectors.Detector.
func (d *Detector) Name() string { return "camp" }

// AllocPad implements detectors.Detector. One byte of pad keeps a
// one-past-the-end pointer inside the object's live range, so its
// range check still passes.
func (d *Detector) AllocPad() uint64 { return 1 }

// degrade drops tracking for [base, base+size): the range is cleared so
// that stale tombstones from a previous occupant cannot fault the new
// object's accesses — fail-open means unchecked, never misjudged.
func (d *Detector) degrade(base, size, align uint64) {
	d.table.ClearObject(base, size, align)
	d.NoteDegraded()
}

// OnAlloc implements detectors.Detector: register [base, base+size) as live
// by writing the allocation's sequence word over its shadow slots,
// overwriting any tombstone left by the range's previous occupant.
func (d *Detector) OnAlloc(base, size, align uint64) {
	if err := d.Charge(faultinject.MetaAlloc, perObjectMeta); err != nil {
		d.degrade(base, size, align)
		return
	}
	meta := d.seq.Add(1) &^ freedBit
	if err := d.table.CreateObject(base, size, align, meta); err != nil {
		d.Refund(perObjectMeta)
		d.degrade(base, size, align)
		return
	}
	d.statTracked.Add(1)
}

// OnReallocInPlace implements detectors.Detector. Growth re-registers the
// larger live range; shrinking re-registers the smaller one and writes a
// tombstone over the dead tail so stale interior pointers into it trap.
// In-place resizes only happen for page-granular large spans, so the tail
// cut is always slot-aligned.
func (d *Detector) OnReallocInPlace(base, oldSize, newSize, align uint64) {
	meta := d.table.Lookup(base)
	if meta == 0 || meta&freedBit != 0 {
		return // untracked (degraded) object
	}
	if err := d.table.CreateObject(base, newSize, align, meta); err != nil {
		// CreateObject rolled back what it wrote, which may include part of
		// the old mapping. Converge by dropping the whole extent.
		old := oldSize
		if newSize > old {
			old = newSize
		}
		d.degrade(base, old, align)
		return
	}
	if newSize < oldSize {
		if err := d.table.CreateObject(base+newSize, oldSize-newSize, align, meta|freedBit); err != nil {
			d.table.ClearObject(base+newSize, oldSize-newSize, align)
		} else {
			d.statTombstones.Add(1)
		}
	}
}

// OnFree implements detectors.Detector: flip the object's range to a freed
// tombstone. The tombstone persists until the allocator reuses the range,
// at which point the next OnAlloc overwrites it — exactly the window in
// which a use-after-free is detectable by a range check.
func (d *Detector) OnFree(base, size, align uint64) {
	meta := d.table.Lookup(base)
	if meta&freedBit != 0 {
		return
	}
	refund := meta != 0
	if meta == 0 {
		// The object was degraded at allocation; the range is still freed,
		// so tombstone it anyway — detection for free.
		meta = d.seq.Add(1)
	}
	if err := d.table.CreateObject(base, size, align, meta|freedBit); err != nil {
		d.table.ClearObject(base, size, align)
	} else {
		d.statTombstones.Add(1)
	}
	if refund {
		d.Refund(perObjectMeta)
	}
}

// OnPtrStore implements detectors.Detector: a no-op. Range checking needs
// no pointer tracking — that is the point of the design.
func (d *Detector) OnPtrStore(loc, val uint64, tid int32) {}

// CheckDeref implements detectors.DerefChecker: one atomic shadow-slot load
// classifies addr as live (sequence word), freed (tombstone — trap), or
// untracked (pass). Addresses outside the heap segment never index the
// table and pass immediately.
func (d *Detector) CheckDeref(addr uint64) (uint64, *vmem.Fault) {
	d.statChecks.Add(1)
	if d.table.Lookup(addr)&freedBit != 0 {
		d.statFaults.Add(1)
		return 0, &vmem.Fault{Addr: addr, Kind: vmem.FaultFreedRange}
	}
	return addr, nil
}

// MetadataBytes implements detectors.Detector.
func (d *Detector) MetadataBytes() uint64 {
	return d.table.Bytes() + d.Charged()
}

// Stats reports (objects tracked, checks performed, faults trapped,
// tombstones written).
func (d *Detector) Stats() (tracked, checks, faults, tombstones uint64) {
	return d.statTracked.Load(), d.statChecks.Load(), d.statFaults.Load(), d.statTombstones.Load()
}
