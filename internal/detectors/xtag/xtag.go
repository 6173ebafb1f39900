// Package xtag implements a pointer-tagging use-after-free detector in the
// style of xTag: every heap object gets a generation tag drawn from a
// wrapping 15-bit counter, the tag is embedded in the unused high bits
// (vmem bits 48..62) of every pointer malloc returns, and every simulated
// dereference strips the tag and checks it against the current tag of the
// object at the stripped address. A freed object's slots keep a reserved
// "freed" marker and a reallocated object gets a fresh tag, so a stale
// pointer's tag can no longer match — the dereference traps with a
// vmem.FaultTagMismatch that preserves the full tagged pointer.
//
// Design points, relative to the invalidation-based backends:
//
//   - no pointer tracking at all: OnPtrStore is a no-op, there is no
//     location log and nothing to walk at free time. Free costs one shadow
//     re-mark of the object's slots.
//   - detection is at dereference time, so dangling pointers at rest are
//     never rewritten — memory holds the original tagged value forever.
//   - the tag field is 15 bits (tag 0 is reserved for "untagged"): after
//     1<<15 - 1 generations the counter wraps and a sufficiently stale
//     pointer can alias a live tag — a bounded false-negative window that
//     TestTagReuseWindow pins down.
//
// Fail-open contract: objects whose metadata cannot be paid for
// (Options.MaxMetadataBytes, injected MetaAlloc/ShadowPopulate faults) stay
// untagged — malloc returns the raw address, tag 0 passes every check.
// Coverage loss, never a crash or a false positive.
package xtag

import (
	"sync/atomic"

	"dangsan/internal/detectors"
	"dangsan/internal/faultinject"
	"dangsan/internal/shadow"
	"dangsan/internal/vmem"
)

// FreedMark is the shadow meta word written over a freed object's slots. It
// is outside the valid tag range (tags are 1..vmem.MaxTag), so no pointer's
// tag can ever match it: any tagged dereference into a freed-and-not-reused
// range mismatches. Distinct from 0 ("never tracked / mapping dropped"),
// which passes checks fail-open.
const FreedMark = uint64(vmem.MaxTag) + 1

// perObjectMeta is the logical metadata charge per tagged object: the
// generation word duplicated across the object's shadow slots is accounted
// via the table; this covers the bookkeeping around it.
const perObjectMeta = 16

// Detector is the xTag-style pointer-tagging detector.
type Detector struct {
	detectors.Budget
	table *shadow.Table
	gen   atomic.Uint64 // monotonic generation counter; tag = gen%MaxTag+1

	statTagged   atomic.Uint64
	statChecks   atomic.Uint64
	statMismatch atomic.Uint64
}

var (
	_ detectors.Detector   = (*Detector)(nil)
	_ detectors.TagChecker = (*Detector)(nil)
)

// Options are the fail-open knobs every backend shares.
type Options = detectors.BudgetOptions

// New creates the detector with no metadata budget and no fault injection.
func New() *Detector { return NewWithOptions(Options{}) }

// NewWithOptions creates the detector with a metadata budget and fault plane
// attached to it and its shadow table.
func NewWithOptions(opts Options) *Detector {
	d := &Detector{table: shadow.NewTable()}
	d.Init("xtag", opts)
	d.table.InjectFaults(opts.Faults)
	return d
}

// nextTag draws the next generation tag, cycling 1..vmem.MaxTag (tag 0 is
// reserved for "untagged").
func (d *Detector) nextTag() uint64 {
	return (d.gen.Add(1)-1)%vmem.MaxTag + 1
}

// Name implements detectors.Detector.
func (d *Detector) Name() string { return "xtag" }

// AllocPad implements detectors.Detector. Like DangSan, one byte of pad
// keeps a one-past-the-end pointer inside the object's shadow slots, so its
// tag check still matches.
func (d *Detector) AllocPad() uint64 { return 1 }

// OnAlloc implements detectors.Detector: draw a fresh generation tag and
// mark the object's shadow slots with it. Both failure paths — the budget
// charge and the shadow population — leave the object untagged (slots hold
// 0 or are rolled back), so TagPointer returns the raw address and every
// check passes: fail-open.
func (d *Detector) OnAlloc(base, size, align uint64) {
	if err := d.Charge(faultinject.MetaAlloc, perObjectMeta); err != nil {
		d.NoteDegraded()
		return
	}
	tag := d.nextTag()
	if err := d.table.CreateObject(base, size, align, tag); err != nil {
		d.Refund(perObjectMeta)
		d.NoteDegraded()
		return
	}
	d.statTagged.Add(1)
}

// OnReallocInPlace implements detectors.Detector. The object's tag is
// unchanged — outstanding pointers stay valid — but its extent moves:
// growth re-marks the larger range, shrinking re-marks the smaller one and
// writes the freed marker over the dead tail so stale pointers into it
// mismatch. In-place resizes only happen for page-granular large spans, so
// the tail cut is always slot-aligned.
func (d *Detector) OnReallocInPlace(base, oldSize, newSize, align uint64) {
	tag := d.table.Lookup(base)
	if tag == 0 || tag == FreedMark {
		return // untracked (degraded) object
	}
	if err := d.table.CreateObject(base, newSize, align, tag); err != nil {
		// Extending the mapping failed and CreateObject rolled back what it
		// wrote, which may include part of the old mapping. Converge by
		// dropping the object's mapping entirely: outstanding tagged
		// pointers then read slot 0 and pass fail-open — coverage loss, not
		// a false positive.
		old := oldSize
		if newSize > old {
			old = newSize
		}
		d.table.ClearObject(base, old, align)
		d.NoteDegraded()
		return
	}
	if newSize < oldSize {
		// Infallible: the tail's pages already have matching-shift arrays.
		if err := d.table.CreateObject(base+newSize, oldSize-newSize, align, FreedMark); err != nil {
			d.table.ClearObject(base+newSize, oldSize-newSize, align)
		}
	}
}

// OnFree implements detectors.Detector: re-mark the object's slots with the
// freed marker. No pointer walk — stale pointers are caught lazily at their
// next dereference.
func (d *Detector) OnFree(base, size, align uint64) {
	tag := d.table.Lookup(base)
	if tag == 0 || tag == FreedMark {
		return // untracked object; nothing to mark
	}
	// The object's pages are already populated at this shift, so the
	// re-mark cannot need fresh arrays; fall back to clearing (fail-open)
	// if it somehow does.
	if err := d.table.CreateObject(base, size, align, FreedMark); err != nil {
		d.table.ClearObject(base, size, align)
	}
	d.Refund(perObjectMeta)
}

// OnPtrStore implements detectors.Detector: a no-op. Tagging needs no
// pointer tracking — that is the point of the design.
func (d *Detector) OnPtrStore(loc, val uint64, tid int32) {}

// TagPointer implements detectors.TagChecker: embed the object's current
// tag into base. Untracked objects return base unchanged (tag 0).
func (d *Detector) TagPointer(base uint64) uint64 {
	tag := d.table.Lookup(base)
	if tag == 0 || tag == FreedMark {
		return base
	}
	return vmem.WithTag(base, tag)
}

// CheckDeref implements detectors.DerefChecker: strip addr's tag and check
// it against the current tag of the slot at the stripped address. Untagged
// addresses (stack, globals, degraded objects) pass through; slot value 0
// (mapping dropped after the pointer was handed out) passes fail-open; any
// other mismatch — the freed marker or a successor object's tag — is a
// detected use-after-free.
func (d *Detector) CheckDeref(addr uint64) (uint64, *vmem.Fault) {
	tag := vmem.PointerTag(addr)
	if tag == 0 {
		return addr, nil
	}
	stripped := vmem.StripTag(addr)
	d.statChecks.Add(1)
	cur := d.table.Lookup(stripped)
	if cur == tag || cur == 0 {
		return stripped, nil
	}
	d.statMismatch.Add(1)
	return 0, &vmem.Fault{Addr: addr, Kind: vmem.FaultTagMismatch}
}

// MetadataBytes implements detectors.Detector.
func (d *Detector) MetadataBytes() uint64 {
	return d.table.Bytes() + d.Charged()
}

// Stats reports (objects tagged, checks performed, mismatches trapped).
func (d *Detector) Stats() (tagged, checks, mismatches uint64) {
	return d.statTagged.Load(), d.statChecks.Load(), d.statMismatch.Load()
}
