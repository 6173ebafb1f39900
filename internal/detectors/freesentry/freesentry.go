// Package freesentry implements a baseline modelled on FreeSentry (Younan,
// NDSS 2015), the fast but thread-unsafe pointer-invalidation system the
// paper compares against. Its published design points:
//
//   - pointers anywhere in memory (heap, stack, globals) are tracked, like
//     DangSan and unlike DangNULL;
//   - invalidation flips a high bit, preserving the pointer's address bits;
//   - tracking structures are completely unsynchronized — the reason
//     FreeSentry cannot run multithreaded programs (paper §9). This
//     implementation is likewise only correct when the process runs a
//     single thread; the scalability benchmarks therefore use it at one
//     thread only, exactly as the paper's authors had to.
package freesentry

import (
	"sync/atomic"

	"dangsan/internal/detectors"
	"dangsan/internal/faultinject"
	"dangsan/internal/shadow"
)

// InvalidBit mirrors FreeSentry's invalidation: set a bit that cannot occur
// in user-space pointers.
const InvalidBit = uint64(1) << 63

type object struct {
	base, end uint64
	locs      []uint64
}

// objectMeta is the budget charge for one object record; each location in
// its list is charged 8 bytes more. Both are refunded when the record goes.
const objectMeta = 48

// Detector is the FreeSentry-style baseline.
type Detector struct {
	detectors.Budget
	table *shadow.Table // constant-time value->object mapping (label table)
	objs  []*object     // index+1 stored in the shadow table
	free  []uint64
	mem   detectors.Memory

	// Stats are atomic only so that a concurrent observer (the benchmark
	// harness's memory sampler) can read them; the tracking structures
	// themselves remain deliberately unsynchronized.
	statRegistered  atomic.Uint64
	statInvalidated atomic.Uint64
}

var _ detectors.Detector = (*Detector)(nil)
var _ detectors.Binder = (*Detector)(nil)

// Options are the fail-open knobs every backend shares.
type Options = detectors.BudgetOptions

// New creates the baseline detector.
func New() *Detector { return NewWithOptions(Options{}) }

// NewWithOptions creates the baseline with a metadata budget and fault plane
// attached to it and its shadow table.
func NewWithOptions(opts Options) *Detector {
	d := &Detector{table: shadow.NewTable()}
	d.Init("freesentry", opts)
	d.table.InjectFaults(opts.Faults)
	return d
}

// Bind implements detectors.Binder.
func (d *Detector) Bind(mem detectors.Memory) { d.mem = mem }

// Name implements detectors.Detector.
func (d *Detector) Name() string { return "freesentry" }

// AllocPad implements detectors.Detector.
func (d *Detector) AllocPad() uint64 { return 0 }

// OnAlloc implements detectors.Detector. Both failure paths — the object
// record's budget charge and the shadow-table population — degrade
// fail-open: the object is simply never mapped, so stores into it miss
// the label lookup and its free finds no handle. Coverage loss, never a
// crash or a false report (dangsan's OnAlloc contract).
func (d *Detector) OnAlloc(base, size, align uint64) {
	if err := d.Charge(faultinject.MetaAlloc, objectMeta); err != nil {
		d.NoteDegraded()
		return
	}
	obj := &object{base: base, end: base + size}
	var handle uint64
	if n := len(d.free); n > 0 {
		handle = d.free[n-1]
		d.free = d.free[:n-1]
		d.objs[handle-1] = obj
	} else {
		d.objs = append(d.objs, obj)
		handle = uint64(len(d.objs))
	}
	if err := d.table.CreateObject(base, size, align, handle); err != nil {
		// Shadow population failed (rolled back internally): release the
		// handle so it can never surface half-mapped.
		d.release(handle)
		d.NoteDegraded()
	}
}

// release drops the record behind handle, refunding its charges, and
// recycles the handle.
func (d *Detector) release(handle uint64) {
	d.Refund(objectMeta + uint64(len(d.objs[handle-1].locs))*8)
	d.objs[handle-1] = nil
	d.free = append(d.free, handle)
}

// OnReallocInPlace implements detectors.Detector. Growth remaps the larger
// extent; shrinking drops the dead tail's mapping so stores into recycled
// tail pages cannot register against this object.
func (d *Detector) OnReallocInPlace(base, oldSize, newSize, align uint64) {
	handle := d.table.Lookup(base)
	if handle == 0 {
		return
	}
	obj := d.objs[handle-1]
	if err := d.table.CreateObject(base, newSize, align, handle); err != nil {
		// Extending the mapping failed and CreateObject rolled back what it
		// wrote, which may include part of the old mapping. Converge by
		// dropping the object entirely: clear the whole extent, forget its
		// registrations and release the record — otherwise the handle leaks
		// with a half-cleared mapping and its locations are never
		// invalidated nor refunded. Coverage loss, never a false positive.
		old := oldSize
		if newSize > old {
			old = newSize
		}
		d.table.ClearObject(base, old, align)
		d.NoteDropped(uint64(len(obj.locs)))
		d.release(handle)
		d.NoteDegraded()
		return
	}
	obj.end = base + newSize
	if newSize < oldSize {
		d.table.ClearObject(base+newSize, oldSize-newSize, align)
	}
}

// OnFree implements detectors.Detector.
func (d *Detector) OnFree(base, size, align uint64) {
	handle := d.table.Lookup(base)
	if handle == 0 {
		return
	}
	obj := d.objs[handle-1]
	if obj == nil || obj.base != base {
		return
	}
	for _, loc := range obj.locs {
		w, fault := d.mem.LoadWord(loc)
		if fault != nil || w < obj.base || w >= obj.end {
			continue
		}
		d.mem.StoreWord(loc, w|InvalidBit)
		d.statInvalidated.Add(1)
	}
	d.table.ClearObject(base, size, align)
	d.release(handle)
}

// OnPtrStore implements detectors.Detector: an unsynchronized append to the
// target object's location list.
func (d *Detector) OnPtrStore(loc, val uint64, tid int32) {
	handle := d.table.Lookup(val)
	if handle == 0 {
		return
	}
	obj := d.objs[handle-1]
	if obj == nil {
		return
	}
	if err := d.Charge(faultinject.LogBlockAlloc, 8); err != nil {
		d.NoteDropped(1)
		return
	}
	obj.locs = append(obj.locs, loc)
	d.statRegistered.Add(1)
}

// MetadataBytes implements detectors.Detector.
func (d *Detector) MetadataBytes() uint64 {
	return d.table.Bytes() + d.Charged()
}

// Stats reports (registered, invalidated) counters.
func (d *Detector) Stats() (registered, invalidated uint64) {
	return d.statRegistered.Load(), d.statInvalidated.Load()
}
