// Package dangnull implements a baseline modelled on DangNULL (Lee et al.,
// NDSS 2015), the lock-based dangling-pointer nullification system the
// paper compares against. It reproduces DangNULL's published design points:
//
//   - a global lock serializes every tracking operation (the paper's §9:
//     "it uses data structures that require locking");
//   - pointer-to-object mapping uses a balanced tree, whose lookups degrade
//     as live objects grow (paper §4.3);
//   - only pointers that are themselves stored on the heap are tracked, so
//     dangling pointers in globals or on the stack escape (the coverage gap
//     Table 1 quantifies);
//   - invalidation overwrites pointers with a fixed invalid value
//     (nullification) instead of preserving the address bits.
package dangnull

import (
	"sync"

	"dangsan/internal/detectors"
	"dangsan/internal/faultinject"
	"dangsan/internal/rbtree"
	"dangsan/internal/vmem"
)

// InvalidValue is what DangNULL writes over dangling pointers: a fixed
// kernel-space address, guaranteed to fault on dereference but — unlike
// DangSan's bit-setting — destroying the original pointer bits.
const InvalidValue = 0xFFFF_8000_0000_0000

type object struct {
	base, end uint64
	// locs are the heap locations currently holding pointers into this
	// object.
	locs map[uint64]struct{}
}

// Detector is the DangNULL-style baseline.
type Detector struct {
	detectors.Budget
	mu      sync.Mutex
	objects rbtree.Tree        // [base,end) -> *object
	byLoc   map[uint64]*object // reverse index for unregister-on-overwrite
	mem     detectors.Memory

	statRegistered  uint64
	statInvalidated uint64
}

var _ detectors.Detector = (*Detector)(nil)
var _ detectors.Binder = (*Detector)(nil)

// Options are the fail-open knobs every backend shares, so the baselines can
// be compared under the same memory-pressure model (the footprint charged
// here is approximate: that of Go maps is opaque).
type Options = detectors.BudgetOptions

// New creates the baseline detector.
func New() *Detector { return NewWithOptions(Options{}) }

// NewWithOptions creates the baseline with a metadata budget and fault
// plane attached.
func NewWithOptions(opts Options) *Detector {
	d := &Detector{byLoc: make(map[uint64]*object)}
	d.Init("dangnull", opts)
	return d
}

// Bind implements detectors.Binder.
func (d *Detector) Bind(mem detectors.Memory) { d.mem = mem }

// Name implements detectors.Detector.
func (d *Detector) Name() string { return "dangnull" }

// AllocPad implements detectors.Detector.
func (d *Detector) AllocPad() uint64 { return 0 }

// OnAlloc implements detectors.Detector. When the tree node cannot be
// paid for (budget blown or injected failure) the object enters degraded
// mode: it is simply never inserted, so pointer stores into it miss the
// containment lookup and its free finds nothing to nullify — coverage
// loss, never a crash or a false report. This is the same fail-open
// contract as dangsan's OnAlloc.
func (d *Detector) OnAlloc(base, size, align uint64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if err := d.Charge(faultinject.MetaAlloc, 96); err != nil {
		d.NoteDegraded()
		return
	}
	d.objects.Insert(base, base+size, &object{
		base: base,
		end:  base + size,
		locs: make(map[uint64]struct{}),
	})
}

// OnReallocInPlace implements detectors.Detector.
func (d *Detector) OnReallocInPlace(base, oldSize, newSize, align uint64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if v, ok := d.objects.Get(base); ok {
		obj := v.(*object)
		obj.end = base + newSize
		d.objects.Insert(base, base+newSize, obj)
	}
}

// OnFree implements detectors.Detector: nullify all tracked pointers to the
// object, then forget it.
func (d *Detector) OnFree(base, size, align uint64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	v, ok := d.objects.Get(base)
	if !ok {
		return
	}
	obj := v.(*object)
	for loc := range obj.locs {
		w, fault := d.mem.LoadWord(loc)
		if fault == nil && w >= obj.base && w < obj.end {
			d.mem.StoreWord(loc, InvalidValue)
			d.statInvalidated++
		}
		delete(d.byLoc, loc)
	}
	d.objects.Delete(base)
}

// OnPtrStore implements detectors.Detector. Note the two DangNULL
// restrictions: the location must be on the heap, and the whole operation
// holds the global lock.
func (d *Detector) OnPtrStore(loc, val uint64, tid int32) {
	if loc < vmem.HeapBase || loc >= vmem.HeapBase+vmem.HeapMax {
		return // heap-resident pointers only
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if old, ok := d.byLoc[loc]; ok {
		delete(old.locs, loc)
		delete(d.byLoc, loc)
	}
	v, ok := d.objects.LookupContaining(val)
	if !ok {
		return
	}
	// The two map entries must fit the budget; a dropped registration
	// loses this location's coverage but keeps the structures consistent
	// (the old binding above is already gone either way).
	if err := d.Charge(faultinject.LogBlockAlloc, 32); err != nil {
		d.NoteDropped(1)
		return
	}
	obj := v.(*object)
	obj.locs[loc] = struct{}{}
	d.byLoc[loc] = obj
	d.statRegistered++
}

// MetadataBytes implements detectors.Detector (approximate: the precise
// footprint of Go maps is opaque, so this tracks logical growth).
func (d *Detector) MetadataBytes() uint64 { return d.Charged() }

// Stats reports (registered, invalidated) counters for Table 1.
func (d *Detector) Stats() (registered, invalidated uint64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.statRegistered, d.statInvalidated
}

// LiveObjects reports the number of tracked objects.
func (d *Detector) LiveObjects() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.objects.Len()
}
