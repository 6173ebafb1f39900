package tcmalloc

import (
	"fmt"
	"sync/atomic"

	"dangsan/internal/faultinject"
	"dangsan/internal/obs"
	"dangsan/internal/sizeclass"
	"dangsan/internal/vmem"
)

// InvalidFreeError reports a free (or realloc) of a pointer that is not the
// base of a live allocation. This is the abort path from the paper's
// OpenSSL case study: freeing a pointer that DangSan already invalidated
// produces "attempt to free invalid pointer 0x80000000022ba510".
type InvalidFreeError struct {
	Addr uint64
}

func (e *InvalidFreeError) Error() string {
	return fmt.Sprintf("tcmalloc: attempt to free invalid pointer 0x%x", e.Addr)
}

// DoubleFreeError reports a free of an object that is already free.
type DoubleFreeError struct {
	Addr uint64
}

func (e *DoubleFreeError) Error() string {
	return fmt.Sprintf("tcmalloc: double free of pointer 0x%x", e.Addr)
}

// OutOfMemoryError reports heap-reservation exhaustion.
type OutOfMemoryError struct {
	Size uint64
}

func (e *OutOfMemoryError) Error() string {
	return fmt.Sprintf("tcmalloc: out of memory allocating %d bytes", e.Size)
}

// ReallocKind describes how TryResizeInPlace satisfied a realloc without
// moving the object; the DangSan heap tracker must distinguish these cases
// (paper §4.2).
type ReallocKind int

const (
	// ReallocSame: the rounded size did not change; the object is untouched.
	ReallocSame ReallocKind = iota
	// ReallocInPlace: the object was grown or shrunk in place; pointers to
	// it remain valid but the object's extent changed.
	ReallocInPlace
)

// Stats is a snapshot of allocator-wide accounting.
type Stats struct {
	// LiveObjects is the number of currently allocated objects.
	LiveObjects uint64
	// LiveBytes is the usable bytes of currently allocated objects.
	LiveBytes uint64
	// TotalAllocs counts Malloc calls that succeeded.
	TotalAllocs uint64
	// TotalFrees counts successful Free calls.
	TotalFrees uint64
	// HeapBytes is the total heap address range ever reserved.
	HeapBytes uint64
	// FreeListBytes is the bytes parked on page-heap free lists.
	FreeListBytes uint64
	// MappedBytes is the resident (mapped) bytes of the heap segment.
	MappedBytes uint64
}

// Allocator is the process-wide allocator state shared by all threads.
type Allocator struct {
	seg     *vmem.Segment
	heap    *pageHeap
	central []centralList

	liveObjects atomic.Uint64
	liveBytes   atomic.Uint64
	totalAllocs atomic.Uint64
	totalFrees  atomic.Uint64

	// classAllocs/classFrees count operations per size class; the trailing
	// element counts large spans. Plain atomics, no sharding: the caller's
	// thread cache already batches central traffic, and these sit next to
	// liveObjects/totalAllocs which the same paths already touch.
	classAllocs []atomic.Uint64
	classFrees  []atomic.Uint64
}

// New creates an allocator over the given heap segment (normally
// space.Heap()).
func New(seg *vmem.Segment) *Allocator {
	a := &Allocator{
		seg:         seg,
		heap:        newPageHeap(seg),
		central:     make([]centralList, sizeclass.NumClasses()),
		classAllocs: make([]atomic.Uint64, sizeclass.NumClasses()+1),
		classFrees:  make([]atomic.Uint64, sizeclass.NumClasses()+1),
	}
	for c := range a.central {
		a.central[c].class = c
		a.central[c].heap = a.heap
	}
	return a
}

// SizeClassCount holds one size class's row of the per-class breakdown.
type SizeClassCount struct {
	Class  int    `json:"class"`
	Size   uint64 `json:"size"` // 0 for the large-span row
	Allocs uint64 `json:"allocs"`
	Frees  uint64 `json:"frees"`
}

// SizeClassCounts returns the nonzero rows of the per-class operation
// counts. The large-span row reports Class == NumClasses and Size == 0.
func (a *Allocator) SizeClassCounts() []SizeClassCount {
	var out []SizeClassCount
	for c := range a.classAllocs {
		allocs, frees := a.classAllocs[c].Load(), a.classFrees[c].Load()
		if allocs == 0 && frees == 0 {
			continue
		}
		row := SizeClassCount{Class: c, Allocs: allocs, Frees: frees}
		if c < sizeclass.NumClasses() {
			row.Size = sizeclass.ForClass(c).Size
		}
		out = append(out, row)
	}
	return out
}

// CentralFreeBytes sums the bytes parked on central free lists (objects in
// partially used spans), the component of allocator slack that
// FreeListBytes — whole free spans in the page heap — does not cover.
func (a *Allocator) CentralFreeBytes() uint64 {
	var n uint64
	for c := range a.central {
		cl := &a.central[c]
		size := sizeclass.ForClass(c).Size
		cl.mu.Lock()
		for _, s := range cl.nonempty {
			n += uint64(len(s.freeObjs)) * size
		}
		cl.mu.Unlock()
	}
	return n
}

// AttachMetrics registers the allocator's instruments with reg: gauges
// over the Stats counters, central-list slack, and the per-sizeclass
// breakdown as a structured object. Safe to call with nil.
func (a *Allocator) AttachMetrics(reg *obs.Registry) {
	if reg == nil {
		return
	}
	reg.RegisterFunc("tcmalloc.live_objects", func() int64 { return int64(a.liveObjects.Load()) })
	reg.RegisterFunc("tcmalloc.live_bytes", func() int64 { return int64(a.liveBytes.Load()) })
	reg.RegisterFunc("tcmalloc.total_allocs", func() int64 { return int64(a.totalAllocs.Load()) })
	reg.RegisterFunc("tcmalloc.total_frees", func() int64 { return int64(a.totalFrees.Load()) })
	reg.RegisterFunc("tcmalloc.pageheap_free_bytes", func() int64 {
		a.heap.mu.Lock()
		defer a.heap.mu.Unlock()
		return int64(a.heap.freeBytes)
	})
	reg.RegisterFunc("tcmalloc.central_free_bytes", func() int64 { return int64(a.CentralFreeBytes()) })
	reg.RegisterFunc("tcmalloc.mapped_bytes", func() int64 { return int64(a.seg.MappedBytes()) })
	reg.RegisterObject("tcmalloc.sizeclass", func() any { return a.SizeClassCounts() })
}

// NewThreadCache creates a cache for one thread. The caller owns it and must
// not share it between goroutines.
func (a *Allocator) NewThreadCache() *ThreadCache {
	return newThreadCache(a)
}

// InjectFaults attaches a fault-injection plane to the allocator's span
// allocation, central-list population, thread-cache refill, and heap page
// mapping. Injected failures surface as ordinary OutOfMemoryError values. A
// nil plane disables injection.
func (a *Allocator) InjectFaults(p *faultinject.Plane) {
	a.heap.faults.Store(p)
	a.seg.InjectFaults(p)
}

// Malloc allocates size bytes and returns the object base address. A size of
// zero allocates the minimum object, matching C malloc's unique-pointer
// behaviour.
func (tc *ThreadCache) Malloc(size uint64) (uint64, error) {
	a := tc.alloc
	if size == 0 {
		size = 1
	}
	var addr uint64
	if size <= sizeclass.MaxSmallSize {
		class := sizeclass.SizeToClass(size)
		addr = tc.pop(class)
		if addr == 0 {
			return 0, &OutOfMemoryError{Size: size}
		}
		s := a.heap.spanOf(addr)
		if idx, _ := s.objectIndex(addr); !s.setLive(idx) {
			panic(fmt.Sprintf("tcmalloc: allocated object 0x%x already live", addr))
		}
		a.liveBytes.Add(sizeclass.ForClass(class).Size)
		a.classAllocs[class].Add(1)
	} else {
		npages := int((size + vmem.PageSize - 1) / vmem.PageSize)
		s := a.heap.allocSpan(npages, spanLarge, 0)
		if s == nil {
			return 0, &OutOfMemoryError{Size: size}
		}
		addr = s.base
		a.liveBytes.Add(uint64(npages) * vmem.PageSize)
		a.classAllocs[len(a.classAllocs)-1].Add(1)
	}
	a.liveObjects.Add(1)
	a.totalAllocs.Add(1)
	return addr, nil
}

// Free releases the object at addr. It returns InvalidFreeError when addr is
// not the base of a live allocation — including the non-canonical addresses
// produced by DangSan's pointer invalidation — and DoubleFreeError when the
// object is already on a free list.
func (tc *ThreadCache) Free(addr uint64) error {
	a := tc.alloc
	if !vmem.Canonical(addr) {
		return &InvalidFreeError{Addr: addr}
	}
	s := a.heap.spanOf(addr)
	if s == nil {
		return &InvalidFreeError{Addr: addr}
	}
	switch s.state {
	case spanLarge:
		if addr != s.base {
			return &InvalidFreeError{Addr: addr}
		}
		a.liveBytes.Add(^(uint64(s.npages)*vmem.PageSize - 1))
		a.heap.freeSpan(s)
		a.classFrees[len(a.classFrees)-1].Add(1)
	case spanSmall:
		idx, exact := s.objectIndex(addr)
		if !exact {
			return &InvalidFreeError{Addr: addr}
		}
		if !s.clearLive(idx) {
			return &DoubleFreeError{Addr: addr}
		}
		class := s.class
		tc.push(class, addr)
		a.liveBytes.Add(^(sizeclass.ForClass(class).Size - 1))
		a.classFrees[class].Add(1)
	default:
		// Span is on a free list: the whole range is free already.
		return &DoubleFreeError{Addr: addr}
	}
	a.liveObjects.Add(^uint64(0))
	a.totalFrees.Add(1)
	return nil
}

// FreeBatch releases every object in bases, continuing past per-object
// errors so one bad address cannot strand the rest of a batch. It returns
// the number of objects actually freed and the first error encountered.
// Built for the release path of withheld frees (proc's DeferredFree); like
// all ThreadCache methods it must run on the cache's owning goroutine (or
// under the caller's external lock).
func (tc *ThreadCache) FreeBatch(bases []uint64) (int, error) {
	freed := 0
	var first error
	for _, b := range bases {
		if err := tc.Free(b); err != nil {
			if first == nil {
				first = err
			}
			continue
		}
		freed++
	}
	return freed, first
}

// TryResizeInPlace attempts to satisfy a realloc without moving the object:
// either the new size fits the existing storage (ReallocSame) or the
// object's large span is grown/shrunk in place (ReallocInPlace). It reports
// ok=false when the object would have to move — the caller then performs
// malloc+copy+free itself, which lets the DangSan heap tracker interpose on
// all three realloc cases separately (paper §4.2).
func (tc *ThreadCache) TryResizeInPlace(addr, newSize uint64) (ReallocKind, error, bool) {
	a := tc.alloc
	if !vmem.Canonical(addr) {
		return ReallocSame, &InvalidFreeError{Addr: addr}, false
	}
	s := a.heap.spanOf(addr)
	if s == nil {
		return ReallocSame, &InvalidFreeError{Addr: addr}, false
	}
	if newSize == 0 {
		newSize = 1
	}
	oldSize, ok := a.UsableSize(addr)
	if !ok {
		return ReallocSame, &InvalidFreeError{Addr: addr}, false
	}
	// Case 1: the new request fits the existing storage exactly.
	if newSize <= sizeclass.MaxSmallSize && s.state == spanSmall {
		if sizeclass.ForClass(sizeclass.SizeToClass(newSize)).Size == oldSize {
			return ReallocSame, nil, true
		}
	}
	if s.state == spanLarge && newSize > sizeclass.MaxSmallSize {
		wantPages := int((newSize + vmem.PageSize - 1) / vmem.PageSize)
		if wantPages == s.npages {
			return ReallocSame, nil, true
		}
		// Case 2: resize the large span in place when possible.
		if a.heap.resizeSpan(s, wantPages) {
			newBytes := uint64(s.npages) * vmem.PageSize
			a.liveBytes.Add(newBytes - oldSize) // wraps correctly when shrinking
			return ReallocInPlace, nil, true
		}
	}
	return ReallocSame, nil, false
}

// UsableSize returns the usable size of the live object whose base is addr.
func (a *Allocator) UsableSize(addr uint64) (uint64, bool) {
	s := a.heap.spanOf(addr)
	if s == nil {
		return 0, false
	}
	switch s.state {
	case spanSmall:
		idx, exact := s.objectIndex(addr)
		if !exact || !s.isLive(idx) {
			return 0, false
		}
		return sizeclass.ForClass(s.class).Size, true
	case spanLarge:
		if addr != s.base {
			return 0, false
		}
		return uint64(s.npages) * vmem.PageSize, true
	}
	return 0, false
}

// ReleaseFreeMemory returns idle pages to the simulated OS, making stale
// pointer-log locations in those pages fault on access.
func (a *Allocator) ReleaseFreeMemory() uint64 {
	return a.heap.releaseFreePages()
}

// Stats returns an accounting snapshot.
func (a *Allocator) Stats() Stats {
	a.heap.mu.Lock()
	heapBytes := a.heap.reservedBytes
	freeBytes := a.heap.freeBytes
	a.heap.mu.Unlock()
	return Stats{
		LiveObjects:   a.liveObjects.Load(),
		LiveBytes:     a.liveBytes.Load(),
		TotalAllocs:   a.totalAllocs.Load(),
		TotalFrees:    a.totalFrees.Load(),
		HeapBytes:     heapBytes,
		FreeListBytes: freeBytes,
		MappedBytes:   a.seg.MappedBytes(),
	}
}

// PageAlignOf returns the power-of-two alignment guarantee for objects in
// the page containing addr: the size-class alignment for small spans, page
// alignment for large spans. The shadow mapper uses this to pick the
// per-page compression ratio.
func (a *Allocator) PageAlignOf(addr uint64) (uint64, bool) {
	s := a.heap.spanOf(addr)
	if s == nil {
		return 0, false
	}
	switch s.state {
	case spanSmall:
		return sizeclass.ForClass(s.class).Align, true
	case spanLarge:
		return vmem.PageSize, true
	}
	return 0, false
}
