// Package shadow implements DangSan's pointer-to-object mapper: a variable
// compression ratio shadow memory ("metapagetable") in the style of METAlloc.
//
// Every 4 KiB heap page has one packed 8-byte entry: 56 bits locating the
// page's metadata array plus 8 bits of compression shift (paper Fig. 5 —
// "seven bytes specify a pointer to an array of metadata ... the eighth byte
// specifies the compression ratio"). Looking up the metadata word for an
// arbitrary pointer is constant time:
//
//	entry := table[(ptr - heapBase) >> 12]
//	meta  := arena[entry.index + (ptr&4095)>>entry.shift]
//
// Because the allocator guarantees that all objects in a page share one
// power-of-two alignment, an object covers a whole number of metadata slots;
// the object's metadata word is duplicated across all of them, which is what
// makes interior pointers (range queries) work — the property hash tables
// lack and trees pay O(log n) for (paper §4.3).
package shadow

import (
	"errors"
	"fmt"
	"math/bits"
	"sync"
	"sync/atomic"

	"dangsan/internal/faultinject"
	"dangsan/internal/obs"
	"dangsan/internal/vmem"
)

// ErrShadowExhausted reports that populating a page's metadata mapping
// failed: the metadata arena's index space is used up or, in practice, fault
// injection simulated it. The object's mapping is rolled back; the detector
// treats the object as untracked.
var ErrShadowExhausted = errors.New("shadow: metapagetable population failed")

const (
	// leafBits is the size of one metapagetable leaf in entries. The table
	// itself is lazily backed, so reserving entries for the whole 64 GiB
	// heap costs nothing until pages are used.
	leafBits = 12
	leafSize = 1 << leafBits

	// arenaSlabBits is the size of one metadata-arena slab in words.
	arenaSlabBits = 18
	arenaSlabSize = 1 << arenaSlabBits

	// A slab is backed in 4 KiB chunks of arenaChunkSize words, each
	// allocated the first time an array is carved out of it.
	arenaChunkBits = 9
	arenaChunkSize = 1 << arenaChunkBits
	slabChunks     = arenaSlabSize / arenaChunkSize

	// arenaMaxSlabs caps the arena at 2^29 words: 4 GiB of metadata, the
	// whole heap at 128-byte alignment, and more than a simulated heap can
	// back. Past it allocArray fails.
	arenaMaxSlabs = 1 << 11

	// shiftBits is how many low bits of a table entry hold the shift.
	shiftBits = 8
)

// MinShift and MaxShift bound the per-page compression shift: alignment runs
// from 8 bytes (smallest size class) to a full page (large spans).
const (
	MinShift = 3
	MaxShift = vmem.PageShift
)

type leaf struct {
	entries [leafSize]atomic.Uint64
}

type (
	arenaChunk [arenaChunkSize]uint64
	arenaSlab  [slabChunks]atomic.Pointer[arenaChunk]
)

// arena is an append-only store of metadata words. Indices are stable, and
// arrays are recycled through per-size free lists when a page is
// re-initialized for a different size class. The index space is reserved
// up front but backed per chunk on demand, like the paper's lazily mapped
// metapagetable; slabs and chunks are published atomically and never move,
// so readers resolve words without the mutex.
type arena struct {
	mu    sync.Mutex
	slabs [arenaMaxSlabs]atomic.Pointer[arenaSlab]
	next  uint64 // next free index; index 0 is reserved as "no metadata"
	// freeBySlots[s] holds start indices of released arrays of 1<<s slots.
	freeBySlots [MaxShift - MinShift + 1][]uint64
}

// allocArray returns the start index of a zeroed array of n words (n a power
// of two), or 0 once the index space is exhausted.
func (a *arena) allocArray(n uint64) uint64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	if list := &a.freeBySlots[sizeIdxFor(n)]; len(*list) > 0 {
		idx := (*list)[len(*list)-1]
		*list = (*list)[:len(*list)-1]
		// Zero the recycled array.
		for i := uint64(0); i < n; i++ {
			atomic.StoreUint64(a.wordAt(idx+i), 0)
		}
		return idx
	}
	// Keep arrays inside a single slab; one may straddle two chunks.
	slabOff := a.next % arenaSlabSize
	if slabOff+n > arenaSlabSize {
		a.next += arenaSlabSize - slabOff
	}
	idx := a.next
	if idx>>arenaSlabBits >= arenaMaxSlabs {
		return 0
	}
	a.next += n
	a.back(idx)
	a.back(idx + n - 1)
	return idx
}

// back materialises the chunk holding word i, and its slab. Caller holds mu.
func (a *arena) back(i uint64) {
	s := a.slabs[i>>arenaSlabBits].Load()
	if s == nil {
		s = new(arenaSlab)
		a.slabs[i>>arenaSlabBits].Store(s)
	}
	if c := &s[i>>arenaChunkBits%slabChunks]; c.Load() == nil {
		c.Store(new(arenaChunk))
	}
}

// freeArray recycles an array for reuse.
func (a *arena) freeArray(idx, n uint64) {
	a.mu.Lock()
	defer a.mu.Unlock()
	list := &a.freeBySlots[sizeIdxFor(n)]
	*list = append(*list, idx)
}

func sizeIdxFor(n uint64) int {
	// n slots = 1<<(PageShift-shift); map to 0..MaxShift-MinShift.
	return bits.TrailingZeros64(n)
}

// wordAt returns the address of arena word i, which must have been handed
// out by allocArray (its chunk is backed).
func (a *arena) wordAt(i uint64) *uint64 {
	s := a.slabs[i>>arenaSlabBits].Load()
	return &s[i>>arenaChunkBits%slabChunks].Load()[i&(arenaChunkSize-1)]
}

// load atomically reads arena word i (lock-free fast path: the index was
// published through a table entry after allocArray backed its chunk).
func (a *arena) load(i uint64) uint64 {
	return atomic.LoadUint64(a.wordAt(i))
}

func (a *arena) store(i, v uint64) {
	atomic.StoreUint64(a.wordAt(i), v)
}

// bytes reports memory consumed by the arena: every slab its index space has
// reached, in full, as a mapped metapagetable arena would. This counts the
// reservation rather than the backed chunks on purpose, so memory figures
// do not depend on how the simulation backs it.
func (a *arena) bytes() uint64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return (a.next + arenaSlabSize - 1) >> arenaSlabBits * arenaSlabSize * 8
}

// Table is the metapagetable for the heap segment.
type Table struct {
	heapBase uint64
	roots    []atomic.Pointer[leaf]
	arena    arena
	leaves   atomic.Uint64 // allocated leaf count, for memory accounting

	// Observability instruments; nil until AttachMetrics.
	slotWrites *obs.Counter
	slotClears *obs.Counter

	// faults, when set, can fail page population in CreateObject.
	faults atomic.Pointer[faultinject.Plane]
}

// NewTable creates a metapagetable covering the standard heap reservation.
func NewTable() *Table {
	nPages := uint64(vmem.HeapMax) >> vmem.PageShift
	t := &Table{
		heapBase: vmem.HeapBase,
		roots:    make([]atomic.Pointer[leaf], (nPages+leafSize-1)/leafSize),
	}
	t.arena.next = 1 // burn index 0
	return t
}

// AttachMetrics registers the table's instruments with reg: slot write and
// clear counters and gauges over the sizes Bytes already tracks. Safe to
// call with nil.
func (t *Table) AttachMetrics(reg *obs.Registry) {
	if reg == nil {
		return
	}
	t.slotWrites = reg.Counter("shadow.slot_writes")
	t.slotClears = reg.Counter("shadow.slot_clears")
	reg.RegisterFunc("shadow.bytes", func() int64 { return int64(t.Bytes()) })
	reg.RegisterFunc("shadow.leaves", func() int64 { return int64(t.leaves.Load()) })
}

// InjectFaults attaches a fault-injection plane; CreateObject consults its
// ShadowPopulate site whenever a page needs a fresh metadata array. A nil
// plane disables injection.
func (t *Table) InjectFaults(p *faultinject.Plane) {
	t.faults.Store(p)
}

// pageIndex maps a heap address to its page number; ok is false outside the
// heap.
func (t *Table) pageIndex(addr uint64) (uint64, bool) {
	if addr < t.heapBase || addr >= t.heapBase+vmem.HeapMax {
		return 0, false
	}
	return (addr - t.heapBase) >> vmem.PageShift, true
}

func (t *Table) leafFor(pi uint64, ensure bool) *leaf {
	ri := pi >> leafBits
	l := t.roots[ri].Load()
	if l == nil && ensure {
		fresh := new(leaf)
		if t.roots[ri].CompareAndSwap(nil, fresh) {
			t.leaves.Add(1)
			l = fresh
		} else {
			l = t.roots[ri].Load()
		}
	}
	return l
}

// packed entry helpers.
func packEntry(arrayIdx uint64, shift uint) uint64 {
	return arrayIdx<<shiftBits | uint64(shift)
}

func unpackEntry(e uint64) (arrayIdx uint64, shift uint) {
	return e >> shiftBits, uint(e & (1<<shiftBits - 1))
}

// ensurePage makes sure the page containing addr has a metadata array for
// the given shift, returning the array's arena index. If the page was
// previously initialized with a different shift (span recycled for another
// size class), the old array is released and replaced. Returns
// ErrShadowExhausted when the fault plane or the arena's index space fails a
// needed fresh allocation; pages whose mapping already matches never fail.
func (t *Table) ensurePage(pageAddr uint64, shift uint) (uint64, error) {
	pi, ok := t.pageIndex(pageAddr)
	if !ok {
		panic(fmt.Sprintf("shadow: address 0x%x outside heap", pageAddr))
	}
	l := t.leafFor(pi, true)
	slot := &l.entries[pi&(leafSize-1)]
	for {
		e := slot.Load()
		idx, s := unpackEntry(e)
		if e != 0 && s == shift {
			return idx, nil
		}
		if t.faults.Load().Fail(faultinject.ShadowPopulate) {
			return 0, ErrShadowExhausted
		}
		n := uint64(vmem.PageSize) >> shift
		fresh := t.arena.allocArray(n)
		if fresh == 0 {
			return 0, ErrShadowExhausted
		}
		if slot.CompareAndSwap(e, packEntry(fresh, shift)) {
			if e != 0 {
				t.arena.freeArray(idx, uint64(vmem.PageSize)>>s)
			}
			return fresh, nil
		}
		t.arena.freeArray(fresh, n)
	}
}

// CreateObject records meta as the metadata word for every slot covered by
// the object [base, base+size). align is the allocator's alignment
// guarantee for the object's pages and determines the compression shift.
// This implements the paper's createobj (also used on in-place realloc
// growth, where it simply overwrites the old mapping).
//
// On ErrShadowExhausted the slots already written are zeroed again, so a
// partially mapped object can never feed stale handles to Lookup — the
// object is simply untracked.
func (t *Table) CreateObject(base, size, align uint64, meta uint64) error {
	if align < 1<<MinShift || align&(align-1) != 0 {
		panic(fmt.Sprintf("shadow: bad alignment %d", align))
	}
	shift := uint(bits.TrailingZeros64(align))
	if shift > MaxShift {
		shift = MaxShift
	}
	if base%align != 0 {
		panic(fmt.Sprintf("shadow: object 0x%x not aligned to %d", base, align))
	}
	end := base + size
	var slots uint64
	for addr := base; addr < end; {
		pageAddr := addr &^ (vmem.PageSize - 1)
		arr, err := t.ensurePage(pageAddr, shift)
		if err != nil {
			// Roll back the prefix already written.
			if meta != 0 && addr > base {
				t.clearRange(base, addr)
			}
			return err
		}
		pageEnd := pageAddr + vmem.PageSize
		stop := end
		if stop > pageEnd {
			stop = pageEnd
		}
		firstSlot := (addr - pageAddr) >> shift
		lastSlot := (stop - 1 - pageAddr) >> shift
		for s := firstSlot; s <= lastSlot; s++ {
			t.arena.store(arr+s, meta)
		}
		slots += lastSlot - firstSlot + 1
		addr = pageEnd
	}
	// No tid on this path; shard by page so concurrent allocators in
	// different heap regions stay on separate lines.
	if meta != 0 {
		t.slotWrites.Add(int32(base>>vmem.PageShift), slots)
	} else {
		t.slotClears.Add(int32(base>>vmem.PageShift), slots)
	}
	return nil
}

// ClearObject zeroes the metadata slots covered by the object, called at
// free time so that later stores of dangling pointers are not registered
// into recycled metadata (the "careful reuse of per-object metadata" the
// paper's §7 race discussion requires). Unlike CreateObject it never
// allocates — it zeroes at whatever granularity each page already has — so
// it cannot fail and cannot draw an injected fault.
func (t *Table) ClearObject(base, size, align uint64) {
	if size == 0 {
		return
	}
	t.slotClears.Add(int32(base>>vmem.PageShift), t.clearRange(base, base+size))
}

// clearRange zeroes every metadata slot covering [start, end) using each
// page's stored shift, skipping pages that were never populated. Returns the
// number of slots zeroed.
func (t *Table) clearRange(start, end uint64) uint64 {
	var slots uint64
	for addr := start; addr < end; {
		pageAddr := addr &^ (vmem.PageSize - 1)
		pageEnd := pageAddr + vmem.PageSize
		stop := end
		if stop > pageEnd {
			stop = pageEnd
		}
		pi, ok := t.pageIndex(pageAddr)
		if !ok {
			panic(fmt.Sprintf("shadow: address 0x%x outside heap", pageAddr))
		}
		if l := t.leafFor(pi, false); l != nil {
			if e := l.entries[pi&(leafSize-1)].Load(); e != 0 {
				arr, shift := unpackEntry(e)
				firstSlot := (addr - pageAddr) >> shift
				lastSlot := (stop - 1 - pageAddr) >> shift
				for s := firstSlot; s <= lastSlot; s++ {
					t.arena.store(arr+s, 0)
				}
				slots += lastSlot - firstSlot + 1
			}
		}
		addr = pageEnd
	}
	return slots
}

// Lookup returns the metadata word for ptr, or 0 when ptr does not point
// into a tracked object. This is the paper's ptr2obj: two dependent reads.
func (t *Table) Lookup(ptr uint64) uint64 {
	pi, ok := t.pageIndex(ptr)
	if !ok {
		return 0
	}
	l := t.leafFor(pi, false)
	if l == nil {
		return 0
	}
	e := l.entries[pi&(leafSize-1)].Load()
	if e == 0 {
		return 0
	}
	idx, shift := unpackEntry(e)
	return t.arena.load(idx + (ptr&(vmem.PageSize-1))>>shift)
}

// Bytes reports the memory consumed by the metapagetable and metadata
// arena, for the paper's memory-overhead experiments.
func (t *Table) Bytes() uint64 {
	const leafBytes = leafSize * 8
	return t.leaves.Load()*leafBytes + t.arena.bytes() + uint64(len(t.roots))*8
}
