package vmem

import (
	"fmt"
	"sync/atomic"
)

// Standard layout of the simulated process. Bases are chosen so that every
// valid address has its top two bytes zero (needed by the pointer-compression
// format in internal/pointerlog, which distinguishes raw location entries
// from compressed ones by a nonzero top byte) and so that segments are far
// apart, like a real position-independent Linux process.
const (
	// HeapBase is where the simulated heap starts.
	HeapBase = 0x0000_0100_0000_0000
	// HeapMax is the maximum virtual size of the heap (64 GiB reservation;
	// backing is lazy).
	HeapMax = 1 << 36
	// GlobalsBase is where the globals segment starts.
	GlobalsBase = 0x0000_0200_0000_0000
	// GlobalsSize is the reserved size of the globals segment.
	GlobalsSize = 1 << 22
	// StacksBase is where thread stacks are carved from.
	StacksBase = 0x0000_0300_0000_0000
	// StackSize is the virtual size of one thread stack.
	StackSize = 1 << 23
	// MaxStacks bounds the number of thread stacks.
	MaxStacks = 1 << 13
)

// AddressSpace is a simulated user-space 64-bit address space composed of
// three segments: heap, globals and stacks. It is safe for concurrent use.
type AddressSpace struct {
	heap    *Segment
	globals *Segment
	stacks  *Segment
}

// New creates an address space with the standard heap/globals/stacks layout.
// The globals segment is fully mapped; heap and stack pages are mapped on
// demand by the allocator and thread runtime.
func New() *AddressSpace {
	return NewSized(HeapMax)
}

// NewSized is New with a custom heap reservation, for tests and workloads
// that want a tiny heap so allocation failure is reachable quickly. heapBytes
// is rounded up to a page and clamped to [PageSize, HeapMax].
func NewSized(heapBytes uint64) *AddressSpace {
	// Clamp before rounding: rounding a value within a page of 2^64 wraps.
	if heapBytes > HeapMax {
		heapBytes = HeapMax
	}
	heapBytes = (heapBytes + PageSize - 1) &^ (PageSize - 1)
	if heapBytes == 0 {
		heapBytes = PageSize
	}
	as := &AddressSpace{
		heap:    NewSegment(HeapBase, heapBytes, "heap"),
		globals: NewSegment(GlobalsBase, GlobalsSize, "globals"),
		stacks:  NewSegment(StacksBase, StackSize*MaxStacks, "stacks"),
	}
	as.globals.MapPages(GlobalsBase, GlobalsSize/PageSize)
	return as
}

// Heap returns the heap segment.
func (as *AddressSpace) Heap() *Segment { return as.heap }

// Globals returns the globals segment.
func (as *AddressSpace) Globals() *Segment { return as.globals }

// Stacks returns the stacks segment.
func (as *AddressSpace) Stacks() *Segment { return as.stacks }

// StackRange returns the reserved stack range for thread tid without
// mapping it; callers map pages on demand as the stack grows, so that a
// mostly idle thread contributes almost nothing to the resident set (as on
// a real OS, where stacks fault in lazily).
func (as *AddressSpace) StackRange(tid int) (base, top uint64) {
	if tid < 0 || tid >= MaxStacks {
		panic(fmt.Sprintf("vmem: thread id %d out of range", tid))
	}
	base = StacksBase + uint64(tid)*StackSize
	return base, base + StackSize
}

// UnmapStack releases the stack pages of thread tid.
func (as *AddressSpace) UnmapStack(tid int) {
	if tid < 0 || tid >= MaxStacks {
		panic(fmt.Sprintf("vmem: thread id %d out of range", tid))
	}
	base := StacksBase + uint64(tid)*StackSize
	as.stacks.UnmapPages(base, StackSize/PageSize)
}

// segmentFor locates the segment containing addr, or nil. The heap is
// checked first because pointer-tracking traffic is heap-dominated.
func (as *AddressSpace) segmentFor(addr uint64) *Segment {
	switch {
	case as.heap.contains(addr):
		return as.heap
	case as.stacks.contains(addr):
		return as.stacks
	case as.globals.contains(addr):
		return as.globals
	}
	return nil
}

// check validates an address for an access of the given size, returning the
// containing segment.
func (as *AddressSpace) check(addr uint64, size uint64, aligned bool) (*Segment, *Fault) {
	if !Canonical(addr) {
		return nil, &Fault{Addr: addr, Kind: FaultNonCanonical}
	}
	if aligned && addr%size != 0 {
		return nil, &Fault{Addr: addr, Kind: FaultUnaligned}
	}
	seg := as.segmentFor(addr)
	if seg == nil {
		return nil, &Fault{Addr: addr, Kind: FaultNoSegment}
	}
	return seg, nil
}

// The three word accessors share one shape: canonical form and alignment,
// segmentFor, pageOf, the atomic operation. All of it inlines, so a heap
// access that succeeds calls nothing; and they build no Fault themselves, so
// nothing on that path allocates. Every refused access ends in wordFault.

// wordAddr reports whether addr is canonical and 8-byte aligned.
func wordAddr(addr uint64) bool { return Canonical(addr) && addr%WordSize == 0 }

// wordFault returns the fault of a word access at addr that failed wordAddr
// or found no segment or no mapped page.
func (as *AddressSpace) wordFault(addr uint64) *Fault {
	if _, f := as.check(addr, WordSize, true); f != nil {
		return f
	}
	return unmapped(addr)
}

// LoadWord atomically reads the 8-byte word at the aligned address addr.
func (as *AddressSpace) LoadWord(addr uint64) (uint64, *Fault) {
	if wordAddr(addr) {
		if seg := as.segmentFor(addr); seg != nil {
			if p := seg.pageOf(addr); p != nil {
				return atomic.LoadUint64(&p[wordIndex(addr)]), nil
			}
		}
	}
	return 0, as.wordFault(addr)
}

// StoreWord atomically writes the 8-byte word at the aligned address addr.
func (as *AddressSpace) StoreWord(addr, val uint64) *Fault {
	if wordAddr(addr) {
		if seg := as.segmentFor(addr); seg != nil {
			p := seg.pageOf(addr)
			if p == &zeroPage {
				p = seg.ownPage(addr)
			}
			if p != nil {
				atomic.StoreUint64(&p[wordIndex(addr)], val)
				return nil
			}
		}
	}
	return as.wordFault(addr)
}

// CASWord atomically compares-and-swaps the word at addr. It returns whether
// the swap happened. This is the primitive DangSan uses to invalidate a
// pointer without clobbering a racing store of a fresh pointer.
func (as *AddressSpace) CASWord(addr, old, new uint64) (bool, *Fault) {
	if wordAddr(addr) {
		if seg := as.segmentFor(addr); seg != nil {
			p := seg.pageOf(addr)
			if p == &zeroPage {
				p = seg.ownPage(addr)
			}
			if p != nil {
				return atomic.CompareAndSwapUint64(&p[wordIndex(addr)], old, new), nil
			}
		}
	}
	return false, as.wordFault(addr)
}

// LoadByte reads one byte at addr.
func (as *AddressSpace) LoadByte(addr uint64) (byte, *Fault) {
	seg, f := as.check(addr, 1, false)
	if f != nil {
		return 0, f
	}
	w, fault := seg.loadWord(addr &^ 7)
	if fault != nil {
		fault.Addr = addr
		return 0, fault
	}
	return byte(w >> (8 * (addr & 7))), nil
}

// StoreByte writes one byte at addr, preserving the other bytes of the
// containing word via a CAS loop (the simulation's memory is word-granular).
func (as *AddressSpace) StoreByte(addr uint64, val byte) *Fault {
	seg, f := as.check(addr, 1, false)
	if f != nil {
		return f
	}
	wa := addr &^ 7
	shift := 8 * (addr & 7)
	for {
		old, fault := seg.loadWord(wa)
		if fault != nil {
			fault.Addr = addr
			return fault
		}
		new := old&^(0xff<<shift) | uint64(val)<<shift
		ok, fault := seg.casWord(wa, old, new)
		if fault != nil {
			fault.Addr = addr
			return fault
		}
		if ok {
			return nil
		}
	}
}

// The bulk operations below move a whole word wherever the simulated
// addresses involved are 8-byte aligned and at least a word remains, and
// single bytes at the ragged ends. An aligned word lies within one page, so
// the fault is the one a byte-at-a-time loop would return at that point,
// with the same bytes moved before it.

// moveWord copies the aligned word at src to dst.
func (as *AddressSpace) moveWord(dst, src uint64) *Fault {
	w, f := as.LoadWord(src)
	if f != nil {
		return f
	}
	return as.StoreWord(dst, w)
}

// moveByte copies the byte at src to dst.
func (as *AddressSpace) moveByte(dst, src uint64) *Fault {
	b, f := as.LoadByte(src)
	if f != nil {
		return f
	}
	return as.StoreByte(dst, b)
}

// Memmove copies n bytes from src to dst within the simulated space, used by
// the allocator's realloc path (which is exactly the type-unsafe pointer
// copy the paper discusses in its limitations section). Overlapping ranges
// are handled like the C memmove.
func (as *AddressSpace) Memmove(dst, src, n uint64) *Fault {
	if dst == src {
		return nil
	}
	if dst < src {
		for i := uint64(0); i < n; {
			if ((dst+i)|(src+i))%WordSize == 0 && n-i >= WordSize {
				if f := as.moveWord(dst+i, src+i); f != nil {
					return f
				}
				i += WordSize
				continue
			}
			if f := as.moveByte(dst+i, src+i); f != nil {
				return f
			}
			i++
		}
		return nil
	}
	// Backwards, i counts the bytes still to move: [0, i) of each range.
	for i := n; i > 0; {
		if ((dst+i)|(src+i))%WordSize == 0 && i >= WordSize {
			i -= WordSize
			if f := as.moveWord(dst+i, src+i); f != nil {
				f.Addr += WordSize - 1 // the word's last byte is the one a byte loop meets first
				return f
			}
			continue
		}
		i--
		if f := as.moveByte(dst+i, src+i); f != nil {
			return f
		}
	}
	return nil
}

// Memset fills n bytes at addr with val.
func (as *AddressSpace) Memset(addr uint64, val byte, n uint64) *Fault {
	// Fast path for aligned word runs.
	w := uint64(val)
	w |= w<<8 | w<<16 | w<<24
	w |= w << 32
	i := uint64(0)
	for ; i < n && (addr+i)%WordSize != 0; i++ {
		if f := as.StoreByte(addr+i, val); f != nil {
			return f
		}
	}
	for ; i+WordSize <= n; i += WordSize {
		if f := as.StoreWord(addr+i, w); f != nil {
			return f
		}
	}
	for ; i < n; i++ {
		if f := as.StoreByte(addr+i, val); f != nil {
			return f
		}
	}
	return nil
}

// MappedBytes reports the total mapped (resident) bytes across all segments.
func (as *AddressSpace) MappedBytes() uint64 {
	return as.heap.MappedBytes() + as.globals.MappedBytes() + as.stacks.MappedBytes()
}
