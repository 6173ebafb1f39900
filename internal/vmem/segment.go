package vmem

import (
	"errors"
	"fmt"
	"sync/atomic"

	"dangsan/internal/faultinject"
)

// ErrNoMemory is the simulated mmap failure: the OS refused to back the
// requested pages. It is returned only by TryMapPages; MapPages remains
// infallible (misuse panics aside) for callers that mapped eagerly at setup.
var ErrNoMemory = errors.New("vmem: cannot map pages (simulated ENOMEM)")

const (
	// PageShift is log2 of the simulated page size (4 KiB, as on x86-64 and
	// as assumed by the metapagetable: one entry per 4096-byte page).
	PageShift = 12
	// PageSize is the simulated page size in bytes.
	PageSize = 1 << PageShift
	// WordSize is the size of a machine word (and of a pointer) in bytes.
	WordSize = 8

	// chunkShift is log2 of the span of one page table in bytes. Segments
	// allocate page tables lazily so that a large virtual reservation costs
	// nothing until mapped, like real mmap.
	chunkShift    = 22 // 4 MiB
	chunkBytes    = 1 << chunkShift
	pagesPerChunk = chunkBytes / PageSize
	pageWords     = PageSize / WordSize
)

// page is the backing of one simulated page. Its words are only ever
// accessed with sync/atomic operations.
type page [pageWords]uint64

// zeroPage backs every page that is mapped but has never been written, the
// way a kernel maps one shared zero frame until the first write fault. It is
// read-only: loads may read through it, a writer must first replace the slot
// that points at it with a page of its own (Segment.ownPage).
var zeroPage page

// chunk is the page table of one chunkBytes-aligned piece of a segment. A
// slot is nil while its page is unmapped, &zeroPage once it is mapped and
// until the first write, and the page's own backing after that. Slots change
// only by compare-and-swap or swap, so that Map/Unmap can race with accesses
// (the loser observes a fault, which is the behaviour being simulated).
type chunk [pagesPerChunk]atomic.Pointer[page]

// Segment is a contiguous virtual address range whose pages get backing one
// at a time, at their first write. Pages within the range fault until mapped
// with MapPages, read as zero from then until written, and fault
// again after UnmapPages — simulating memory returned to the OS, which is the
// case DangSan handles by catching SIGSEGV during pointer invalidation.
type Segment struct {
	base uint64
	size uint64
	name string
	// chunks[i] covers [base + i*chunkBytes, base + (i+1)*chunkBytes).
	chunks []atomic.Pointer[chunk]
	// mappedBytes counts currently mapped pages, written or not (for
	// RSS-style accounting of the simulated process).
	mappedBytes atomic.Uint64
	// faults, when set, lets TryMapPages simulate mmap failure.
	faults atomic.Pointer[faultinject.Plane]
}

// NewSegment reserves the virtual range [base, base+size). base and size
// must be page-aligned. No page is mapped initially.
func NewSegment(base, size uint64, name string) *Segment {
	if base%PageSize != 0 || size%PageSize != 0 {
		panic(fmt.Sprintf("vmem: segment %q not page aligned: base=0x%x size=0x%x", name, base, size))
	}
	if size == 0 {
		panic("vmem: empty segment")
	}
	nChunks := (size + chunkBytes - 1) / chunkBytes
	return &Segment{
		base:   base,
		size:   size,
		name:   name,
		chunks: make([]atomic.Pointer[chunk], nChunks),
	}
}

// Base returns the first address of the segment.
func (s *Segment) Base() uint64 { return s.base }

// Size returns the reserved length of the segment in bytes.
func (s *Segment) Size() uint64 { return s.size }

// End returns one past the last reservable address.
func (s *Segment) End() uint64 { return s.base + s.size }

// MappedBytes returns the number of currently mapped bytes, the simulation's
// analog of the resident set size contribution of this segment.
func (s *Segment) MappedBytes() uint64 { return s.mappedBytes.Load() }

// contains reports whether addr falls inside the reservation.
func (s *Segment) contains(addr uint64) bool {
	return addr-s.base < s.size
}

// slot returns the page-table slot of the page containing addr, which must
// lie in the segment, allocating the table when ensure is true. It returns
// nil when the table does not exist. Publication is by compare-and-swap so
// concurrent callers agree on a single table.
func (s *Segment) slot(addr uint64, ensure bool) *atomic.Pointer[page] {
	off := addr - s.base
	table := &s.chunks[off>>chunkShift]
	c := table.Load()
	if c == nil {
		if !ensure {
			return nil
		}
		c = new(chunk)
		if !table.CompareAndSwap(nil, c) {
			c = table.Load()
		}
	}
	return &c[off>>PageShift%pagesPerChunk]
}

// pageRange panics unless [addr, addr + n pages) is page-aligned and inside
// the segment.
func (s *Segment) pageRange(op string, addr uint64, n int) {
	if addr%PageSize != 0 {
		panic(fmt.Sprintf("vmem: %s unaligned addr 0x%x", op, addr))
	}
	if n > 0 && !(s.contains(addr) && s.contains(addr+uint64(n-1)*PageSize)) {
		panic(fmt.Sprintf("vmem: %s outside segment %q: %d pages at 0x%x", op, s.name, n, addr))
	}
}

// MapPages marks n pages starting at page-aligned addr as mapped. Re-mapping
// an already mapped page is a no-op. The newly mapped pages read as zero and
// get backing of their own at the first write.
func (s *Segment) MapPages(addr uint64, n int) {
	s.pageRange("MapPages", addr, n)
	for i := 0; i < n; i++ {
		if s.slot(addr+uint64(i)*PageSize, true).CompareAndSwap(nil, &zeroPage) {
			s.mappedBytes.Add(PageSize)
		}
	}
}

// InjectFaults attaches a fault-injection plane; subsequent TryMapPages
// calls consult its VmemMap site. A nil plane disables injection.
func (s *Segment) InjectFaults(p *faultinject.Plane) {
	s.faults.Store(p)
}

// TryMapPages is MapPages with a fallible contract: it maps n pages at addr
// or returns ErrNoMemory without mapping any of them. The only failure
// source is the fault-injection plane (the simulation's backing store cannot
// actually run out), but callers must treat it exactly like a real ENOMEM
// from mmap: unwind bookkeeping and surface an allocation failure.
func (s *Segment) TryMapPages(addr uint64, n int) error {
	if s.faults.Load().Fail(faultinject.VmemMap) {
		return ErrNoMemory
	}
	s.MapPages(addr, n)
	return nil
}

// UnmapPages marks n pages starting at page-aligned addr as unmapped,
// simulating their return to the operating system. Subsequent accesses
// fault, and the pages' backing is dropped, so a later remap reads as zero.
func (s *Segment) UnmapPages(addr uint64, n int) {
	s.pageRange("UnmapPages", addr, n)
	for i := 0; i < n; i++ {
		if sl := s.slot(addr+uint64(i)*PageSize, false); sl != nil && sl.Swap(nil) != nil {
			s.mappedBytes.Add(^uint64(PageSize - 1))
		}
	}
}

// pageOf returns what the slot of the page containing addr holds: nil when
// the page is unmapped, possibly &zeroPage. addr must lie in the segment.
// It is small enough to inline into every word accessor; callers must not
// keep the result across operations, because only a fresh look at the slot
// turns an access that follows UnmapPages into a fault.
func (s *Segment) pageOf(addr uint64) *page {
	off := addr - s.base
	c := s.chunks[off>>chunkShift].Load()
	if c == nil {
		return nil
	}
	return c[off>>PageShift%pagesPerChunk].Load()
}

// ownPage returns backing that the page containing addr does not share, for
// a writer that found &zeroPage in the slot, or nil when the page is (by
// now) unmapped. It publishes a fresh page with a compare-and-swap from
// &zeroPage, so of the writers racing for a page's first write one installs
// the page and the others store into that same page, and a write can never
// land in zeroPage or resurrect a page that UnmapPages took away.
func (s *Segment) ownPage(addr uint64) *page {
	sl := s.slot(addr, false) // not nil: page tables are never freed
	var fresh *page
	for {
		p := sl.Load()
		if p != &zeroPage {
			return p
		}
		if fresh == nil {
			fresh = new(page)
		}
		if sl.CompareAndSwap(&zeroPage, fresh) {
			return fresh
		}
	}
}

// wordIndex is the index within its page of the word containing addr.
func wordIndex(addr uint64) uint64 { return addr / WordSize % pageWords }

// unmapped builds the fault for an access to an unmapped page of a segment.
func unmapped(addr uint64) *Fault { return &Fault{Addr: addr, Kind: FaultUnmapped} }

// loadWord reads the aligned word at addr.
func (s *Segment) loadWord(addr uint64) (uint64, *Fault) {
	p := s.pageOf(addr)
	if p == nil {
		return 0, unmapped(addr)
	}
	return atomic.LoadUint64(&p[wordIndex(addr)]), nil
}

// storeWord writes the aligned word at addr.
func (s *Segment) storeWord(addr, val uint64) *Fault {
	p := s.pageOf(addr)
	if p == &zeroPage {
		p = s.ownPage(addr)
	}
	if p == nil {
		return unmapped(addr)
	}
	atomic.StoreUint64(&p[wordIndex(addr)], val)
	return nil
}

// casWord performs an atomic compare-and-swap on the aligned word at addr.
func (s *Segment) casWord(addr, old, new uint64) (bool, *Fault) {
	p := s.pageOf(addr)
	if p == &zeroPage {
		p = s.ownPage(addr)
	}
	if p == nil {
		return false, unmapped(addr)
	}
	return atomic.CompareAndSwapUint64(&p[wordIndex(addr)], old, new), nil
}
