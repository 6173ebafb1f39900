package detectors

import (
	"sync"

	"dangsan/internal/tcmalloc"
)

// SecureAllocator is the defense class of the paper's §9 (DieHard(er),
// Cling, ASan's quarantine): no pointer tracking at all — the baseline's
// hooks — plus a FIFO that withholds freed objects from the allocator until
// more than a byte limit of them has piled up, delaying reuse. The paper's
// §1 point, and the HeapSpray exploit workload, is that an attacker defeats
// it by spraying allocations until the victim chunk is flushed out and
// reused.
type SecureAllocator struct {
	None
	limit   uint64
	release func(bases []uint64) (int, error)

	mu     sync.Mutex
	fifo   []parkedObject
	parked map[uint64]bool
	bytes  uint64
}

type parkedObject struct{ base, size uint64 }

var _ DeferredFree = (*SecureAllocator)(nil)

// NewSecureAllocator returns a secure allocator withholding up to
// limitBytes of freed objects.
func NewSecureAllocator(limitBytes uint64) *SecureAllocator {
	return &SecureAllocator{limit: limitBytes, parked: make(map[uint64]bool)}
}

// Name implements Detector.
func (*SecureAllocator) Name() string { return "secure-allocator" }

// BindRelease implements DeferredFree.
func (s *SecureAllocator) BindRelease(release func(bases []uint64) (int, error)) bool {
	s.release = release
	return true
}

// OnFreeDeferred implements DeferredFree: park the object, then release
// the oldest ones while the FIFO is over its limit. A second free of a
// parked object is the double free ASan's quarantine catches at once.
func (s *SecureAllocator) OnFreeDeferred(base, size, _ uint64) (bool, error) {
	s.mu.Lock()
	if s.parked[base] {
		s.mu.Unlock()
		return true, &tcmalloc.DoubleFreeError{Addr: base}
	}
	s.parked[base] = true
	s.fifo = append(s.fifo, parkedObject{base, size})
	s.bytes += size
	var evict []uint64
	for s.bytes > s.limit && len(s.fifo) > 0 {
		evict = append(evict, s.take())
	}
	s.mu.Unlock()
	return true, s.releaseAll(evict)
}

// Quarantined implements DeferredFree.
func (s *SecureAllocator) Quarantined(base uint64) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.parked[base]
}

// DrainQuarantine implements DeferredFree: release every parked object.
func (s *SecureAllocator) DrainQuarantine() {
	s.mu.Lock()
	evict := make([]uint64, 0, len(s.fifo))
	for len(s.fifo) > 0 {
		evict = append(evict, s.take())
	}
	s.mu.Unlock()
	s.releaseAll(evict)
}

// take pops the oldest parked object. Caller holds mu.
func (s *SecureAllocator) take() uint64 {
	o := s.fifo[0]
	s.fifo = s.fifo[1:]
	s.bytes -= o.size
	delete(s.parked, o.base)
	return o.base
}

func (s *SecureAllocator) releaseAll(bases []uint64) error {
	if len(bases) == 0 {
		return nil
	}
	_, err := s.release(bases)
	return err
}
