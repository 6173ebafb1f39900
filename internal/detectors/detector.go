// Package detectors defines the interface between the simulated process
// runtime (internal/proc) and use-after-free detection systems, plus the
// uninstrumented baseline and the §9 secure allocator (SecureAllocator).
// Concrete systems live in subpackages:
// detectors/dangsan (the paper's contribution), detectors/dangnull and
// detectors/freesentry (the baselines it is evaluated against), plus the
// checked-dereference backends detectors/xtag and detectors/camp;
// detectors/backends is the one table that names and builds them all.
package detectors

import "dangsan/internal/vmem"

// Detector observes the allocation and pointer-store events of a simulated
// process. Implementations must be safe for concurrent use: events arrive
// from every thread of the process.
type Detector interface {
	// Name identifies the detector in benchmark output.
	Name() string

	// AllocPad returns extra bytes the runtime adds to every allocation
	// request. DangSan returns 1 so that a one-past-the-end pointer still
	// lies within its object (paper §4.4); baselines return 0.
	AllocPad() uint64

	// OnAlloc fires after an object is allocated. size is the usable
	// (rounded) size; align is the allocator's alignment guarantee for the
	// object's pages.
	OnAlloc(base, size, align uint64)

	// OnReallocInPlace fires when an object changed extent without moving
	// (tcmalloc resized a large span). The detector must refresh its
	// mapping for [base, base+newSize) and drop any tail mapping when the
	// object shrank.
	OnReallocInPlace(base, oldSize, newSize, align uint64)

	// OnFree fires before the allocator releases a (valid) object. This is
	// where invalidation-based detectors neutralize dangling pointers.
	OnFree(base, size, align uint64)

	// OnPtrStore fires after the program stores the pointer-typed value
	// val to the memory location loc from thread tid.
	OnPtrStore(loc, val uint64, tid int32)

	// MetadataBytes reports the detector's current metadata footprint, for
	// the memory-overhead experiments.
	MetadataBytes() uint64
}

// Binder is implemented by detectors that need access to the process's
// simulated memory (e.g. to read pointer values back during invalidation).
// The process runtime calls Bind exactly once, before any other hook.
type Binder interface {
	Bind(mem Memory)
}

// ThreadContext is opaque per-thread detector state. The runtime obtains
// one per simulated thread from ThreadAware.NewThreadContext and passes
// it back on that thread's pointer stores, giving the detector a place
// to keep an unsynchronized store fast path (e.g. a memoized
// object-to-log mapping) without any thread-local lookup of its own.
type ThreadContext interface{}

// ThreadAware is implemented by detectors that maintain a per-thread
// store fast path. When a detector implements it, the runtime calls
// OnPtrStoreCtx with the storing thread's context instead of OnPtrStore;
// both must have identical observable behavior — the context is purely
// an optimization channel.
type ThreadAware interface {
	// NewThreadContext creates the context for a new thread. It is called
	// once per thread, before any store from that thread.
	NewThreadContext(tid int32) ThreadContext

	// OnPtrStoreCtx is OnPtrStore with the storing thread's context. ctx
	// is only ever passed back from the thread it was created for, so the
	// detector may mutate it without synchronization.
	OnPtrStoreCtx(ctx ThreadContext, loc, val uint64)
}

// Memory is the view of simulated memory detectors may use: checked reads
// (reporting the simulated SIGSEGV instead of crashing) and
// compare-and-swap for race-free invalidation. *vmem.AddressSpace
// implements it.
type Memory interface {
	LoadWord(addr uint64) (uint64, *vmem.Fault)
	CASWord(addr, old, new uint64) (bool, *vmem.Fault)
	StoreWord(addr, val uint64) *vmem.Fault
}

// DeferredFree is implemented by detectors that withhold freed objects
// from the allocator instead of letting the runtime return them at once:
// the §9 secure allocator (SecureAllocator) parks them in a bounded FIFO
// and hands them back through the runtime's release callback later.
type DeferredFree interface {
	// BindRelease hands the detector the runtime's memory-return callback
	// and reports whether withholding is armed. A false return means the
	// runtime must free inline; BindRelease is called once, before any
	// OnFreeDeferred.
	BindRelease(release func(bases []uint64) (int, error)) bool

	// OnFreeDeferred offers the detector custody of a freed object, after
	// its OnFree ran. When it returns taken=true the detector owns the
	// memory: the runtime must NOT free base — it comes back through the
	// release callback. taken=false means the runtime frees it inline. A
	// non-nil err (e.g. a double free of a withheld object) is returned to
	// the program either way.
	OnFreeDeferred(base, size, align uint64) (taken bool, err error)

	// Quarantined reports whether base is currently withheld (freed, not
	// yet released). The runtime consults it on paths that would
	// otherwise misread withheld memory as live, e.g. realloc.
	Quarantined(base uint64) bool

	// DrainQuarantine synchronously releases every withheld object. Called
	// under memory pressure and at end-of-run quiesce points.
	DrainQuarantine()
}

// DerefChecker is implemented by detectors that validate addresses at
// dereference time instead of (or in addition to) invalidating pointers at
// free time: camp's allocator-cooperating range check, and — through the
// TagChecker extension — xtag's generation-tag check. The runtime calls
// CheckDeref with the address an operation is about to access, before the
// access happens; the instrumentation pass may elide the check for
// dereferences it proves safe (internal/instrument's ElideDerefChecks).
type DerefChecker interface {
	// CheckDeref validates addr and returns the address the runtime should
	// actually access (for taggers, addr with the tag stripped). A non-nil
	// fault means the access targets freed memory — a detected
	// use-after-free, reported with the original pointer preserved in
	// Fault.Addr — and the access must not be performed. Addresses the
	// detector does not track (stack, globals, untagged or degraded heap
	// objects) pass through unchanged: fail-open, never a false positive.
	CheckDeref(addr uint64) (uint64, *vmem.Fault)
}

// TagChecker is the capability interface of pointer-tagging detectors
// (xtag): beyond checking dereferences, the runtime asks them to brand every
// freshly allocated object's address with its generation tag. Consumed by
// internal/proc (malloc returns the tagged pointer; every address-consuming
// operation strips and checks) and internal/interp (elided checks still
// strip).
type TagChecker interface {
	DerefChecker

	// TagPointer returns base with the current tag of the object at base
	// embedded in the unused high bits (vmem.WithTag). For untracked
	// (degraded) objects it returns base unchanged — tag 0 is "untagged"
	// and always passes CheckDeref.
	TagPointer(base uint64) uint64
}

// CoverageLoss is implemented by every backend that can lose coverage
// fail-open: when metadata cannot be had, it leaves objects untracked and
// drops pointer registrations instead of failing the program.
type CoverageLoss interface {
	// Degraded reports the objects left untracked and the registrations
	// dropped so far.
	Degraded() (objects, dropped uint64)
}

// None is the uninstrumented baseline: every hook is a no-op. Benchmarks
// divide instrumented run time by the None run time to obtain the overhead
// factors reported in the paper's figures.
type None struct{}

// Name implements Detector.
func (None) Name() string { return "baseline" }

// AllocPad implements Detector.
func (None) AllocPad() uint64 { return 0 }

// OnAlloc implements Detector.
func (None) OnAlloc(base, size, align uint64) {}

// OnReallocInPlace implements Detector.
func (None) OnReallocInPlace(base, oldSize, newSize, align uint64) {}

// OnFree implements Detector.
func (None) OnFree(base, size, align uint64) {}

// OnPtrStore implements Detector.
func (None) OnPtrStore(loc, val uint64, tid int32) {}

// MetadataBytes implements Detector.
func (None) MetadataBytes() uint64 { return 0 }
