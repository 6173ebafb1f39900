// Package proc models a C-like process running over the simulated address
// space: a shared heap behind the tcmalloc allocator, per-thread stacks, a
// globals segment, and pointer-aware store/load operations.
//
// The runtime plays the role of the instrumented binary in the paper's
// Figure 1. StorePtr corresponds to a pointer-typed store instruction that
// the pointer-tracker compiler pass instrumented: the store executes, then
// the detector's OnPtrStore hook runs (the inserted registerptr call).
// Malloc/Free/Realloc correspond to the allocator calls the heap tracker
// hooks. Workloads written directly against this API — or IR programs run
// by internal/interp — exercise exactly the event stream a DangSan-protected
// C program generates.
package proc

import (
	"fmt"
	"sync"

	"dangsan/internal/detectors"
	"dangsan/internal/faultinject"
	"dangsan/internal/obs"
	"dangsan/internal/tcmalloc"
	"dangsan/internal/vmem"
)

// ExhaustedError reports exhaustion of a fixed process resource (globals
// segment, a thread stack). The infallible AllocGlobal/Alloca panic with
// this value; TryAllocGlobal/TryAlloca return it, so workloads that want to
// survive pressure can.
type ExhaustedError struct {
	Resource string // "globals" or "stack"
	Tid      int32  // thread id for stack exhaustion, -1 otherwise
	Size     uint64 // the request that did not fit
}

func (e *ExhaustedError) Error() string {
	if e.Resource == "stack" {
		return fmt.Sprintf("proc: thread %d stack overflow allocating %d bytes", e.Tid, e.Size)
	}
	return fmt.Sprintf("proc: %s segment exhausted allocating %d bytes", e.Resource, e.Size)
}

// Process is one simulated process: address space, allocator, detector.
type Process struct {
	as    *vmem.AddressSpace
	alloc *tcmalloc.Allocator
	det   detectors.Detector

	mu          sync.Mutex
	nextTID     int32
	globalsBump uint64

	// memcpyHook, when non-nil, receives every Memcpy (and realloc move)
	// so the detector can re-register copied pointers (§7 extension).
	memcpyHook detectors.MemcpyHooker
	// threadAware, when non-nil, is det's per-thread fast-path interface:
	// pointer stores are routed through it with the storing thread's
	// context instead of the plain OnPtrStore hook.
	threadAware detectors.ThreadAware
	// derefChk, when non-nil, is det's checked-dereference interface: every
	// address-consuming operation (load, store, free, realloc, memcpy)
	// validates its address first and the operation traps instead of
	// touching freed memory. Nil for the invalidation-based backends, which
	// keep their zero-cost access path.
	derefChk detectors.DerefChecker
	// tagger, when non-nil, is det's pointer-tagging interface (implies
	// derefChk): malloc returns tagged pointers and checked operations
	// strip the tag before touching simulated memory.
	tagger detectors.TagChecker
	// zeroOnFree wipes object contents before release (secure
	// deallocation, the mitigation the paper cites for partial
	// type-unsafe reuse).
	zeroOnFree bool
	// tracer, when set, receives every traced operation (see trace.go).
	tracer TraceSink

	// met holds the per-operation counters; nil until AttachMetrics, so
	// the metrics-off hot path pays one predicted branch.
	met *procMetrics

	// deferred, when non-nil, is det's withholding interface (the §9
	// secure allocator, detectors.SecureAllocator): Free hands objects to
	// it instead of the allocator, and their memory comes back through the
	// release callback bound at construction.
	deferred detectors.DeferredFree
	// releaseMu serializes the release thread cache, which returns
	// withheld memory for whichever thread's free or drain evicted it.
	releaseMu sync.Mutex
	releaseTC *tcmalloc.ThreadCache
}

// procMetrics bundles the process's per-operation counters, each sharded
// by thread id.
type procMetrics struct {
	mallocs   *obs.Counter
	frees     *obs.Counter
	reallocs  *obs.Counter
	ptrStores *obs.Counter
	intStores *obs.Counter
	loads     *obs.Counter
	memcpys   *obs.Counter
}

// AttachMetrics registers the process's instruments with reg — operation
// counters, a thread-count gauge — and forwards to the allocator and (when
// it supports it) the detector. Call before threads run; safe with nil.
func (p *Process) AttachMetrics(reg *obs.Registry) {
	if reg == nil {
		return
	}
	p.met = &procMetrics{
		mallocs:   reg.Counter("proc.mallocs"),
		frees:     reg.Counter("proc.frees"),
		reallocs:  reg.Counter("proc.reallocs"),
		ptrStores: reg.Counter("proc.ptr_stores"),
		intStores: reg.Counter("proc.int_stores"),
		loads:     reg.Counter("proc.loads"),
		memcpys:   reg.Counter("proc.memcpys"),
	}
	reg.RegisterFunc("proc.threads", func() int64 {
		p.mu.Lock()
		defer p.mu.Unlock()
		return int64(p.nextTID)
	})
	p.alloc.AttachMetrics(reg)
	if ma, ok := p.det.(interface{ AttachMetrics(*obs.Registry) }); ok {
		ma.AttachMetrics(reg)
	}
}

// New creates a process protected by the given detector (use
// detectors.None{} for the uninstrumented baseline).
func New(det detectors.Detector) *Process {
	return NewWithOptions(det, Options{})
}

// Options configures process creation beyond the detector.
type Options struct {
	// HeapBytes shrinks the heap reservation (0 means the standard 64 GiB
	// layout). Tests and chaos runs use tiny heaps so OutOfMemoryError is
	// reachable quickly.
	HeapBytes uint64
	// Faults, when non-nil, injects failures into the allocator's span,
	// central-list, and thread-cache paths and the heap's page mapping.
	// Detector-side injection is configured on the detector itself.
	Faults *faultinject.Plane
}

// NewWithOptions creates a process with a custom heap size and optional
// allocator-level fault injection.
func NewWithOptions(det detectors.Detector, opts Options) *Process {
	var as *vmem.AddressSpace
	if opts.HeapBytes > 0 {
		as = vmem.NewSized(opts.HeapBytes)
	} else {
		as = vmem.New()
	}
	if b, ok := det.(detectors.Binder); ok {
		b.Bind(as)
	}
	ta, _ := det.(detectors.ThreadAware)
	dc, _ := det.(detectors.DerefChecker)
	tg, _ := det.(detectors.TagChecker)
	alloc := tcmalloc.New(as.Heap())
	if opts.Faults != nil {
		alloc.InjectFaults(opts.Faults)
	}
	p := &Process{
		as:          as,
		alloc:       alloc,
		det:         det,
		threadAware: ta,
		derefChk:    dc,
		tagger:      tg,
		globalsBump: vmem.GlobalsBase,
	}
	if df, ok := det.(detectors.DeferredFree); ok && df.BindRelease(p.release) {
		p.deferred = df
		p.releaseTC = alloc.NewThreadCache()
	}
	return p
}

// release is the memory-return callback bound into a DeferredFree
// detector: it frees withheld objects through the release thread cache.
func (p *Process) release(bases []uint64) (int, error) {
	p.releaseMu.Lock()
	defer p.releaseMu.Unlock()
	n, err := p.releaseTC.FreeBatch(bases)
	// Flush per batch so the returned memory reaches the central lists —
	// reusable by every thread, not parked in a cache no thread owns.
	p.releaseTC.Flush()
	return n, err
}

// Quiesce releases every object the detector withholds, if it defers
// frees, so allocator accounting reaches the state an inline-free run
// would be in. Call at end-of-run checkpoints before comparing
// LiveObjects.
func (p *Process) Quiesce() {
	if p.deferred != nil {
		p.deferred.DrainQuarantine()
	}
}

// ReclaimMemory is the memory-pressure relief valve: release withheld
// objects (their spans are unusable until then) and then return idle
// pages to the OS.
func (p *Process) ReclaimMemory() {
	p.Quiesce()
	p.alloc.ReleaseFreeMemory()
}

// EnableMemcpyHook turns on pointer re-registration on Memcpy and realloc
// moves, if the detector supports it (detectors.MemcpyHooker). It reports
// whether the hook is active.
func (p *Process) EnableMemcpyHook() bool {
	if h, ok := p.det.(detectors.MemcpyHooker); ok {
		p.memcpyHook = h
		return true
	}
	return false
}

// EnableZeroOnFree turns on secure deallocation: freed objects are wiped
// before their memory is released.
func (p *Process) EnableZeroOnFree() { p.zeroOnFree = true }

// AddressSpace exposes the process's simulated memory.
func (p *Process) AddressSpace() *vmem.AddressSpace { return p.as }

// Allocator exposes the process's allocator (read-mostly: stats, usable
// size).
func (p *Process) Allocator() *tcmalloc.Allocator { return p.alloc }

// Detector returns the detector protecting this process.
func (p *Process) Detector() detectors.Detector { return p.det }

// UsableSize reports the allocator's usable size for the object at addr,
// accepting program-visible pointers: under a tagging detector the tag is
// stripped first, the way a tagging runtime interposes malloc_usable_size.
// Callers holding program pointers should use this, not the raw allocator.
func (p *Process) UsableSize(addr uint64) (uint64, bool) {
	return p.alloc.UsableSize(p.stripAddr(addr))
}

// checkAddr validates an address the program is about to use through the
// detector's checked-dereference interface, returning the address to
// actually access (tag stripped, for taggers). A non-nil fault is a
// detected use-after-free: the caller must not perform the access. For
// detectors without the capability this is a single nil check.
func (p *Process) checkAddr(addr uint64) (uint64, *vmem.Fault) {
	if p.derefChk == nil {
		return addr, nil
	}
	return p.derefChk.CheckDeref(addr)
}

// stripAddr removes a pointer tag without checking it, for accesses whose
// safety was proved statically (the instrumentation pass's elided checks)
// or operations nested inside an already-checked one.
func (p *Process) stripAddr(addr uint64) uint64 {
	if p.tagger != nil {
		return vmem.StripTag(addr)
	}
	return addr
}

// AllocGlobal carves n bytes (8-byte aligned) out of the globals segment,
// modelling a global variable. It panics with *ExhaustedError when the
// segment is full — global allocation happens at program load, where
// exhaustion is a configuration error; use TryAllocGlobal to handle it.
func (p *Process) AllocGlobal(n uint64) uint64 {
	addr, err := p.TryAllocGlobal(n)
	if err != nil {
		panic(err)
	}
	return addr
}

// TryAllocGlobal is AllocGlobal with the exhaustion case surfaced as a
// typed error instead of a panic.
func (p *Process) TryAllocGlobal(n uint64) (uint64, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	addr := (p.globalsBump + 7) &^ 7
	if addr+n > vmem.GlobalsBase+vmem.GlobalsSize {
		return 0, &ExhaustedError{Resource: "globals", Tid: -1, Size: n}
	}
	p.globalsBump = addr + n
	p.emit(TraceGlobal, -1, n, addr, 0)
	return addr, nil
}

// GlobalsUsed returns the allocated extent of the globals segment, for
// root scanning by the conservative collector (internal/gc).
func (p *Process) GlobalsUsed() (base, end uint64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return vmem.GlobalsBase, p.globalsBump
}

// StackUsed returns the live extent of this thread's stack, for root
// scanning by the conservative collector.
func (th *Thread) StackUsed() (base, end uint64) {
	return th.stackBase, th.stackBump
}

// MemoryFootprint reports the process's simulated resident memory plus the
// detector's metadata, the quantity the paper's memory-overhead figures
// compare ("mean/max RSS").
func (p *Process) MemoryFootprint() uint64 {
	return p.as.MappedBytes() + p.det.MetadataBytes()
}

// Thread is one simulated thread. Create with NewThread; each Thread must
// be used by a single goroutine. Thread IDs are dense and start at 0.
type Thread struct {
	proc      *Process
	id        int32
	tc        *tcmalloc.ThreadCache
	stackBase uint64
	stackEnd  uint64
	stackBump uint64
	// stackMapped is the end of the currently mapped stack prefix; pages
	// fault in lazily as Alloca grows past it.
	stackMapped uint64
	// noTrace suppresses event emission for operations nested inside a
	// compound traced operation (realloc's internal malloc/copy/free).
	noTrace bool
	// detCtx is the detector's per-thread fast-path state (nil when the
	// detector is not ThreadAware).
	detCtx detectors.ThreadContext
}

// emit reports a thread-scoped event unless suppressed.
func (th *Thread) emit(kind uint8, a, b, c uint64) {
	if !th.noTrace {
		th.proc.emit(kind, th.id, a, b, c)
	}
}

// NewThread registers a new thread: a thread id, an allocator cache and a
// lazily-growing stack.
func (p *Process) NewThread() *Thread {
	p.mu.Lock()
	id := p.nextTID
	p.nextTID++
	// Emit inside the lock so replay creates threads in id order.
	p.emit(TraceThreadStart, id, 0, 0, 0)
	p.mu.Unlock()
	base, top := p.as.StackRange(int(id))
	const initialPages = 4
	p.as.Stacks().MapPages(base, initialPages)
	th := &Thread{
		proc:        p,
		id:          id,
		tc:          p.alloc.NewThreadCache(),
		stackBase:   base,
		stackEnd:    top,
		stackBump:   base,
		stackMapped: base + initialPages*vmem.PageSize,
	}
	if p.threadAware != nil {
		th.detCtx = p.threadAware.NewThreadContext(id)
	}
	return th
}

// Exit releases the thread's allocator cache and unmaps its stack. The
// Thread must not be used afterwards.
func (th *Thread) Exit() {
	th.tc.Flush()
	th.proc.as.UnmapStack(int(th.id))
	th.proc.emit(TraceThreadExit, th.id, 0, 0, 0)
}

// ID returns the thread id.
func (th *Thread) ID() int32 { return th.id }

// Process returns the owning process.
func (th *Thread) Process() *Process { return th.proc }

// Alloca reserves n bytes (8-byte aligned) of this thread's stack,
// modelling stack variables. The reservation lives until FreeStack. It
// panics with *ExhaustedError on stack overflow, as a real process would
// fault; use TryAlloca to handle overflow gracefully.
func (th *Thread) Alloca(n uint64) uint64 {
	addr, err := th.TryAlloca(n)
	if err != nil {
		panic(err)
	}
	return addr
}

// TryAlloca is Alloca with the overflow case surfaced as a typed error
// instead of a panic.
func (th *Thread) TryAlloca(n uint64) (uint64, error) {
	addr := (th.stackBump + 7) &^ 7
	if addr+n > th.stackEnd {
		return 0, &ExhaustedError{Resource: "stack", Tid: th.id, Size: n}
	}
	th.emit(TraceAlloca, n, addr, 0)
	th.stackBump = addr + n
	if th.stackBump > th.stackMapped {
		grow := (th.stackBump - th.stackMapped + vmem.PageSize - 1) / vmem.PageSize
		th.proc.as.Stacks().MapPages(th.stackMapped, int(grow))
		th.stackMapped += grow * vmem.PageSize
	}
	return addr, nil
}

// StackMark returns the current stack height, for use with FreeStack.
func (th *Thread) StackMark() uint64 {
	th.emit(TraceStackMark, th.stackBump, 0, 0)
	return th.stackBump
}

// FreeStack pops the stack back to a mark returned by StackMark, modelling
// function return.
func (th *Thread) FreeStack(mark uint64) {
	th.emit(TraceFreeStack, mark, 0, 0)
	th.stackBump = mark
}

// Malloc allocates size bytes (plus the detector's pad) and notifies the
// detector. The returned address is the object base; under a
// pointer-tagging detector it carries the object's generation tag in its
// high bits, to be stripped and checked on every use.
func (th *Thread) Malloc(size uint64) (uint64, error) {
	p := th.proc
	base, err := th.tc.Malloc(size + p.det.AllocPad())
	if err != nil {
		return 0, err
	}
	usable, _ := p.alloc.UsableSize(base)
	align, _ := p.alloc.PageAlignOf(base)
	p.det.OnAlloc(base, usable, align)
	if p.met != nil {
		p.met.mallocs.Inc(th.id)
	}
	th.emit(TraceMalloc, size, base, 0)
	if p.tagger != nil {
		base = p.tagger.TagPointer(base)
	}
	return base, nil
}

// Free releases the object at ptr. The detector's OnFree hook — where
// DangSan invalidates dangling pointers — runs before the memory is
// released, exactly as the paper's free interposition does. Invalid
// pointers (including invalidated, non-canonical ones) produce the
// allocator's "attempt to free invalid pointer" error without invoking the
// detector.
func (th *Thread) Free(ptr uint64) error {
	p := th.proc
	// Checked-dereference detectors validate the pointer being freed: a
	// stale tag or a tombstoned range here is a detected free-after-free.
	ptr, fault := p.checkAddr(ptr)
	if fault != nil {
		return fault
	}
	usable, ok := p.alloc.UsableSize(ptr)
	if !ok {
		// Let the allocator classify the failure (invalid vs double free).
		return th.tc.Free(ptr)
	}
	align, _ := p.alloc.PageAlignOf(ptr)
	p.det.OnFree(ptr, usable, align)
	if p.zeroOnFree {
		if f := p.as.Memset(ptr, 0, usable); f != nil {
			panic(f) // the object is live and mapped; cannot happen
		}
	}
	// The logical free happened above; a detector that defers frees only
	// delays the memory's reuse.
	taken := false
	var err error
	if p.deferred != nil {
		taken, err = p.deferred.OnFreeDeferred(ptr, usable, align)
	}
	if !taken && err == nil {
		err = th.tc.Free(ptr)
	}
	if err == nil {
		if p.met != nil {
			p.met.frees.Inc(th.id)
		}
		th.emit(TraceFree, ptr, 0, 0)
	}
	return err
}

// Memcpy copies n bytes within the simulated space, modelling the C memcpy
// the paper's §7 discusses: by default the copy is type-unsafe and copied
// pointers lose their tracking; with EnableMemcpyHook the detector rescans
// the destination and re-registers them.
func (th *Thread) Memcpy(dst, src, n uint64) *vmem.Fault {
	dst, f := th.proc.checkAddr(dst)
	if f != nil {
		return f
	}
	src, f = th.proc.checkAddr(src)
	if f != nil {
		return f
	}
	if f := th.proc.as.Memmove(dst, src, n); f != nil {
		return f
	}
	if th.proc.memcpyHook != nil {
		th.proc.memcpyHook.OnMemcpy(dst, src, n, th.id)
	}
	if th.proc.met != nil {
		th.proc.met.memcpys.Inc(th.id)
	}
	th.emit(TraceMemcpy, dst, src, n)
	return nil
}

// Realloc resizes the object at ptr, dispatching the three cases of the
// paper's §4.2: unchanged, resized in place (detector refreshes its
// mapping), or moved (malloc of the new object, byte copy, free of the old
// — with the detector seeing the alloc and the free, including pointer
// invalidation for the old object).
func (th *Thread) Realloc(ptr, size uint64) (uint64, error) {
	p := th.proc
	if ptr == 0 {
		return th.Malloc(size)
	}
	// Checked-dereference detectors validate the pointer being resized: a
	// stale tag or a tombstoned range is a detected use-after-free.
	ptr, fault := p.checkAddr(ptr)
	if fault != nil {
		return 0, fault
	}
	oldUsable, ok := p.alloc.UsableSize(ptr)
	if !ok {
		return 0, th.tc.Free(ptr) // surfaces the allocator's error
	}
	// A withheld object is freed: the allocator still reports it live (its
	// memory has not been returned), so without this check a realloc of a
	// freed pointer would resize dead memory, or move it and leak the copy.
	if p.deferred != nil && p.deferred.Quarantined(ptr) {
		return 0, &tcmalloc.DoubleFreeError{Addr: ptr}
	}
	padded := size + p.det.AllocPad()
	kind, err, inPlace := th.tc.TryResizeInPlace(ptr, padded)
	if err != nil {
		return 0, err
	}
	if inPlace {
		if kind == tcmalloc.ReallocInPlace {
			newUsable, _ := p.alloc.UsableSize(ptr)
			align, _ := p.alloc.PageAlignOf(ptr)
			p.det.OnReallocInPlace(ptr, oldUsable, newUsable, align)
		}
		if p.met != nil {
			p.met.reallocs.Inc(th.id)
		}
		th.emit(TraceRealloc, ptr, size, ptr)
		if p.tagger != nil {
			// The object kept its identity and tag; hand back a tagged
			// pointer just like Malloc does.
			return p.tagger.TagPointer(ptr), nil
		}
		return ptr, nil
	}
	// Move: malloc + copy + free, each visible to the detector. The copy
	// is type-unsafe (memcpy): pointers inside the buffer are copied
	// without re-registration, the known limitation of §7 shared with
	// FreeSentry and DangNULL. The trace records the move as one event.
	suppressed := th.noTrace
	th.noTrace = true
	defer func() { th.noTrace = suppressed }()
	newPtr, err := th.Malloc(size)
	if err != nil {
		return 0, err
	}
	rawNew := p.stripAddr(newPtr)
	n := oldUsable
	if padded < n {
		n = padded
	}
	newUsable, _ := p.alloc.UsableSize(rawNew)
	if newUsable < n {
		n = newUsable
	}
	if f := p.as.Memmove(rawNew, ptr, n); f != nil {
		panic(f) // both objects are live and mapped; cannot happen
	}
	if p.memcpyHook != nil {
		p.memcpyHook.OnMemcpy(rawNew, ptr, n, th.id)
	}
	if err := th.Free(ptr); err != nil {
		return 0, err
	}
	if p.met != nil {
		p.met.reallocs.Inc(th.id)
	}
	th.noTrace = suppressed
	th.emit(TraceRealloc, ptr, size, newPtr)
	return newPtr, nil
}

// StorePtr stores a pointer-typed value and notifies the detector — the
// instrumented store. The detector hook runs after the store so that a
// concurrent free observes either an unlogged old value or the logged new
// one, both reconciled at invalidation time.
// The stored value is data, not an address being used: under a tagging
// detector a tagged value round-trips through memory intact and is only
// checked when something dereferences it.
func (th *Thread) StorePtr(loc, val uint64) *vmem.Fault {
	loc, f := th.proc.checkAddr(loc)
	if f != nil {
		return f
	}
	if f := th.proc.as.StoreWord(loc, val); f != nil {
		return f
	}
	th.RegisterPtr(loc, val)
	if th.proc.met != nil {
		th.proc.met.ptrStores.Inc(th.id)
	}
	th.emit(TraceStorePtr, loc, val, 0)
	return nil
}

// RegisterPtr notifies the detector of a pointer-typed store without
// performing the store itself — the bare registerptr call, used when the
// store instruction and its instrumentation are separate (the IR
// interpreter's regptr opcode). Thread-aware detectors receive it
// through this thread's fast-path context.
func (th *Thread) RegisterPtr(loc, val uint64) {
	loc = th.proc.stripAddr(loc)
	if th.detCtx != nil {
		th.proc.threadAware.OnPtrStoreCtx(th.detCtx, loc, val)
	} else {
		th.proc.det.OnPtrStore(loc, val, th.id)
	}
}

// StoreInt stores a non-pointer word; no instrumentation (the compiler pass
// only instruments pointer-typed stores).
func (th *Thread) StoreInt(loc, val uint64) *vmem.Fault {
	loc, f := th.proc.checkAddr(loc)
	if f != nil {
		return f
	}
	if f := th.proc.as.StoreWord(loc, val); f != nil {
		return f
	}
	if th.proc.met != nil {
		th.proc.met.intStores.Inc(th.id)
	}
	th.emit(TraceStoreInt, loc, val, 0)
	return nil
}

// Load reads a word.
func (th *Thread) Load(loc uint64) (uint64, *vmem.Fault) {
	loc, f := th.proc.checkAddr(loc)
	if f != nil {
		return 0, f
	}
	if th.proc.met != nil {
		th.proc.met.loads.Inc(th.id)
	}
	return th.proc.as.LoadWord(loc)
}

// LoadNoCheck is Load without the detector's dereference check — the
// runtime half of an elided check (internal/instrument, ElideDerefChecks):
// the pass proved the address live, so only the tag strip remains.
func (th *Thread) LoadNoCheck(loc uint64) (uint64, *vmem.Fault) {
	if th.proc.met != nil {
		th.proc.met.loads.Inc(th.id)
	}
	return th.proc.as.LoadWord(th.proc.stripAddr(loc))
}

// StoreIntNoCheck is StoreInt without the detector's dereference check,
// for stores whose safety the instrumentation pass proved statically.
func (th *Thread) StoreIntNoCheck(loc, val uint64) *vmem.Fault {
	if f := th.proc.as.StoreWord(th.proc.stripAddr(loc), val); f != nil {
		return f
	}
	if th.proc.met != nil {
		th.proc.met.intStores.Inc(th.id)
	}
	th.emit(TraceStoreInt, loc, val, 0)
	return nil
}

// Deref loads the pointer stored at loc and then reads the word it points
// to — the canonical use-after-free instruction. If the pointer was
// invalidated, the second access faults with a non-canonical address that
// still reveals the original pointer bits; under a checked-dereference
// detector the second check traps first with the detector's own fault kind.
func (th *Thread) Deref(loc uint64) (uint64, *vmem.Fault) {
	loc, f := th.proc.checkAddr(loc)
	if f != nil {
		return 0, f
	}
	ptr, f := th.proc.as.LoadWord(loc)
	if f != nil {
		return 0, f
	}
	ptr, f = th.proc.checkAddr(ptr)
	if f != nil {
		return 0, f
	}
	return th.proc.as.LoadWord(ptr)
}
