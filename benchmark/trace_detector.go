package main

import (
	"fmt"
	"sync"
	"time"

	"dangsan/internal/detectors"
	"dangsan/internal/detectors/dangsan"
	"dangsan/internal/pointerlog"
	"dangsan/internal/proc"
	"dangsan/internal/shadow"
	"dangsan/internal/tcmalloc"
	"dangsan/internal/vmem"
)

// Step 1 of the traced pass: record. One recorder receives, in one global
// order, the program-side events (as proc.TraceSink), the detector hook
// calls (through tracedDetector) and the detector's own memory accesses
// (through tracedMemory). The wrappers only append arguments.

// Recorded kinds beyond the proc.Trace* event kinds.
const (
	recDetAlloc uint8 = 32 + iota // a=base b=usable size c=align
	recDetStore                   // a=loc b=val
	recDetFree                    // a=base b=usable size c=align
	recMemLoad                    // a=addr
	recMemCAS                     // a=addr b=old c=new
	recMemStore                   // a=addr b=val
)

type recorder struct {
	mu     sync.Mutex
	events []call
}

func (r *recorder) add(kind uint8, tid int32, a, b, c uint64) {
	r.mu.Lock()
	r.events = append(r.events, call{kind: kind, tid: tid, a: a, b: b, c: c})
	r.mu.Unlock()
}

// TraceEvent implements proc.TraceSink.
func (r *recorder) TraceEvent(kind uint8, tid int32, a, b, c uint64) { r.add(kind, tid, a, b, c) }

// tracedDetector wraps dangsan and records every hook call before
// forwarding it. It implements the same optional interfaces as dangsan so
// the process takes the same paths as in an untraced run.
type tracedDetector struct {
	inner *dangsan.Detector
	rec   *recorder
}

var (
	_ detectors.Detector     = (*tracedDetector)(nil)
	_ detectors.Binder       = (*tracedDetector)(nil)
	_ detectors.ThreadAware  = (*tracedDetector)(nil)
	_ detectors.DeferredFree = (*tracedDetector)(nil)
)

type tracedCtx struct {
	tid   int32
	inner detectors.ThreadContext
}

func (d *tracedDetector) Name() string          { return d.inner.Name() }
func (d *tracedDetector) AllocPad() uint64      { return d.inner.AllocPad() }
func (d *tracedDetector) MetadataBytes() uint64 { return d.inner.MetadataBytes() }

func (d *tracedDetector) Bind(mem detectors.Memory) {
	d.inner.Bind(&tracedMemory{inner: mem, rec: d.rec})
}

func (d *tracedDetector) OnAlloc(base, size, align uint64) {
	d.rec.add(recDetAlloc, -1, base, size, align)
	d.inner.OnAlloc(base, size, align)
}

func (d *tracedDetector) OnReallocInPlace(base, oldSize, newSize, align uint64) {
	d.inner.OnReallocInPlace(base, oldSize, newSize, align)
}

func (d *tracedDetector) OnFree(base, size, align uint64) {
	d.rec.add(recDetFree, -1, base, size, align)
	d.inner.OnFree(base, size, align)
}

func (d *tracedDetector) OnPtrStore(loc, val uint64, tid int32) {
	d.rec.add(recDetStore, tid, loc, val, 0)
	d.inner.OnPtrStore(loc, val, tid)
}

func (d *tracedDetector) NewThreadContext(tid int32) detectors.ThreadContext {
	return &tracedCtx{tid: tid, inner: d.inner.NewThreadContext(tid)}
}

func (d *tracedDetector) OnPtrStoreCtx(ctx detectors.ThreadContext, loc, val uint64) {
	c := ctx.(*tracedCtx)
	d.rec.add(recDetStore, c.tid, loc, val, 0)
	d.inner.OnPtrStoreCtx(c.inner, loc, val)
}

func (d *tracedDetector) BindRelease(release func(bases []uint64) (int, error)) bool {
	return d.inner.BindRelease(release)
}

func (d *tracedDetector) OnFreeDeferred(base, size, align uint64) (bool, error) {
	d.rec.add(recDetFree, -1, base, size, align)
	return d.inner.OnFreeDeferred(base, size, align)
}

func (d *tracedDetector) Quarantined(base uint64) bool { return d.inner.Quarantined(base) }
func (d *tracedDetector) DrainQuarantine()             { d.inner.DrainQuarantine() }

// tracedMemory records the detector's loads and compare-and-swaps.
type tracedMemory struct {
	inner detectors.Memory
	rec   *recorder
}

func (m *tracedMemory) LoadWord(addr uint64) (uint64, *vmem.Fault) {
	m.rec.add(recMemLoad, -1, addr, 0, 0)
	return m.inner.LoadWord(addr)
}

func (m *tracedMemory) CASWord(addr, old, new uint64) (bool, *vmem.Fault) {
	m.rec.add(recMemCAS, -1, addr, old, new)
	return m.inner.CASWord(addr, old, new)
}

func (m *tracedMemory) StoreWord(addr, val uint64) *vmem.Fault {
	m.rec.add(recMemStore, -1, addr, val, 0)
	return m.inner.StoreWord(addr, val)
}

// derivation is the recorded stream plus what replaying needs to know
// about each event: which object a stored value or a store location points
// into, whether dangsan's per-thread memo served the store, and whether
// the thread log it went to was in hash mode.
type derivation struct {
	events []call
	// Per object, by ordinal (order of OnAlloc).
	objBase, objSize []uint64
	objTid           []int32 // allocating thread
	// Per event; ordinals are stored +1 so 0 means "none".
	target   []uint32 // object the value (store) or base (alloc/free/malloc) belongs to
	locObj   []uint32 // TraceStorePtr: heap object containing the location
	memoFill []uint32 // recDetStore: index+1 of the store that filled the memo it hit
	hash     []bool   // recDetStore: the thread log was (or just went) in hash mode
}

// derive walks the stream once in recorded order, mirroring the glue in
// detectors/dangsan: a shadow table resolves values to objects, and a
// per-thread memo (same object as this thread's last logged store, no free
// since) decides which stores skip the lookup.
func derive(events []call) *derivation {
	d := &derivation{
		events:   events,
		target:   make([]uint32, len(events)),
		locObj:   make([]uint32, len(events)),
		memoFill: make([]uint32, len(events)),
		hash:     make([]bool, len(events)),
	}
	type memo struct {
		gen       uint64
		base, end uint64
		obj, fill uint32
	}
	tbl := shadow.NewTable()
	ordByBase := map[uint64]uint32{}
	memos := map[int32]*memo{}
	gen := uint64(1)
	for i, e := range events {
		switch e.kind {
		case recDetAlloc:
			ord := uint32(len(d.objBase))
			d.objBase = append(d.objBase, e.a)
			d.objSize = append(d.objSize, e.b)
			d.objTid = append(d.objTid, 0)
			if err := tbl.CreateObject(e.a, e.b, e.c, uint64(ord)+1); err == nil {
				ordByBase[e.a] = ord
				d.target[i] = ord + 1
			}
		case proc.TraceMalloc:
			if ord, ok := ordByBase[e.b]; ok {
				d.objTid[ord] = e.tid
				d.target[i] = ord + 1
			}
		case recDetStore:
			m := memos[e.tid]
			if m == nil {
				m = &memo{}
				memos[e.tid] = m
			}
			if m.obj != 0 && m.gen == gen && e.b >= m.base && e.b < m.end {
				d.target[i] = m.obj
				d.memoFill[i] = m.fill
				continue
			}
			h := uint32(tbl.Lookup(e.b))
			d.target[i] = h
			if h != 0 {
				*m = memo{gen: gen, base: d.objBase[h-1], end: d.objBase[h-1] + d.objSize[h-1], obj: h, fill: uint32(i) + 1}
			}
		case proc.TraceStorePtr:
			d.target[i] = uint32(tbl.Lookup(e.b))
			d.locObj[i] = uint32(tbl.Lookup(e.a))
		case recDetFree:
			h := uint32(tbl.Lookup(e.a))
			if h != 0 && d.objBase[h-1] == e.a {
				d.target[i] = h
				tbl.ClearObject(e.a, e.b, e.c)
				gen++
			}
		}
	}
	return d
}

// replayMemory builds a fresh address space with every page mapped that a
// recorded store, load or CAS touches.
func replayMemory(events []call) *vmem.AddressSpace {
	as := vmem.New()
	mapPage := func(addr uint64) {
		page := addr &^ (vmem.PageSize - 1)
		switch {
		case addr >= vmem.HeapBase && addr < vmem.HeapBase+vmem.HeapMax:
			as.Heap().MapPages(page, 1)
		case addr >= vmem.StacksBase && addr < vmem.StacksBase+vmem.StackSize*vmem.MaxStacks:
			as.Stacks().MapPages(page, 1)
		}
	}
	for _, e := range events {
		switch e.kind {
		case proc.TraceStorePtr, proc.TraceStoreInt, recDetStore, recMemCAS, recMemStore:
			mapPage(e.a)
		}
	}
	return as
}

// classifyHash simulates the pointer log once, in recorded order, and
// marks every registration that found (or put) its thread log in hash
// mode. The log's mode is not visible from outside, so the pass watches
// the exported counters: a conversion charges log bytes and bumps
// Snapshot().HashTables, and a log cannot convert before MaxLogEntries
// registrations.
func classifyHash(d *derivation) {
	cfg := pointerlog.DefaultConfig()
	lg := pointerlog.NewLogger(cfg)
	as := replayMemory(d.events)
	metas := make([]*pointerlog.ObjectMeta, len(d.objBase))
	handles := make([]uint64, len(d.objBase))
	count := make([]uint32, len(d.objBase))
	lastFill := map[int32]*pointerlog.ThreadLog{} // in recorded order a memo hit follows its thread's last fill
	hashed := map[uint64]bool{}                   // ordinal<<16 | tid
	var tables uint64
	for i, e := range d.events {
		ord := d.target[i]
		switch e.kind {
		case recDetAlloc:
			if ord != 0 {
				metas[ord-1], handles[ord-1], _ = lg.CreateMeta(e.a, e.b)
			}
		case recDetStore:
			_ = as.StoreWord(e.a, e.b)
			if ord == 0 || metas[ord-1] == nil {
				continue
			}
			key := uint64(ord)<<16 | uint64(uint16(e.tid))
			count[ord-1]++
			candidate := count[ord-1] > uint32(cfg.MaxLogEntries) && !hashed[key]
			var before uint64
			if candidate {
				before = lg.Stats().LogBytesTotal()
			}
			if d.memoFill[i] != 0 {
				lg.RegisterWith(lastFill[e.tid], e.a, e.tid)
			} else {
				lastFill[e.tid] = lg.Register(metas[ord-1], e.a, e.tid)
			}
			if candidate && lg.Stats().LogBytesTotal() != before {
				if n := lg.Stats().Snapshot().HashTables; n > tables {
					tables = n
					hashed[key] = true
				}
			}
			d.hash[i] = hashed[key]
		case recDetFree:
			if ord != 0 && metas[ord-1] != nil {
				lg.Invalidate(metas[ord-1], as)
				lg.ReleaseMeta(handles[ord-1])
				metas[ord-1] = nil
			}
		}
	}
	lg.Close()
}

// Step 2: replay each layer alone.

// replayVmem times the word accesses: the program's stores (and one load
// per integer store — the workloads' compute loops read each slot before
// writing it, and proc does not trace loads) and the detector's loads and
// CASes during invalidation.
func replayVmem(tr *tracer, parent, pass int, d *derivation) {
	const (
		vStore = iota
		vLoad
		vCAS
	)
	as := replayMemory(d.events)
	var prog, det []call
	for _, e := range d.events {
		switch e.kind {
		case proc.TraceStorePtr:
			prog = append(prog, call{kind: vStore, a: e.a, b: e.b})
		case proc.TraceStoreInt:
			prog = append(prog, call{kind: vLoad, a: e.a}, call{kind: vStore, a: e.a, b: e.b})
		case recMemLoad:
			det = append(det, call{kind: vLoad, a: e.a})
		case recMemCAS:
			det = append(det, call{kind: vCAS, a: e.a, b: e.b, c: e.c})
		}
	}
	store := func(batch []call) {
		for _, c := range batch {
			_ = as.StoreWord(c.a, c.b)
		}
	}
	load := func(batch []call) {
		for _, c := range batch {
			_, _ = as.LoadWord(c.a)
		}
	}
	tr.replayWindows(parent, pass, prog, []replayKind{
		vStore: {span: "vmem.prog.store_word", apply: store},
		vLoad:  {span: "vmem.prog.load_word", apply: load},
	})
	tr.replayWindows(parent, pass, det, []replayKind{
		vStore: {},
		vLoad:  {span: "vmem.det.load_word", apply: load},
		vCAS: {span: "vmem.det.cas_word",
			// The recorded CAS saw `old` in memory; put it there again.
			prepare: store,
			apply: func(batch []call) {
				for _, c := range batch {
					_, _ = as.CASWord(c.a, c.b, c.c)
				}
			}},
	})
}

// replayTcmalloc times the allocator alone: a fresh heap, one thread cache
// per recorded thread, the recorded request sizes (plus dangsan's pad), the
// size and alignment lookups proc makes around every malloc and free, and
// frees by object ordinal.
func replayTcmalloc(tr *tracer, parent, pass int, d *derivation) {
	const (
		tMalloc = iota
		tRange
		tFree
	)
	alloc := tcmalloc.New(vmem.New().Heap())
	var caches []*tcmalloc.ThreadCache // by thread id
	cacheFor := func(batch []call) {
		for _, c := range batch {
			for int(c.tid) >= len(caches) {
				caches = append(caches, alloc.NewThreadCache())
			}
		}
	}
	pad := dangsan.New().AllocPad()
	bases := make([]uint64, len(d.objBase))
	var calls []call
	for i, e := range d.events {
		ord := d.target[i]
		if ord == 0 {
			continue
		}
		switch e.kind {
		case proc.TraceMalloc:
			calls = append(calls, call{kind: tMalloc, tid: e.tid, ord: ord - 1, a: e.a + pad}, call{kind: tRange, ord: ord - 1})
		case recDetFree:
			calls = append(calls, call{kind: tRange, ord: ord - 1}, call{kind: tFree, tid: d.objTid[ord-1], ord: ord - 1})
		}
	}
	tr.replayWindows(parent, pass, calls, []replayKind{
		tMalloc: {span: "tcmalloc.malloc", prepare: cacheFor, apply: func(batch []call) {
			for _, c := range batch {
				bases[c.ord], _ = caches[c.tid].Malloc(c.a)
			}
		}},
		tRange: {span: "tcmalloc.object_range", apply: func(batch []call) {
			for _, c := range batch {
				_, _ = alloc.UsableSize(bases[c.ord])
				_, _ = alloc.PageAlignOf(bases[c.ord])
			}
		}},
		tFree: {span: "tcmalloc.free", prepare: cacheFor, apply: func(batch []call) {
			for _, c := range batch {
				_ = caches[c.tid].Free(bases[c.ord])
			}
		}},
	})
}

// replayShadow times the pointer-to-object map alone, with the calls
// dangsan makes: create on alloc, lookup on every store the memo did not
// serve and on every free, clear on free.
func replayShadow(tr *tracer, parent, pass int, d *derivation) {
	const (
		sCreate = iota
		sLookup
		sClear
	)
	tbl := shadow.NewTable()
	var calls []call
	for i, e := range d.events {
		switch e.kind {
		case recDetAlloc:
			calls = append(calls, call{kind: sCreate, ord: d.target[i], a: e.a, b: e.b, c: e.c})
		case recDetStore:
			if d.memoFill[i] == 0 {
				calls = append(calls, call{kind: sLookup, a: e.b})
			}
		case recDetFree:
			calls = append(calls, call{kind: sLookup, a: e.a})
			if d.target[i] != 0 {
				calls = append(calls, call{kind: sClear, a: e.a, b: e.b, c: e.c})
			}
		}
	}
	var sink uint64
	tr.replayWindows(parent, pass, calls, []replayKind{
		sCreate: {span: "shadow.create", apply: func(batch []call) {
			for _, c := range batch {
				_ = tbl.CreateObject(c.a, c.b, c.c, uint64(c.ord))
			}
		}},
		sLookup: {span: "shadow.lookup", apply: func(batch []call) {
			for _, c := range batch {
				sink += tbl.Lookup(c.a)
			}
		}},
		sClear: {span: "shadow.clear", apply: func(batch []call) {
			for _, c := range batch {
				tbl.ClearObject(c.a, c.b, c.c)
			}
		}},
	})
	_ = sink
}

// replayPointerlog times the pointer logger alone, against memory that
// holds the program's pointers, so free-time invalidation finds what it
// found in the recorded run. It returns the locations invalidation
// visited.
func replayPointerlog(tr *tracer, parent, pass int, d *derivation) (visited uint64) {
	const (
		pCreate = iota
		pRegister
		pRegisterHash
		pInvalidate
		pUntracked
	)
	lg := pointerlog.NewLogger(pointerlog.DefaultConfig())
	defer lg.Close()
	as := replayMemory(d.events)
	metas := make([]*pointerlog.ObjectMeta, len(d.objBase))
	handles := make([]uint64, len(d.objBase))
	var calls []call
	for i, e := range d.events {
		ord := d.target[i]
		switch e.kind {
		case recDetAlloc:
			if ord != 0 {
				calls = append(calls, call{kind: pCreate, ord: ord - 1, a: e.a, b: e.b})
			}
		case recDetStore:
			kind := uint8(pRegister)
			switch {
			case ord == 0:
				kind = pUntracked
			case d.hash[i]:
				kind = pRegisterHash
			}
			if ord != 0 {
				ord--
			}
			// c carries the store's own index (+1) and the index (+1) of the
			// store that filled the memo it hit, so the timed loop touches
			// no per-event array.
			calls = append(calls, call{kind: kind, tid: e.tid, ord: ord, a: e.a, b: e.b, c: uint64(i+1)<<32 | uint64(d.memoFill[i])})
		case recDetFree:
			if ord != 0 {
				calls = append(calls, call{kind: pInvalidate, ord: ord - 1})
			}
		}
	}
	store := func(batch []call) {
		for _, c := range batch {
			_ = as.StoreWord(c.a, c.b)
		}
	}
	// filled is a thread's most recent memo fill, kept per replayed kind:
	// what dangsan keeps in its thread context. A memo hit whose fill is
	// neither (the log converted to hash mode between the two and the
	// thread stored elsewhere in the same window) takes the slow path.
	type filled struct {
		at uint32
		tl *pointerlog.ThreadLog
	}
	var fills [2][]filled
	register := func(kind int) func(batch []call) {
		return func(batch []call) {
			mine, other := fills[kind], fills[1-kind]
			for _, c := range batch {
				if f := uint32(c.c); f != 0 {
					if mine[c.tid].at == f {
						lg.RegisterWith(mine[c.tid].tl, c.a, c.tid)
						continue
					}
					if other[c.tid].at == f {
						lg.RegisterWith(other[c.tid].tl, c.a, c.tid)
						continue
					}
				}
				mine[c.tid] = filled{at: uint32(c.c >> 32), tl: lg.Register(metas[c.ord], c.a, c.tid)}
			}
		}
	}
	prepare := func(batch []call) {
		store(batch)
		for _, c := range batch {
			for k := range fills {
				for int(c.tid) >= len(fills[k]) {
					fills[k] = append(fills[k], filled{})
				}
			}
		}
	}
	tr.replayWindows(parent, pass, calls, []replayKind{
		pCreate: {span: "pointerlog.create_meta", apply: func(batch []call) {
			for _, c := range batch {
				metas[c.ord], handles[c.ord], _ = lg.CreateMeta(c.a, c.b)
			}
		}},
		pRegister:     {span: "pointerlog.register", prepare: prepare, apply: register(0)},
		pRegisterHash: {span: "pointerlog.register_hash", prepare: prepare, apply: register(1)},
		pInvalidate: {span: "pointerlog.invalidate", apply: func(batch []call) {
			for _, c := range batch {
				lg.Invalidate(metas[c.ord], as)
				lg.ReleaseMeta(handles[c.ord])
			}
		}},
		// Stores of values outside any tracked object never reach the
		// logger, but they overwrite logged locations: keep memory honest.
		pUntracked: {prepare: store},
	})
	snap := lg.Stats().Snapshot()
	return snap.Invalidated + snap.Stale + snap.Faulted
}

// replayHooks times dangsan's three hooks on a fresh detector bound to
// memory that holds the program's pointers: the inclusive time of the
// detector layer.
func replayHooks(tr *tracer, parent, pass int, d *derivation) {
	const (
		hAlloc = iota
		hStore
		hFree
	)
	det := dangsan.New()
	defer det.Close()
	as := replayMemory(d.events)
	det.Bind(as)
	var ctxs []detectors.ThreadContext // by thread id
	var calls []call
	for _, e := range d.events {
		switch e.kind {
		case recDetAlloc:
			calls = append(calls, call{kind: hAlloc, a: e.a, b: e.b, c: e.c})
		case recDetStore:
			calls = append(calls, call{kind: hStore, tid: e.tid, a: e.a, b: e.b})
		case recDetFree:
			calls = append(calls, call{kind: hFree, a: e.a, b: e.b, c: e.c})
		}
	}
	tr.replayWindows(parent, pass, calls, []replayKind{
		hAlloc: {span: "dangsan.on_alloc", apply: func(batch []call) {
			for _, c := range batch {
				det.OnAlloc(c.a, c.b, c.c)
			}
		}},
		hStore: {span: "dangsan.on_ptr_store",
			prepare: func(batch []call) {
				for _, c := range batch {
					_ = as.StoreWord(c.a, c.b)
					for int(c.tid) >= len(ctxs) {
						ctxs = append(ctxs, det.NewThreadContext(int32(len(ctxs))))
					}
				}
			},
			apply: func(batch []call) {
				for _, c := range batch {
					det.OnPtrStoreCtx(ctxs[c.tid], c.a, c.b)
				}
			}},
		hFree: {span: "dangsan.on_free", apply: func(batch []call) {
			for _, c := range batch {
				det.OnFree(c.a, c.b, c.c)
			}
		}},
	})
}

// replayProc times proc's three hooked operations on a fresh process under
// dangsan, inclusive of everything below. Addresses are translated from
// the recorded objects to the replayed ones, so the replay does not depend
// on the allocator returning the recorded addresses (with two threads it
// does not).
func replayProc(tr *tracer, parent, pass int, d *derivation) (errs int) {
	const (
		rEnv = iota
		rMalloc
		rStore
		rFree
	)
	p := proc.New(dangsan.New())
	defer closeDetector(p.Detector())
	var threads []*proc.Thread // by thread id; proc hands ids out densely
	bases := make([]uint64, len(d.objBase))
	var calls []call
	for i, e := range d.events {
		switch e.kind {
		case proc.TraceThreadStart, proc.TraceGlobal, proc.TraceAlloca:
			calls = append(calls, call{kind: rEnv, tid: e.tid, ord: uint32(e.kind), a: e.a})
		case proc.TraceMalloc:
			if ord := d.target[i]; ord != 0 {
				calls = append(calls, call{kind: rMalloc, tid: e.tid, ord: ord - 1, a: e.a})
			}
		case proc.TraceStorePtr:
			calls = append(calls, call{kind: rStore, tid: e.tid, ord: d.target[i], a: e.a, b: e.b, c: uint64(d.locObj[i])})
		case recDetFree:
			if ord := d.target[i]; ord != 0 {
				calls = append(calls, call{kind: rFree, tid: d.objTid[ord-1], ord: ord - 1})
			}
		}
	}
	translated := make([]call, 0, replayWindow)
	tr.replayWindows(parent, pass, calls, []replayKind{
		rEnv: {prepare: func(batch []call) {
			for _, c := range batch {
				switch uint8(c.ord) {
				case proc.TraceThreadStart:
					threads = append(threads, p.NewThread())
				case proc.TraceGlobal:
					p.AllocGlobal(c.a)
				case proc.TraceAlloca:
					threads[c.tid].Alloca(c.a)
				}
			}
		}},
		rMalloc: {span: "proc.malloc", apply: func(batch []call) {
			for _, c := range batch {
				base, err := threads[c.tid].Malloc(c.a)
				if err != nil {
					errs++
				}
				bases[c.ord] = base
			}
		}},
		rStore: {span: "proc.store_ptr",
			prepare: func(batch []call) {
				translated = translated[:0]
				for _, c := range batch {
					if c.ord != 0 {
						c.b = bases[c.ord-1] + (c.b - d.objBase[c.ord-1])
					}
					if c.c != 0 {
						c.a = bases[c.c-1] + (c.a - d.objBase[c.c-1])
					}
					translated = append(translated, c)
				}
			},
			apply: func([]call) {
				for _, c := range translated {
					if f := threads[c.tid].StorePtr(c.a, c.b); f != nil {
						errs++
					}
				}
			}},
		rFree: {span: "proc.free", apply: func(batch []call) {
			for _, c := range batch {
				if err := threads[c.tid].Free(bases[c.ord]); err != nil {
					errs++
				}
			}
		}},
	})
	return errs
}

// traceDetectorWorkload is the traced pass of a detector workload: the
// untraced root time, the recorded run, the per-layer replays, the other
// backends on the same inputs, and the self-time arithmetic.
func traceDetectorWorkload(tr *tracer, inputs []detectorInput, threads int, res *workloadResult) {
	// Root: the same inputs, untraced. Every layer's time is a share of it.
	var rootS, baseS []float64
	for i := 0; i < 3; i++ {
		b, berrs := timePass(inputs, newBaseline)
		r, rerrs := timePass(inputs, newDangSan)
		for _, err := range append(berrs, rerrs...) {
			res.fail(err.Error())
		}
		baseS, rootS = append(baseS, b), append(rootS, r)
	}
	root := median(rootS)

	var tracedS float64
	var stats pointerlog.Snapshot
	var metadata, shadowBytes, visited, visitedNow uint64
	for pass, in := range inputs {
		rec := &recorder{}
		inner := dangsan.New()
		p := proc.New(&tracedDetector{inner: inner, rec: rec})
		p.SetTracer(rec)
		start := time.Now()
		err := in.Run(p)
		p.Quiesce()
		end := time.Now()
		tracedS += end.Sub(start).Seconds()
		parent := tr.add("workload."+in.Name, 0, pass, 1, start, end)
		if err != nil {
			res.fail(fmt.Sprintf("traced %s: %v", in.Name, err))
		}
		res.Attempted += uint64(len(rec.events))

		s := inner.Stats()
		stats.Registered += s.Registered
		stats.Duplicates += s.Duplicates
		stats.HashTables += s.HashTables
		stats.Invalidated += s.Invalidated
		stats.Stale += s.Stale
		stats.LogBytes += s.LogBytes
		stats.LogBytesSpilled += s.LogBytesSpilled
		if m := inner.MetadataBytes(); m > metadata {
			metadata = m
			shadowBytes = m - s.LogBytes
		}
		inner.Close()

		d := derive(rec.events)
		classifyHash(d)
		replayVmem(tr, parent, pass, d)
		replayTcmalloc(tr, parent, pass, d)
		// The three replays dangsan's self time is the difference of.
		tr.bestOf(2, func(sub *tracer) { replayShadow(sub, parent, pass, d) })
		tr.bestOf(2, func(sub *tracer) { visitedNow = replayPointerlog(sub, parent, pass, d) })
		visited += visitedNow
		tr.bestOf(2, func(sub *tracer) { replayHooks(sub, parent, pass, d) })
		if n := replayProc(tr, parent, pass, d); n > 0 {
			res.fail(fmt.Sprintf("proc replay of %s: %d operations failed", in.Name, n))
		}
	}

	// The replays run on one thread; with more workload threads their CPU
	// time overlaps in the root's wall time.
	wall := func(names ...string) float64 { return tr.busy(names...) / float64(threads) }
	vmemProg := wall("vmem.prog.store_word", "vmem.prog.load_word")
	vmemDet := wall("vmem.det.load_word", "vmem.det.cas_word")
	tcm := wall("tcmalloc.malloc", "tcmalloc.free", "tcmalloc.object_range")
	shd := wall("shadow.create", "shadow.lookup", "shadow.clear")
	plog := wall("pointerlog.create_meta", "pointerlog.register", "pointerlog.register_hash", "pointerlog.invalidate")
	hooks := wall("dangsan.on_alloc", "dangsan.on_ptr_store", "dangsan.on_free")
	selfs := map[string]float64{
		"proc":       root - hooks - tcm - vmemProg,
		"dangsan":    hooks - shd - plog,
		"pointerlog": plog - vmemDet,
	}
	minSelf := 0.0
	for _, s := range selfs {
		if s < minSelf {
			minSelf = s
		}
	}

	res.layer("vmem.load_word_ns", tr.nsPerCall("vmem.prog.load_word", "vmem.det.load_word"))
	res.layer("vmem.store_word_ns", tr.nsPerCall("vmem.prog.store_word"))
	res.layer("vmem.cas_word_ns", tr.nsPerCall("vmem.det.cas_word"))
	res.layer("vmem.busy_s", vmemProg+vmemDet)
	res.layer("tcmalloc.malloc_ns", tr.nsPerCall("tcmalloc.malloc"))
	res.layer("tcmalloc.free_ns", tr.nsPerCall("tcmalloc.free"))
	res.layer("tcmalloc.object_range_ns", tr.nsPerCall("tcmalloc.object_range"))
	res.layer("tcmalloc.busy_s", tcm)
	res.layer("shadow.lookup_ns", tr.nsPerCall("shadow.lookup"))
	res.layer("shadow.create_ns", tr.nsPerCall("shadow.create"))
	res.layer("shadow.clear_ns", tr.nsPerCall("shadow.clear"))
	res.layer("shadow.busy_s", shd)
	res.layer("shadow.bytes", float64(shadowBytes))
	res.layer("pointerlog.register_ns", tr.nsPerCall("pointerlog.register"))
	res.layer("pointerlog.register_hash_ns", tr.nsPerCall("pointerlog.register_hash"))
	res.layer("pointerlog.create_meta_ns", tr.nsPerCall("pointerlog.create_meta"))
	if visited > 0 {
		res.layer("pointerlog.invalidate_ns_per_loc", tr.busy("pointerlog.invalidate")*1e9/float64(visited))
	}
	res.layer("pointerlog.busy_s", plog)
	recordLogStats(res, stats)
	res.layer("detectors.dangsan.on_ptr_store_ns", tr.nsPerCall("dangsan.on_ptr_store"))
	res.layer("detectors.dangsan.on_alloc_ns", tr.nsPerCall("dangsan.on_alloc"))
	res.layer("detectors.dangsan.on_free_ns", tr.nsPerCall("dangsan.on_free"))
	res.layer("detectors.dangsan.self_s", selfs["dangsan"])
	res.layer("detectors.dangsan.metadata_bytes", float64(metadata))
	res.layer("detectors.dangsan.slowdown", root/median(baseS))
	res.layer("detectors.baseline.run_s", median(baseS))
	res.layer("proc.store_ptr_ns", tr.nsPerCall("proc.store_ptr"))
	res.layer("proc.malloc_ns", tr.nsPerCall("proc.malloc"))
	res.layer("proc.free_ns", tr.nsPerCall("proc.free"))
	res.layer("proc.self_s", selfs["proc"])
	res.layer("trace.root_s", root)
	res.layer("trace.overhead_share", tracedS/root-1)
	res.layer("trace.min_self_s", minSelf)

	if threads == 1 {
		for _, b := range otherBackends {
			s, errs := timePass(inputs, b.New)
			peak, _, ferrs := footprintPass(inputs, b.New)
			for _, err := range append(errs, ferrs...) {
				res.fail(b.Name + ": " + err.Error())
			}
			res.layer("detectors."+b.Name+".run_s", s)
			res.layer("detectors."+b.Name+".footprint_bytes", float64(peak))
		}
	}
	res.Notes = append(res.Notes, fmt.Sprintf(
		"self times at traced size (root %.4fs): proc %.4f, tcmalloc %.4f, vmem %.4f, dangsan %.4f, shadow %.4f, pointerlog %.4f",
		root, selfs["proc"], tcm, vmemProg+vmemDet, selfs["dangsan"], shd, selfs["pointerlog"]),
		fmt.Sprintf("alloc/free path (tcmalloc + shadow create/clear + pointerlog create_meta/invalidate) %.1f%% of root, store path (shadow lookup + pointerlog register) %.1f%%",
			100*(tcm+wall("shadow.create", "shadow.clear", "pointerlog.create_meta", "pointerlog.invalidate"))/root,
			100*wall("shadow.lookup", "pointerlog.register", "pointerlog.register_hash")/root))
}

// recordLogStats records the pointer-log counters of the run.
func recordLogStats(res *workloadResult, s pointerlog.Snapshot) {
	res.layer("pointerlog.registered", float64(s.Registered))
	res.layer("pointerlog.duplicates", float64(s.Duplicates))
	res.layer("pointerlog.hash_tables", float64(s.HashTables))
	res.layer("pointerlog.invalidated", float64(s.Invalidated))
	res.layer("pointerlog.stale", float64(s.Stale))
	if walked := s.Invalidated + s.Stale; walked > 0 {
		res.layer("pointerlog.useful_walk_share", float64(s.Invalidated)/float64(walked))
	}
	res.layer("pointerlog.log_bytes", float64(s.LogBytes))
	res.layer("pointerlog.spilled_bytes", float64(s.LogBytesSpilled))
}
