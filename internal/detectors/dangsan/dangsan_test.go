package dangsan

import (
	"testing"

	"dangsan/internal/faultinject"
	"dangsan/internal/pointerlog"
	"dangsan/internal/vmem"
)

// newBound builds a detector bound to a fresh address space with the first
// heap pages mapped, bypassing proc for focused unit tests.
func newBound(t *testing.T) (*Detector, *vmem.AddressSpace) {
	t.Helper()
	d := New()
	as := vmem.New()
	d.Bind(as)
	as.Heap().MapPages(vmem.HeapBase, 16)
	return d, as
}

func TestAllocStoreFreeWiring(t *testing.T) {
	d, as := newBound(t)
	base := uint64(vmem.HeapBase)
	d.OnAlloc(base, 64, 8)

	loc := uint64(vmem.GlobalsBase + 0x100)
	as.StoreWord(loc, base+8)
	d.OnPtrStore(loc, base+8, 0)

	d.OnFree(base, 64, 8)
	if v, _ := as.LoadWord(loc); v != (base+8)|pointerlog.InvalidBit {
		t.Fatalf("loc = 0x%x", v)
	}
	// A second free of the same range is a no-op (shadow cleared).
	d.OnFree(base, 64, 8)
	s := d.Stats()
	if s.Invalidated != 1 {
		t.Fatalf("stats: %+v", s)
	}
}

func TestFreeOfUntrackedBase(t *testing.T) {
	d, _ := newBound(t)
	// Must not panic, must not count anything.
	d.OnFree(vmem.HeapBase+4096, 64, 8)
	if s := d.Stats(); s.Invalidated != 0 {
		t.Fatalf("stats: %+v", s)
	}
}

func TestReallocShrinkClearsTail(t *testing.T) {
	d, as := newBound(t)
	base := uint64(vmem.HeapBase)
	d.OnAlloc(base, 4*vmem.PageSize, vmem.PageSize)

	// A pointer into the tail that will be shrunk away.
	tailLoc := uint64(vmem.GlobalsBase + 0x10)
	tailPtr := base + 3*vmem.PageSize + 8
	as.StoreWord(tailLoc, tailPtr)
	d.OnPtrStore(tailLoc, tailPtr, 0)

	d.OnReallocInPlace(base, 4*vmem.PageSize, 2*vmem.PageSize, vmem.PageSize)
	// Values in the abandoned tail no longer resolve to the object.
	headLoc := uint64(vmem.GlobalsBase + 0x20)
	as.StoreWord(headLoc, base+8)
	d.OnPtrStore(headLoc, base+8, 0)
	d.OnPtrStore(tailLoc, tailPtr, 0) // should find no object now

	d.OnFree(base, 2*vmem.PageSize, vmem.PageSize)
	if v, _ := as.LoadWord(headLoc); v&pointerlog.InvalidBit == 0 {
		t.Fatalf("head pointer not invalidated: 0x%x", v)
	}
	if v, _ := as.LoadWord(tailLoc); v != tailPtr {
		t.Fatalf("tail pointer should be untouched garbage: 0x%x", v)
	}
}

func TestReallocGrowExtendsMapping(t *testing.T) {
	d, as := newBound(t)
	base := uint64(vmem.HeapBase)
	d.OnAlloc(base, 2*vmem.PageSize, vmem.PageSize)
	d.OnReallocInPlace(base, 2*vmem.PageSize, 4*vmem.PageSize, vmem.PageSize)

	loc := uint64(vmem.GlobalsBase + 0x30)
	grownPtr := base + 3*vmem.PageSize
	as.StoreWord(loc, grownPtr)
	d.OnPtrStore(loc, grownPtr, 0)
	d.OnFree(base, 4*vmem.PageSize, vmem.PageSize)
	if v, _ := as.LoadWord(loc); v != grownPtr|pointerlog.InvalidBit {
		t.Fatalf("pointer into grown region = 0x%x", v)
	}
}

func TestOnMemcpyUnalignedEdges(t *testing.T) {
	d, as := newBound(t)
	base := uint64(vmem.HeapBase)
	d.OnAlloc(base, 64, 8)

	src := uint64(vmem.GlobalsBase + 0x100)
	dst := uint64(vmem.GlobalsBase + 0x200)
	as.StoreWord(src+8, base)
	as.Memmove(dst+3, src, 24) // unaligned destination
	// OnMemcpy must only consider aligned words inside [dst+3, dst+27).
	d.OnMemcpy(dst+3, src, 24, 0)
	// The aligned word dst+8 holds a misaligned fragment, not base; the
	// aligned word dst+16 holds bytes of base shifted — neither should
	// match the object unless bytes happen to align. The call must simply
	// not panic and not corrupt stats badly.
	_ = d.Stats()
}

func TestMetadataBytesGrows(t *testing.T) {
	d, as := newBound(t)
	before := d.MetadataBytes()
	base := uint64(vmem.HeapBase)
	d.OnAlloc(base, 64, 8)
	for i := 0; i < 100; i++ {
		loc := vmem.GlobalsBase + uint64(i)*0x300
		as.StoreWord(loc, base)
		d.OnPtrStore(loc, base, 0)
	}
	if d.MetadataBytes() <= before {
		t.Fatal("metadata accounting did not grow")
	}
}

func TestThreadContextFastPathHit(t *testing.T) {
	d, as := newBound(t)
	base := uint64(vmem.HeapBase)
	d.OnAlloc(base, 4096, 8)
	ctx := d.NewThreadContext(0)

	loc1 := uint64(vmem.GlobalsBase + 0x100)
	as.StoreWord(loc1, base+8)
	d.OnPtrStoreCtx(ctx, loc1, base+8)
	c := ctx.(*threadCtx)
	if c.tl == nil || c.base != base || c.end != base+4096 {
		t.Fatalf("memo not filled: %+v", c)
	}
	tl := c.tl

	// Second store into the same object must take the memoized path: the
	// thread log stays the same and the registration still lands.
	loc2 := uint64(vmem.GlobalsBase + 0x900)
	as.StoreWord(loc2, base+16)
	d.OnPtrStoreCtx(ctx, loc2, base+16)
	if c.tl != tl {
		t.Fatal("memo was refilled on a hit")
	}
	if s := d.Stats(); s.Registered != 2 {
		t.Fatalf("stats: %+v", s)
	}
	d.OnFree(base, 4096, 8)
	for _, loc := range []uint64{loc1, loc2} {
		if v, _ := as.LoadWord(loc); v&pointerlog.InvalidBit == 0 {
			t.Fatalf("loc 0x%x not invalidated: 0x%x", loc, v)
		}
	}
}

func TestThreadContextDropsMemoAfterFree(t *testing.T) {
	d, as := newBound(t)
	base := uint64(vmem.HeapBase)
	d.OnAlloc(base, 64, 8)
	ctx := d.NewThreadContext(0)

	loc := uint64(vmem.GlobalsBase + 0x100)
	as.StoreWord(loc, base+8)
	d.OnPtrStoreCtx(ctx, loc, base+8)
	d.OnFree(base, 64, 8)

	// A store of a dangling value after the free must not be registered
	// against the dead memo (the shadow mapping is gone).
	loc2 := uint64(vmem.GlobalsBase + 0x200)
	as.StoreWord(loc2, base+16)
	d.OnPtrStoreCtx(ctx, loc2, base+16)
	if s := d.Stats(); s.Registered != 1 {
		t.Fatalf("dangling store was registered via stale memo: %+v", s)
	}

	// A recycled allocation at the same base must be re-resolved and
	// tracked correctly through the same context.
	d.OnAlloc(base, 64, 8)
	as.StoreWord(loc2, base+16)
	d.OnPtrStoreCtx(ctx, loc2, base+16)
	d.OnFree(base, 64, 8)
	if v, _ := as.LoadWord(loc2); v != (base+16)|pointerlog.InvalidBit {
		t.Fatalf("recycled object's pointer not invalidated: 0x%x", v)
	}
}

func TestThreadContextMissAfterShrink(t *testing.T) {
	d, as := newBound(t)
	base := uint64(vmem.HeapBase)
	d.OnAlloc(base, 4*vmem.PageSize, vmem.PageSize)
	ctx := d.NewThreadContext(0)

	// Fill the memo with the 4-page extent.
	headLoc := uint64(vmem.GlobalsBase + 0x10)
	as.StoreWord(headLoc, base+8)
	d.OnPtrStoreCtx(ctx, headLoc, base+8)

	d.OnReallocInPlace(base, 4*vmem.PageSize, 2*vmem.PageSize, vmem.PageSize)

	// A store of a pointer into the abandoned tail would pass the stale
	// memoized extent check; the generation bump must force the shadow
	// lookup, which finds nothing.
	tailLoc := uint64(vmem.GlobalsBase + 0x20)
	tailPtr := base + 3*vmem.PageSize
	as.StoreWord(tailLoc, tailPtr)
	d.OnPtrStoreCtx(ctx, tailLoc, tailPtr)

	d.OnFree(base, 2*vmem.PageSize, vmem.PageSize)
	if v, _ := as.LoadWord(headLoc); v&pointerlog.InvalidBit == 0 {
		t.Fatalf("head pointer not invalidated: 0x%x", v)
	}
	if v, _ := as.LoadWord(tailLoc); v != tailPtr {
		t.Fatalf("tail pointer should be untouched: 0x%x", v)
	}
}

// The context path and the plain path must count identically.
func TestThreadContextMatchesPlainPath(t *testing.T) {
	run := func(useCtx bool) pointerlog.Snapshot {
		d, as := newBound(t)
		ctx := d.NewThreadContext(0)
		for obj := 0; obj < 4; obj++ {
			base := vmem.HeapBase + uint64(obj)*8192
			d.OnAlloc(base, 4096, 8)
		}
		x := uint64(99)
		for i := 0; i < 20000; i++ {
			x = x*6364136223846793005 + 1442695040888963407
			base := vmem.HeapBase + (x>>33%4)*8192
			loc := vmem.GlobalsBase + (x>>13%(1<<12))*8
			val := base + x>>3%4096&^7
			as.StoreWord(loc, val)
			if useCtx {
				d.OnPtrStoreCtx(ctx, loc, val)
			} else {
				d.OnPtrStore(loc, val, 0)
			}
		}
		for obj := 0; obj < 4; obj++ {
			base := vmem.HeapBase + uint64(obj)*8192
			d.OnFree(base, 4096, 8)
		}
		return d.Stats()
	}
	plain, ctx := run(false), run(true)
	if plain != ctx {
		t.Fatalf("paths diverge:\nplain %+v\nctx   %+v", plain, ctx)
	}
}

func TestDecodeFault(t *testing.T) {
	orig := uint64(vmem.HeapBase + 0x123456)
	got, ok := pointerlog.DecodeFault(orig | pointerlog.InvalidBit)
	if !ok || got != orig {
		t.Fatalf("DecodeFault = 0x%x, %v", got, ok)
	}
	// A plain non-canonical address is not an invalidated pointer.
	if _, ok := pointerlog.DecodeFault(1 << 47); ok {
		t.Fatal("bit-47 address misdecoded as invalidated")
	}
	// A canonical address is not a fault we can decode.
	if _, ok := pointerlog.DecodeFault(orig); ok {
		t.Fatal("canonical address misdecoded")
	}
}

// Degraded reports the same coverage loss as the snapshot: objects whose
// metadata allocation failed and stores whose log block allocation failed.
func TestDegradedMatchesStats(t *testing.T) {
	d, as := newBound(t)
	plane := faultinject.New(1)
	plane.Enable(faultinject.MetaAlloc, 1, 2)
	plane.Enable(faultinject.LogBlockAlloc, 1, -1)
	d.InjectFaults(plane)
	base := uint64(vmem.HeapBase)
	for i := uint64(0); i < 4; i++ {
		d.OnAlloc(base+i*64, 64, 8)
	}
	for i := uint64(0); i < 64; i++ {
		loc := uint64(vmem.GlobalsBase) + i*8
		as.StoreWord(loc, base+3*64)
		d.OnPtrStore(loc, base+3*64, 0)
	}
	objs, dropped := d.Degraded()
	s := d.Stats()
	if objs != s.DegradedObjects || dropped != s.DroppedRegistrations {
		t.Fatalf("Degraded() = %d, %d; Stats() degraded=%d dropped=%d",
			objs, dropped, s.DegradedObjects, s.DroppedRegistrations)
	}
	if objs != 2 || dropped == 0 {
		t.Fatalf("Degraded() = %d, %d; want 2 objects and some dropped stores", objs, dropped)
	}
}
