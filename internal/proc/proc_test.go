package proc_test

import (
	"errors"
	"sync"
	"testing"

	"dangsan/internal/detectors"
	"dangsan/internal/detectors/dangsan"
	"dangsan/internal/pointerlog"
	"dangsan/internal/proc"
	"dangsan/internal/tcmalloc"
	"dangsan/internal/vmem"
)

func TestBaselineMallocStoreFree(t *testing.T) {
	p := proc.New(detectors.None{})
	th := p.NewThread()
	obj, err := th.Malloc(64)
	if err != nil {
		t.Fatal(err)
	}
	slot := p.AllocGlobal(8)
	if f := th.StorePtr(slot, obj); f != nil {
		t.Fatal(f)
	}
	if err := th.Free(obj); err != nil {
		t.Fatal(err)
	}
	// Baseline: the dangling pointer survives untouched (the vulnerability).
	if v, f := th.Load(slot); f != nil || v != obj {
		t.Fatalf("baseline modified the dangling pointer: 0x%x, %v", v, f)
	}
}

func TestDangSanInvalidatesOnFree(t *testing.T) {
	d := dangsan.New()
	p := proc.New(d)
	th := p.NewThread()

	obj, err := th.Malloc(64)
	if err != nil {
		t.Fatal(err)
	}
	slotA := p.AllocGlobal(8)
	slotB := th.Alloca(8) // stack-resident pointer: DangSan tracks it too
	heapHolder, _ := th.Malloc(8)

	th.StorePtr(slotA, obj)
	th.StorePtr(slotB, obj+16) // interior pointer
	th.StorePtr(heapHolder, obj)

	if err := th.Free(obj); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		loc  uint64
		orig uint64
	}{
		{"global", slotA, obj},
		{"stack", slotB, obj + 16},
		{"heap", heapHolder, obj},
	} {
		v, f := th.Load(c.loc)
		if f != nil {
			t.Fatalf("%s: %v", c.name, f)
		}
		if v != c.orig|pointerlog.InvalidBit {
			t.Errorf("%s pointer = 0x%x, want 0x%x", c.name, v, c.orig|pointerlog.InvalidBit)
		}
		// Dereferencing faults with a non-canonical address.
		if _, f := th.Deref(c.loc); f == nil || f.Kind != vmem.FaultNonCanonical {
			t.Errorf("%s deref: %v, want non-canonical fault", c.name, f)
		}
	}
	s := d.Stats()
	if s.Invalidated != 3 {
		t.Fatalf("invalidated = %d, want 3 (stats %+v)", s.Invalidated, s)
	}
}

func TestDangSanDoubleFreeAborts(t *testing.T) {
	// The OpenSSL CVE-2010-2939 shape: a pointer slot is freed through
	// twice. DangSan turns the second free into an allocator abort on an
	// 0x8000... address instead of heap corruption.
	d := dangsan.New()
	p := proc.New(d)
	th := p.NewThread()
	obj, _ := th.Malloc(128)
	slot := p.AllocGlobal(8)
	th.StorePtr(slot, obj)

	ptr, _ := th.Load(slot)
	if err := th.Free(ptr); err != nil {
		t.Fatal(err)
	}
	// Second free reads the (now invalidated) pointer from memory.
	ptr2, _ := th.Load(slot)
	err := th.Free(ptr2)
	var inv *tcmalloc.InvalidFreeError
	if !errors.As(err, &inv) {
		t.Fatalf("second free: %v", err)
	}
	if inv.Addr != obj|pointerlog.InvalidBit {
		t.Fatalf("abort address 0x%x, want 0x%x", inv.Addr, obj|pointerlog.InvalidBit)
	}
}

func TestDangSanPointerOverwriteIsStale(t *testing.T) {
	d := dangsan.New()
	p := proc.New(d)
	th := p.NewThread()
	objA, _ := th.Malloc(64)
	objB, _ := th.Malloc(64)
	slot := p.AllocGlobal(8)
	th.StorePtr(slot, objA)
	th.StorePtr(slot, objB) // overwrites; objA's log entry is now stale
	if err := th.Free(objA); err != nil {
		t.Fatal(err)
	}
	if v, _ := th.Load(slot); v != objB {
		t.Fatalf("pointer to objB clobbered: 0x%x", v)
	}
	if s := d.Stats(); s.Stale != 1 {
		t.Fatalf("stale = %d, want 1", s.Stale)
	}
	// Freeing objB invalidates the slot.
	th.Free(objB)
	if v, _ := th.Load(slot); v != objB|pointerlog.InvalidBit {
		t.Fatalf("slot after objB free: 0x%x", v)
	}
}

func TestDangSanReallocCases(t *testing.T) {
	d := dangsan.New()
	p := proc.New(d)
	th := p.NewThread()

	// Case 1: same storage — pointers stay valid.
	obj, _ := th.Malloc(100)
	slot := p.AllocGlobal(8)
	th.StorePtr(slot, obj)
	same, err := th.Realloc(obj, 101)
	if err != nil || same != obj {
		t.Fatalf("case1: 0x%x, %v", same, err)
	}
	if v, _ := th.Load(slot); v != obj {
		t.Fatal("case1 invalidated pointers")
	}

	// Case 3: move — pointers to the old object are invalidated.
	moved, err := th.Realloc(obj, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if moved == obj {
		t.Fatal("expected a move")
	}
	if v, _ := th.Load(slot); v != obj|pointerlog.InvalidBit {
		t.Fatalf("case3: old pointer = 0x%x", v)
	}

	// Case 2: in-place grow of a large object — pointer stays valid, and a
	// pointer into the grown tail is tracked afterwards.
	th.StorePtr(slot, moved)
	grown, err := th.Realloc(moved, 1<<21)
	if err != nil {
		t.Fatal(err)
	}
	if grown != moved {
		t.Skip("heap layout prevented in-place growth")
	}
	tail := p.AllocGlobal(8)
	th.StorePtr(tail, grown+1<<20+64) // inside the newly grown region
	if err := th.Free(grown); err != nil {
		t.Fatal(err)
	}
	if v, _ := th.Load(slot); v&pointerlog.InvalidBit == 0 {
		t.Fatalf("pointer to grown object not invalidated: 0x%x", v)
	}
	if v, _ := th.Load(tail); v&pointerlog.InvalidBit == 0 {
		t.Fatalf("pointer into grown tail not invalidated: 0x%x", v)
	}
}

// A realloc move copies the buffer type-unsafely: a pointer stored inside
// it is copied without being registered at its new location, so freeing
// its target leaves the copy dangling and untouched — the §7 limitation
// shared with FreeSentry and DangNULL.
func TestMemcpyUntrackedByDefault(t *testing.T) {
	p := proc.New(dangsan.New())
	th := p.NewThread()
	target, _ := th.Malloc(64)
	buf, _ := th.Malloc(64)
	th.StorePtr(buf, target) // pointer stored inside the buffer
	moved, err := th.Realloc(buf, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if moved == buf {
		t.Fatal("realloc did not move")
	}
	th.Free(target)
	if v, _ := th.Load(moved); v != target {
		t.Fatalf("pointer inside moved buffer = 0x%x, want untouched dangling 0x%x", v, target)
	}
	th.Free(moved)
}

func TestDangSanStoreOfUntrackedValues(t *testing.T) {
	d := dangsan.New()
	p := proc.New(d)
	th := p.NewThread()
	slot := p.AllocGlobal(8)
	// NULL, globals and stack addresses are not heap objects: stores cost a
	// lookup but register nothing.
	th.StorePtr(slot, 0)
	th.StorePtr(slot, p.AllocGlobal(8))
	th.StorePtr(slot, th.Alloca(8))
	if s := d.Stats(); s.Registered != 0 {
		t.Fatalf("registered = %d, want 0", s.Registered)
	}
}

func TestDangSanIntegerStoreNotTracked(t *testing.T) {
	d := dangsan.New()
	p := proc.New(d)
	th := p.NewThread()
	obj, _ := th.Malloc(64)
	slot := p.AllocGlobal(8)
	// An integer that happens to equal a live object address, stored via
	// StoreInt (non-pointer type): never instrumented, never invalidated.
	th.StoreInt(slot, obj)
	th.Free(obj)
	if v, _ := th.Load(slot); v != obj {
		t.Fatalf("integer store modified: 0x%x", v)
	}
}

func TestDangSanHeapReuseAfterInvalidation(t *testing.T) {
	d := dangsan.New()
	p := proc.New(d)
	th := p.NewThread()
	slot := p.AllocGlobal(8)
	// Free an object, let the allocator recycle its slot, and verify the
	// new object is tracked independently.
	a, _ := th.Malloc(64)
	th.StorePtr(slot, a)
	th.Free(a)
	b, _ := th.Malloc(64)
	if a != b {
		t.Skip("allocator did not recycle the slot")
	}
	slot2 := p.AllocGlobal(8)
	th.StorePtr(slot2, b)
	th.Free(b)
	if v, _ := th.Load(slot2); v != b|pointerlog.InvalidBit {
		t.Fatalf("recycled object's pointer not invalidated: 0x%x", v)
	}
	// The first slot was already invalid and must stay as it was.
	if v, _ := th.Load(slot); v != a|pointerlog.InvalidBit {
		t.Fatalf("old invalid pointer changed: 0x%x", v)
	}
}

func TestDangSanMultithreaded(t *testing.T) {
	d := dangsan.New()
	p := proc.New(d)

	// A shared object each thread stores pointers to, then one thread
	// frees: all threads' copies must be invalidated.
	main := p.NewThread()
	shared, _ := main.Malloc(256)

	const workers = 8
	slots := make([]uint64, workers)
	for i := range slots {
		slots[i] = p.AllocGlobal(8)
	}
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			th := p.NewThread()
			defer th.Exit()
			// Each worker also churns private objects.
			for j := 0; j < 200; j++ {
				o, err := th.Malloc(32)
				if err != nil {
					t.Error(err)
					return
				}
				priv := th.Alloca(8)
				th.StorePtr(priv, o)
				if err := th.Free(o); err != nil {
					t.Error(err)
					return
				}
			}
			th.StorePtr(slots[i], shared+uint64(i*8))
		}(i)
	}
	wg.Wait()
	if n := d.Stats().Invalidated; n == 0 {
		t.Fatal("no private pointers invalidated")
	}
	if err := main.Free(shared); err != nil {
		t.Fatal(err)
	}
	for i, slot := range slots {
		v, _ := main.Load(slot)
		if v != (shared+uint64(i*8))|pointerlog.InvalidBit {
			t.Fatalf("worker %d pointer = 0x%x", i, v)
		}
	}
}

func TestMemoryFootprintGrowsWithTracking(t *testing.T) {
	d := dangsan.New()
	p := proc.New(d)
	th := p.NewThread()
	before := p.MemoryFootprint()
	objs := make([]uint64, 1000)
	slotBase := p.AllocGlobal(8 * 1000)
	for i := range objs {
		objs[i], _ = th.Malloc(64)
		th.StorePtr(slotBase+uint64(i*8), objs[i])
	}
	after := p.MemoryFootprint()
	if after <= before {
		t.Fatalf("footprint did not grow: %d -> %d", before, after)
	}
	if d.MetadataBytes() == 0 {
		t.Fatal("no metadata accounted")
	}
}

func TestStackLifecycle(t *testing.T) {
	p := proc.New(detectors.None{})
	th := p.NewThread()
	mark := th.StackMark()
	a := th.Alloca(64)
	if f := th.StoreInt(a, 1); f != nil {
		t.Fatal(f)
	}
	th.FreeStack(mark)
	b := th.Alloca(64)
	if a != b {
		t.Fatalf("stack not reused after pop: 0x%x vs 0x%x", a, b)
	}
	th.Exit()
	// After exit the stack is unmapped.
	if _, f := p.AddressSpace().LoadWord(a); f == nil {
		t.Fatal("stack readable after thread exit")
	}
}
