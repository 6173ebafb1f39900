package tcmalloc

import (
	"errors"
	"math/rand"
	"sync"
	"testing"

	"dangsan/internal/sizeclass"
	"dangsan/internal/vmem"
)

func newTestAlloc() (*Allocator, *ThreadCache) {
	as := vmem.New()
	a := New(as.Heap())
	return a, a.NewThreadCache()
}

func TestMallocFreeSmall(t *testing.T) {
	a, tc := newTestAlloc()
	addr, err := tc.Malloc(24)
	if err != nil {
		t.Fatal(err)
	}
	if addr < vmem.HeapBase {
		t.Fatalf("address 0x%x below heap base", addr)
	}
	size, ok := a.UsableSize(addr)
	if !ok || size < 24 {
		t.Fatalf("UsableSize = %d, %v", size, ok)
	}
	st := a.Stats()
	if st.LiveObjects != 1 || st.LiveBytes != size {
		t.Fatalf("stats after malloc: %+v", st)
	}
	if err := tc.Free(addr); err != nil {
		t.Fatal(err)
	}
	st = a.Stats()
	if st.LiveObjects != 0 || st.LiveBytes != 0 {
		t.Fatalf("stats after free: %+v", st)
	}
}

func TestMallocZeroSize(t *testing.T) {
	_, tc := newTestAlloc()
	a1, err := tc.Malloc(0)
	if err != nil {
		t.Fatal(err)
	}
	a2, err := tc.Malloc(0)
	if err != nil {
		t.Fatal(err)
	}
	if a1 == a2 {
		t.Fatal("two live zero-size allocations share an address")
	}
}

func TestMallocAlignment(t *testing.T) {
	a, tc := newTestAlloc()
	for _, size := range []uint64{1, 8, 13, 100, 1000, 5000, 100000, 300000} {
		addr, err := tc.Malloc(size)
		if err != nil {
			t.Fatal(err)
		}
		align, ok := a.PageAlignOf(addr)
		if !ok {
			t.Fatalf("PageAlignOf(0x%x) failed", addr)
		}
		if addr%align != 0 {
			t.Errorf("size %d: addr 0x%x not aligned to %d", size, addr, align)
		}
	}
}

func TestFreeInvalidPointer(t *testing.T) {
	_, tc := newTestAlloc()
	addr, err := tc.Malloc(64)
	if err != nil {
		t.Fatal(err)
	}
	var invErr *InvalidFreeError

	// The DangSan signature case: freeing an invalidated (MSB-set) pointer.
	if err := tc.Free(addr | 1<<63); !errors.As(err, &invErr) {
		t.Fatalf("free of invalidated pointer: %v", err)
	}
	if invErr.Addr != addr|1<<63 {
		t.Fatalf("error address = 0x%x", invErr.Addr)
	}
	// Interior pointer.
	if err := tc.Free(addr + 8); !errors.As(err, &invErr) {
		t.Fatalf("free of interior pointer: %v", err)
	}
	// Never-allocated heap address.
	if err := tc.Free(vmem.HeapBase + 1<<30); !errors.As(err, &invErr) {
		t.Fatalf("free of unreserved address: %v", err)
	}
	// Non-heap address.
	if err := tc.Free(vmem.GlobalsBase); !errors.As(err, &invErr) {
		t.Fatalf("free of globals address: %v", err)
	}
	// The real object is still free-able.
	if err := tc.Free(addr); err != nil {
		t.Fatal(err)
	}
}

func TestDoubleFree(t *testing.T) {
	_, tc := newTestAlloc()
	addr, err := tc.Malloc(64)
	if err != nil {
		t.Fatal(err)
	}
	if err := tc.Free(addr); err != nil {
		t.Fatal(err)
	}
	var dfErr *DoubleFreeError
	if err := tc.Free(addr); !errors.As(err, &dfErr) {
		t.Fatalf("double free: %v", err)
	}
}

func TestDoubleFreeLarge(t *testing.T) {
	_, tc := newTestAlloc()
	addr, err := tc.Malloc(1 << 20)
	if err != nil {
		t.Fatal(err)
	}
	if err := tc.Free(addr); err != nil {
		t.Fatal(err)
	}
	// After freeSpan the range is spanFree; a second free must fail (either
	// kind of error is acceptable depending on coalescing).
	if err := tc.Free(addr); err == nil {
		t.Fatal("double free of large object succeeded")
	}
}

func TestLargeAlloc(t *testing.T) {
	a, tc := newTestAlloc()
	size := uint64(sizeclass.MaxSmallSize + 1)
	addr, err := tc.Malloc(size)
	if err != nil {
		t.Fatal(err)
	}
	if addr%vmem.PageSize != 0 {
		t.Fatalf("large alloc not page aligned: 0x%x", addr)
	}
	usable, ok := a.UsableSize(addr)
	if !ok || usable < size {
		t.Fatalf("usable = %d", usable)
	}
	if err := tc.Free(addr); err != nil {
		t.Fatal(err)
	}
}

func TestReallocSame(t *testing.T) {
	a, tc := newTestAlloc()
	addr, _ := tc.Malloc(100)
	usable, _ := a.UsableSize(addr)
	kind, err, ok := tc.TryResizeInPlace(addr, 101)
	if err != nil || kind != ReallocSame || !ok {
		t.Fatalf("TryResizeInPlace(100->101) = %v, %v, %v", kind, err, ok)
	}
	if got, _ := a.UsableSize(addr); got != usable {
		t.Fatalf("usable = %d, want %d", got, usable)
	}
	// A size the class cannot hold is left to the caller's move, and the
	// object stays as it was.
	if kind, err, ok := tc.TryResizeInPlace(addr, 4096); err != nil || ok {
		t.Fatalf("TryResizeInPlace(100->4096) = %v, %v, %v; want a move", kind, err, ok)
	}
	if got, live := a.UsableSize(addr); !live || got != usable {
		t.Fatalf("object after a declined resize: usable %d, live %v", got, live)
	}
}

func TestReallocLargeInPlace(t *testing.T) {
	a, tc := newTestAlloc()
	// Allocate a large object; the bump-pointer heap leaves free space
	// after it (grow() rounds up to 8 pages), so an in-place grow works.
	addr, err := tc.Malloc(2 * vmem.PageSize * 100) // 200 pages
	if err != nil {
		t.Fatal(err)
	}
	// Shrink in place.
	kind, err, ok := tc.TryResizeInPlace(addr, vmem.PageSize*150)
	if err != nil || !ok || kind != ReallocInPlace {
		t.Fatalf("shrink: %v, %v, %v", kind, err, ok)
	}
	if usable, _ := a.UsableSize(addr); usable != vmem.PageSize*150 {
		t.Fatalf("usable after shrink = %d", usable)
	}
	// Grow back in place (the tail we just freed is adjacent).
	kind, err, ok = tc.TryResizeInPlace(addr, vmem.PageSize*200)
	if err != nil || !ok || kind != ReallocInPlace {
		t.Fatalf("grow: %v, %v, %v", kind, err, ok)
	}
	if err := tc.Free(addr); err != nil {
		t.Fatal(err)
	}
}

func TestReallocInvalid(t *testing.T) {
	_, tc := newTestAlloc()
	addr, _ := tc.Malloc(64)
	var invErr *InvalidFreeError
	if _, err, _ := tc.TryResizeInPlace(addr|1<<63, 128); !errors.As(err, &invErr) {
		t.Fatalf("resize of invalidated pointer: %v", err)
	}
}

func TestSpanReuseAfterFree(t *testing.T) {
	a, tc := newTestAlloc()
	// Fill and free an entire span; its pages must return to the page heap
	// and be reusable by a different size class.
	cl := sizeclass.ForClass(sizeclass.SizeToClass(64))
	addrs := make([]uint64, cl.ObjectsPerSpan*2)
	for i := range addrs {
		var err error
		addrs[i], err = tc.Malloc(64)
		if err != nil {
			t.Fatal(err)
		}
	}
	for _, addr := range addrs {
		if err := tc.Free(addr); err != nil {
			t.Fatal(err)
		}
	}
	tc.Flush()
	if err := a.heap.checkFreeLists(); err != nil {
		t.Fatal(err)
	}
	st := a.Stats()
	if st.LiveObjects != 0 {
		t.Fatalf("%d live objects after freeing all", st.LiveObjects)
	}
	if st.FreeListBytes == 0 {
		t.Fatal("no bytes returned to the page heap")
	}
}

func TestHeapCoalescing(t *testing.T) {
	a, tc := newTestAlloc()
	// Three adjacent large allocations freed in mixed order must coalesce.
	p1, _ := tc.Malloc(8 * vmem.PageSize)
	p2, _ := tc.Malloc(8 * vmem.PageSize)
	p3, _ := tc.Malloc(8 * vmem.PageSize)
	if p2 != p1+8*vmem.PageSize || p3 != p2+8*vmem.PageSize {
		t.Skip("allocations not adjacent; bump layout changed")
	}
	tc.Free(p1)
	tc.Free(p3)
	tc.Free(p2) // middle free should merge all three
	if err := a.heap.checkFreeLists(); err != nil {
		t.Fatal(err)
	}
	s := a.heap.spanOf(p1)
	if s == nil || s.state != spanFree || s.npages < 24 {
		t.Fatalf("coalesced span: %+v", s)
	}
}

func TestReleaseFreeMemoryFaults(t *testing.T) {
	as := vmem.New()
	a := New(as.Heap())
	tc := a.NewThreadCache()
	addr, _ := tc.Malloc(1 << 20)
	if f := as.StoreWord(addr, 7); f != nil {
		t.Fatal(f)
	}
	tc.Free(addr)
	released := a.ReleaseFreeMemory()
	if released == 0 {
		t.Fatal("nothing released")
	}
	// The freed object's memory is now unmapped: access faults, exactly the
	// SIGSEGV DangSan catches while scanning stale log entries.
	if _, f := as.LoadWord(addr); f == nil || f.Kind != vmem.FaultUnmapped {
		t.Fatalf("access to released memory: %v", f)
	}
	// Allocating again must remap.
	addr2, err := tc.Malloc(1 << 20)
	if err != nil {
		t.Fatal(err)
	}
	if f := as.StoreWord(addr2, 9); f != nil {
		t.Fatalf("store to recycled memory: %v", f)
	}
}

func TestOutOfMemory(t *testing.T) {
	as := vmem.New()
	a := New(as.Heap())
	tc := a.NewThreadCache()
	// Ask for more than the whole heap reservation.
	_, err := tc.Malloc(vmem.HeapMax + vmem.PageSize)
	var oom *OutOfMemoryError
	if !errors.As(err, &oom) {
		t.Fatalf("err = %v", err)
	}
}

func TestThreadCacheFlush(t *testing.T) {
	a, tc := newTestAlloc()
	addr, _ := tc.Malloc(64)
	tc.Free(addr)
	if tc.cachedBytes == 0 {
		t.Fatal("free did not land in the thread cache")
	}
	tc.Flush()
	if tc.cachedBytes != 0 {
		t.Fatal("flush left cached bytes")
	}
	_ = a
}

func TestConcurrentMallocFree(t *testing.T) {
	as := vmem.New()
	a := New(as.Heap())
	const threads = 8
	const iters = 3000
	var wg sync.WaitGroup
	for w := 0; w < threads; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			tc := a.NewThreadCache()
			rng := rand.New(rand.NewSource(seed))
			live := make([]uint64, 0, 64)
			for i := 0; i < iters; i++ {
				if len(live) > 0 && rng.Intn(2) == 0 {
					j := rng.Intn(len(live))
					if err := tc.Free(live[j]); err != nil {
						t.Error(err)
						return
					}
					live = append(live[:j], live[j+1:]...)
				} else {
					size := uint64(rng.Intn(2000) + 1)
					addr, err := tc.Malloc(size)
					if err != nil {
						t.Error(err)
						return
					}
					live = append(live, addr)
				}
			}
			for _, addr := range live {
				if err := tc.Free(addr); err != nil {
					t.Error(err)
				}
			}
			tc.Flush()
		}(int64(w))
	}
	wg.Wait()
	st := a.Stats()
	if st.LiveObjects != 0 || st.LiveBytes != 0 {
		t.Fatalf("leak after concurrent run: %+v", st)
	}
	if err := a.heap.checkFreeLists(); err != nil {
		t.Fatal(err)
	}
}

// Property: allocations never overlap while live, across random sizes.
func TestNoOverlapProperty(t *testing.T) {
	a, tc := newTestAlloc()
	rng := rand.New(rand.NewSource(7))
	type obj struct{ base, size uint64 }
	var live []obj
	for i := 0; i < 2000; i++ {
		if len(live) > 40 || (len(live) > 0 && rng.Intn(3) == 0) {
			j := rng.Intn(len(live))
			if err := tc.Free(live[j].base); err != nil {
				t.Fatal(err)
			}
			live = append(live[:j], live[j+1:]...)
			continue
		}
		size := uint64(rng.Intn(300000) + 1)
		addr, err := tc.Malloc(size)
		if err != nil {
			t.Fatal(err)
		}
		usable, _ := a.UsableSize(addr)
		for _, o := range live {
			if addr < o.base+o.size && o.base < addr+usable {
				t.Fatalf("overlap: new [0x%x,+%d) with live [0x%x,+%d)",
					addr, usable, o.base, o.size)
			}
		}
		live = append(live, obj{addr, usable})
	}
}

func BenchmarkMallocFreeSmall(b *testing.B) {
	_, tc := newTestAlloc()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		addr, err := tc.Malloc(64)
		if err != nil {
			b.Fatal(err)
		}
		if err := tc.Free(addr); err != nil {
			b.Fatal(err)
		}
	}
}
