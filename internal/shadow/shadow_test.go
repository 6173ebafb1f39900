package shadow

import (
	"errors"
	"math/rand"
	"sync"
	"testing"

	"dangsan/internal/vmem"
)

func TestCreateAndLookup(t *testing.T) {
	tbl := NewTable()
	base := uint64(vmem.HeapBase + 4096)
	tbl.CreateObject(base, 64, 8, 0xABCD)
	// Every interior address of the object maps to its metadata.
	for off := uint64(0); off < 64; off += 8 {
		if got := tbl.Lookup(base + off); got != 0xABCD {
			t.Fatalf("Lookup(+%d) = 0x%x, want 0xABCD", off, got)
		}
	}
	// Bytes just outside map to nothing.
	if got := tbl.Lookup(base - 8); got != 0 {
		t.Fatalf("Lookup before object = 0x%x", got)
	}
	if got := tbl.Lookup(base + 64); got != 0 {
		t.Fatalf("Lookup after object = 0x%x", got)
	}
}

func TestLookupNonHeap(t *testing.T) {
	tbl := NewTable()
	for _, addr := range []uint64{0, vmem.GlobalsBase, vmem.StacksBase, vmem.HeapBase - 8, vmem.HeapBase + vmem.HeapMax} {
		if got := tbl.Lookup(addr); got != 0 {
			t.Errorf("Lookup(0x%x) = 0x%x, want 0", addr, got)
		}
	}
}

func TestInteriorPointerRangeQuery(t *testing.T) {
	tbl := NewTable()
	// An object that is larger than its alignment covers several slots; all
	// of them must carry the metadata (the duplication the paper describes).
	base := uint64(vmem.HeapBase)
	tbl.CreateObject(base, 48, 16, 7) // 3 slots of 16 bytes
	for off := uint64(0); off < 48; off++ {
		if got := tbl.Lookup(base + off); got != 7 {
			t.Fatalf("Lookup(+%d) = %d", off, got)
		}
	}
}

func TestMultiPageObject(t *testing.T) {
	tbl := NewTable()
	base := uint64(vmem.HeapBase + 8*vmem.PageSize)
	size := uint64(3 * vmem.PageSize)
	tbl.CreateObject(base, size, vmem.PageSize, 99)
	for _, off := range []uint64{0, vmem.PageSize, 2*vmem.PageSize + 123, size - 1} {
		if got := tbl.Lookup(base + off); got != 99 {
			t.Fatalf("Lookup(+%d) = %d", off, got)
		}
	}
	tbl.ClearObject(base, size, vmem.PageSize)
	if got := tbl.Lookup(base + vmem.PageSize); got != 0 {
		t.Fatalf("after clear: %d", got)
	}
}

func TestNeighborsSharePage(t *testing.T) {
	tbl := NewTable()
	base := uint64(vmem.HeapBase)
	// Two adjacent 32-byte objects with 8-byte alignment on one page.
	tbl.CreateObject(base, 32, 8, 1)
	tbl.CreateObject(base+32, 32, 8, 2)
	if got := tbl.Lookup(base + 31); got != 1 {
		t.Fatalf("end of obj1 = %d", got)
	}
	if got := tbl.Lookup(base + 32); got != 2 {
		t.Fatalf("start of obj2 = %d", got)
	}
	// Clearing one must not affect the other.
	tbl.ClearObject(base, 32, 8)
	if got := tbl.Lookup(base + 8); got != 0 {
		t.Fatalf("cleared obj1 = %d", got)
	}
	if got := tbl.Lookup(base + 40); got != 2 {
		t.Fatalf("obj2 after clearing obj1 = %d", got)
	}
}

func TestShiftReinitOnClassChange(t *testing.T) {
	tbl := NewTable()
	base := uint64(vmem.HeapBase + 64*vmem.PageSize)
	// Page first used for 8-byte-aligned objects...
	tbl.CreateObject(base, 64, 8, 5)
	if got := tbl.Lookup(base); got != 5 {
		t.Fatal("initial mapping failed")
	}
	// ...then recycled for a large span with page alignment. The entry must
	// be re-created with the new shift and old metadata must vanish.
	tbl.CreateObject(base, vmem.PageSize, vmem.PageSize, 6)
	for _, off := range []uint64{0, 64, vmem.PageSize - 1} {
		if got := tbl.Lookup(base + off); got != 6 {
			t.Fatalf("after reinit Lookup(+%d) = %d", off, got)
		}
	}
}

func TestArenaRecycling(t *testing.T) {
	tbl := NewTable()
	base := uint64(vmem.HeapBase)
	// Flip a page between two shifts repeatedly; arena memory must not grow
	// without bound because arrays are recycled.
	tbl.CreateObject(base, 8, 8, 1)
	grew := tbl.Bytes()
	for i := 0; i < 100; i++ {
		tbl.CreateObject(base, vmem.PageSize, vmem.PageSize, 2)
		tbl.CreateObject(base, 8, 8, 1)
	}
	if tbl.Bytes() > grew+arenaSlabSize*8 {
		t.Fatalf("arena grew from %d to %d despite recycling", grew, tbl.Bytes())
	}
}

func TestConcurrentCreateLookup(t *testing.T) {
	tbl := NewTable()
	const workers = 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			// Each worker owns a distinct page to avoid logical conflicts.
			page := uint64(vmem.HeapBase) + uint64(w)*vmem.PageSize
			for i := 0; i < 2000; i++ {
				off := uint64(rng.Intn(512/8)) * 64
				meta := uint64(w*10000 + i + 1)
				tbl.CreateObject(page+off, 64, 8, meta)
				if got := tbl.Lookup(page + off + uint64(rng.Intn(64))); got != meta {
					t.Errorf("worker %d: got %d want %d", w, got, meta)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestArenaGrowsUnderLookups grows the arena past its first slab while
// another goroutine keeps resolving an early object: the slab directory a
// lock-free Lookup reads must never be torn by the growth.
func TestArenaGrowsUnderLookups(t *testing.T) {
	tbl := NewTable()
	base := uint64(vmem.HeapBase)
	tbl.CreateObject(base, 8, 8, 1)
	const pages = 1200 // 512 words each at 8-byte alignment: past 2^18 words
	done := make(chan struct{})
	go func() {
		defer close(done)
		for p := uint64(1); p < pages; p++ {
			tbl.CreateObject(base+p*vmem.PageSize, 8, 8, p+1)
		}
	}()
	for running := true; running; {
		select {
		case <-done:
			running = false
		default:
		}
		if got := tbl.Lookup(base); got != 1 {
			t.Fatalf("Lookup during growth = %d, want 1", got)
		}
	}
	for p := uint64(0); p < pages; p++ {
		if got := tbl.Lookup(base + p*vmem.PageSize + 4); got != p+1 {
			t.Fatalf("page %d: Lookup = %d, want %d", p, got, p+1)
		}
	}
}

// TestArrayStraddlesChunks: the first 8-byte-aligned page's array starts at
// index 1, so it runs across the first two backing chunks; every slot must
// still read, write and clear on its own.
func TestArrayStraddlesChunks(t *testing.T) {
	tbl := NewTable()
	base := uint64(vmem.HeapBase)
	const slots = vmem.PageSize / 8
	for s := uint64(0); s < slots; s++ {
		tbl.CreateObject(base+s*8, 8, 8, s+1)
	}
	e := tbl.roots[0].Load().entries[0].Load()
	if idx, _ := unpackEntry(e); idx>>arenaChunkBits == (idx+slots-1)>>arenaChunkBits {
		t.Fatalf("array [%d, %d) does not straddle a chunk boundary", idx, idx+slots)
	}
	for s := uint64(0); s < slots; s++ {
		if got := tbl.Lookup(base + s*8 + 3); got != s+1 {
			t.Fatalf("slot %d = %d, want %d", s, got, s+1)
		}
	}
	tbl.ClearObject(base+8, (slots-2)*8, 8) // all but the first and last
	for s := uint64(0); s < slots; s++ {
		want := uint64(0)
		if s == 0 || s == slots-1 {
			want = s + 1
		}
		if got := tbl.Lookup(base + s*8); got != want {
			t.Fatalf("after clear, slot %d = %d, want %d", s, got, want)
		}
	}
}

// TestRecycledArrayZeroed: an array handed back to a free list returns
// zeroed to its next owner.
func TestRecycledArrayZeroed(t *testing.T) {
	var a arena
	a.next = 1
	const n = 64
	idx := a.allocArray(n)
	for i := uint64(0); i < n; i++ {
		a.store(idx+i, ^uint64(0))
	}
	a.freeArray(idx, n)
	if again := a.allocArray(n); again != idx {
		t.Fatalf("free list returned %d, want recycled %d", again, idx)
	}
	for i := uint64(0); i < n; i++ {
		if v := a.load(idx + i); v != 0 {
			t.Fatalf("recycled word %d = 0x%x, want 0", i, v)
		}
	}
}

// TestBytesFollowsReservation pins Bytes to the formula it had when every
// slab was allocated in full: 2 MiB per slab the index space has reached,
// 32 KiB per leaf, 8 bytes per root, whatever chunks actually back it.
func TestBytesFollowsReservation(t *testing.T) {
	tbl := NewTable()
	const slab, leafBytes, roots = 2 << 20, 32 << 10, 4096 * 8
	check := func(step string, leaves, slabs uint64) {
		t.Helper()
		if got, want := tbl.Bytes(), slabs*slab+leaves*leafBytes+roots; got != want {
			t.Fatalf("%s: Bytes = %d, want %d", step, got, want)
		}
	}
	check("fresh", 0, 1)
	page := func(i uint64) uint64 { return vmem.HeapBase + i*vmem.PageSize }
	tbl.CreateObject(page(0), 8, 8, 1)
	check("first page", 1, 1)
	tbl.CreateObject(page(leafSize), 8, 8, 1)
	check("second leaf", 2, 1)
	// 512-word arrays from index 1: 511 of them fit in the first slab.
	for i := uint64(1); i < 510; i++ {
		tbl.CreateObject(page(i), 8, 8, 1)
	}
	if tbl.arena.next != 1+511*512 {
		t.Fatalf("after 511 arrays: next = %d", tbl.arena.next)
	}
	check("511 arrays", 2, 1)
	tbl.CreateObject(page(510), 8, 8, 1)
	check("array past 2^18 words", 2, 2)
}

// TestArenaIndexSpaceExhausts: past the last slab, page population fails
// open with ErrShadowExhausted instead of growing.
func TestArenaIndexSpaceExhausts(t *testing.T) {
	tbl := NewTable()
	tbl.arena.next = arenaMaxSlabs*arenaSlabSize - 8
	if err := tbl.CreateObject(vmem.HeapBase, 8, vmem.PageSize/8, 1); err != nil {
		t.Fatalf("last 8 words: %v", err)
	}
	if got := tbl.Lookup(vmem.HeapBase); got != 1 {
		t.Fatalf("Lookup in the last slab = %d, want 1", got)
	}
	if err := tbl.CreateObject(vmem.HeapBase+vmem.PageSize, 8, 8, 2); !errors.Is(err, ErrShadowExhausted) {
		t.Fatalf("past the cap: want ErrShadowExhausted, got %v", err)
	}
}

func TestPackUnpackEntry(t *testing.T) {
	for _, c := range []struct {
		idx   uint64
		shift uint
	}{{1, 3}, {123456, 12}, {1 << 55, 4}} {
		idx, shift := unpackEntry(packEntry(c.idx, c.shift))
		if idx != c.idx || shift != c.shift {
			t.Errorf("roundtrip (%d,%d) -> (%d,%d)", c.idx, c.shift, idx, shift)
		}
	}
}

func TestBadAlignmentPanics(t *testing.T) {
	tbl := NewTable()
	for _, align := range []uint64{0, 3, 12} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("align %d did not panic", align)
				}
			}()
			tbl.CreateObject(vmem.HeapBase, 8, align, 1)
		}()
	}
	// Misaligned base panics too.
	func() {
		defer func() {
			if recover() == nil {
				t.Error("misaligned base did not panic")
			}
		}()
		tbl.CreateObject(vmem.HeapBase+4, 8, 8, 1)
	}()
}

// Property: after creating a random set of non-overlapping objects on
// distinct pages, Lookup returns the right metadata for every interior
// offset and 0 outside.
func TestLookupProperty(t *testing.T) {
	tbl := NewTable()
	rng := rand.New(rand.NewSource(42))
	type obj struct {
		base, size, align, meta uint64
	}
	var objs []obj
	for p := 0; p < 50; p++ {
		page := uint64(vmem.HeapBase) + uint64(1000+p)*vmem.PageSize
		align := uint64(8) << uint(rng.Intn(3)) // 8, 16, 32
		size := align * uint64(1+rng.Intn(4))
		off := uint64(rng.Intn(int((vmem.PageSize-size)/align))) * align
		o := obj{page + off, size, align, uint64(p + 1)}
		tbl.CreateObject(o.base, o.size, o.align, o.meta)
		objs = append(objs, o)
	}
	for _, o := range objs {
		for i := 0; i < 8; i++ {
			off := uint64(rng.Intn(int(o.size)))
			if got := tbl.Lookup(o.base + off); got != o.meta {
				t.Fatalf("obj %+v Lookup(+%d) = %d", o, off, got)
			}
		}
	}
}

func BenchmarkLookup(b *testing.B) {
	tbl := NewTable()
	base := uint64(vmem.HeapBase)
	for i := 0; i < 1024; i++ {
		tbl.CreateObject(base+uint64(i)*64, 64, 8, uint64(i+1))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if tbl.Lookup(base+uint64(i%1024)*64+8) == 0 {
			b.Fatal("lookup failed")
		}
	}
}

func BenchmarkCreateObject(b *testing.B) {
	tbl := NewTable()
	base := uint64(vmem.HeapBase)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tbl.CreateObject(base+uint64(i%4096)*64, 64, 8, uint64(i+1))
	}
}
