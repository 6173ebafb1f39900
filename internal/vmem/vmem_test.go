package vmem

import (
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
)

func TestCanonical(t *testing.T) {
	cases := []struct {
		addr uint64
		want bool
	}{
		{0, true},
		{HeapBase, true},
		{1<<47 - 1, true},
		{1 << 47, false},
		{HeapBase | 1<<63, false},
		{^uint64(0), false},
	}
	for _, c := range cases {
		if got := Canonical(c.addr); got != c.want {
			t.Errorf("Canonical(0x%x) = %v, want %v", c.addr, got, c.want)
		}
	}
}

func TestSegmentMapUnmap(t *testing.T) {
	seg := NewSegment(HeapBase, 1<<24, "test")
	addr := uint64(HeapBase + 2*PageSize)

	if _, f := seg.loadWord(addr); f == nil || f.Kind != FaultUnmapped {
		t.Fatalf("load before map: got fault %v, want unmapped", f)
	}
	seg.MapPages(addr, 1)
	if got := seg.MappedBytes(); got != PageSize {
		t.Fatalf("MappedBytes = %d, want %d", got, PageSize)
	}
	if f := seg.storeWord(addr, 42); f != nil {
		t.Fatalf("store after map: %v", f)
	}
	v, f := seg.loadWord(addr)
	if f != nil || v != 42 {
		t.Fatalf("load = %d, %v; want 42, nil", v, f)
	}
	// Access one page over must still fault.
	if _, f := seg.loadWord(addr + PageSize); f == nil {
		t.Fatal("adjacent unmapped page did not fault")
	}
	seg.UnmapPages(addr, 1)
	if got := seg.MappedBytes(); got != 0 {
		t.Fatalf("MappedBytes after unmap = %d, want 0", got)
	}
	if _, f := seg.loadWord(addr); f == nil || f.Kind != FaultUnmapped {
		t.Fatalf("load after unmap: got %v, want unmapped fault", f)
	}
	// Remap must zero the page.
	seg.MapPages(addr, 1)
	if v, _ := seg.loadWord(addr); v != 0 {
		t.Fatalf("remapped page not zeroed: %d", v)
	}
}

func TestMapPagesIdempotent(t *testing.T) {
	seg := NewSegment(HeapBase, 1<<20, "test")
	seg.MapPages(HeapBase, 4)
	if f := seg.storeWord(HeapBase, 7); f != nil {
		t.Fatal(f)
	}
	seg.MapPages(HeapBase, 4) // must not zero already-mapped pages
	if v, _ := seg.loadWord(HeapBase); v != 7 {
		t.Fatalf("remap of mapped page clobbered data: %d", v)
	}
	if got := seg.MappedBytes(); got != 4*PageSize {
		t.Fatalf("MappedBytes = %d, want %d", got, 4*PageSize)
	}
}

func TestAddressSpaceFaults(t *testing.T) {
	as := New()
	cases := []struct {
		name string
		addr uint64
		kind FaultKind
	}{
		{"non-canonical high bit", HeapBase | 1<<63, FaultNonCanonical},
		{"non-canonical bit 47", 1 << 47, FaultNonCanonical},
		{"hole between segments", 0x0000_0180_0000_0000, FaultNoSegment},
		{"null page", 0, FaultNoSegment},
		{"unmapped heap page", HeapBase, FaultUnmapped},
		{"unaligned word", GlobalsBase + 3, FaultUnaligned},
	}
	for _, c := range cases {
		_, f := as.LoadWord(c.addr)
		if f == nil || f.Kind != c.kind {
			t.Errorf("%s: LoadWord(0x%x) fault = %v, want kind %v", c.name, c.addr, f, c.kind)
		}
		sf := as.StoreWord(c.addr, 1)
		if sf == nil || sf.Kind != c.kind {
			t.Errorf("%s: StoreWord(0x%x) fault = %v, want kind %v", c.name, c.addr, sf, c.kind)
		}
	}
}

func TestFaultError(t *testing.T) {
	f := &Fault{Addr: 0x8000000000001234, Kind: FaultNonCanonical}
	want := "segmentation fault: non-canonical address at 0x8000000000001234"
	if f.Error() != want {
		t.Errorf("Error() = %q, want %q", f.Error(), want)
	}
}

func TestGlobalsPreMapped(t *testing.T) {
	as := New()
	if f := as.StoreWord(GlobalsBase+128, 99); f != nil {
		t.Fatalf("globals store: %v", f)
	}
	v, f := as.LoadWord(GlobalsBase + 128)
	if f != nil || v != 99 {
		t.Fatalf("globals load = %d, %v", v, f)
	}
}

func TestStacks(t *testing.T) {
	as := New()
	base, top := as.StackRange(3)
	as.Stacks().MapPages(base, StackSize/PageSize)
	if top-base != StackSize {
		t.Fatalf("stack size = %d, want %d", top-base, StackSize)
	}
	if f := as.StoreWord(base+64, 123); f != nil {
		t.Fatal(f)
	}
	as.UnmapStack(3)
	if _, f := as.LoadWord(base + 64); f == nil || f.Kind != FaultUnmapped {
		t.Fatalf("stack access after unmap: %v", f)
	}
	// Another thread's stack is independent.
	b2, _ := as.StackRange(4)
	as.Stacks().MapPages(b2, 1)
	if f := as.StoreWord(b2, 5); f != nil {
		t.Fatal(f)
	}
}

func TestByteAccess(t *testing.T) {
	as := New()
	addr := uint64(GlobalsBase + 1024)
	if f := as.StoreWord(addr, 0x1122334455667788); f != nil {
		t.Fatal(f)
	}
	// Little-endian byte order within the word.
	wantBytes := []byte{0x88, 0x77, 0x66, 0x55, 0x44, 0x33, 0x22, 0x11}
	for i, want := range wantBytes {
		b, f := as.LoadByte(addr + uint64(i))
		if f != nil || b != want {
			t.Fatalf("LoadByte(+%d) = 0x%x, %v; want 0x%x", i, b, f, want)
		}
	}
	if f := as.StoreByte(addr+2, 0xAA); f != nil {
		t.Fatal(f)
	}
	w, _ := as.LoadWord(addr)
	if w != 0x11223344_55AA7788 {
		t.Fatalf("word after StoreByte = 0x%x", w)
	}
}

func TestMemmove(t *testing.T) {
	as := New()
	a := uint64(GlobalsBase + 4096)
	src := []byte("the quick brown fox jumps over the lazy dog")
	if f := storeBytes(as, a, src); f != nil {
		t.Fatal(f)
	}
	// Non-overlapping copy.
	if f := as.Memmove(a+100, a, uint64(len(src))); f != nil {
		t.Fatal(f)
	}
	got := make([]byte, len(src))
	if f := loadBytes(as, a+100, got); f != nil {
		t.Fatal(f)
	}
	if string(got) != string(src) {
		t.Fatalf("copy = %q", got)
	}
	// Overlapping forward copy (dst > src).
	if f := as.Memmove(a+4, a, uint64(len(src))); f != nil {
		t.Fatal(f)
	}
	if f := loadBytes(as, a+4, got); f != nil {
		t.Fatal(f)
	}
	if string(got) != string(src) {
		t.Fatalf("overlapping copy = %q", got)
	}
}

func TestMemset(t *testing.T) {
	as := New()
	a := uint64(GlobalsBase + 8192 + 3) // deliberately unaligned
	if f := as.Memset(a, 0xCD, 29); f != nil {
		t.Fatal(f)
	}
	buf := make([]byte, 31)
	if f := loadBytes(as, a-1, buf); f != nil {
		t.Fatal(f)
	}
	if buf[0] != 0 || buf[30] != 0 {
		t.Fatal("Memset wrote outside its range")
	}
	for i := 1; i <= 29; i++ {
		if buf[i] != 0xCD {
			t.Fatalf("byte %d = 0x%x, want 0xCD", i, buf[i])
		}
	}
}

func TestCASWord(t *testing.T) {
	as := New()
	addr := uint64(GlobalsBase + 16384)
	if f := as.StoreWord(addr, 10); f != nil {
		t.Fatal(f)
	}
	ok, f := as.CASWord(addr, 10, 20)
	if f != nil || !ok {
		t.Fatalf("CAS(10->20) = %v, %v", ok, f)
	}
	ok, f = as.CASWord(addr, 10, 30)
	if f != nil || ok {
		t.Fatalf("stale CAS succeeded")
	}
	v, _ := as.LoadWord(addr)
	if v != 20 {
		t.Fatalf("value = %d, want 20", v)
	}
}

func TestConcurrentWordOps(t *testing.T) {
	as := New()
	as.Heap().MapPages(HeapBase, 1)
	addr := uint64(HeapBase)
	const workers = 8
	const iters = 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				for {
					old, f := as.LoadWord(addr)
					if f != nil {
						t.Error(f)
						return
					}
					if ok, _ := as.CASWord(addr, old, old+1); ok {
						break
					}
				}
			}
		}()
	}
	wg.Wait()
	v, _ := as.LoadWord(addr)
	if v != workers*iters {
		t.Fatalf("counter = %d, want %d", v, workers*iters)
	}
}

// Property: for any word value and any aligned in-range address, a store
// followed by a load round-trips, and byte-level reads decompose the word in
// little-endian order.
func TestWordByteRoundTripProperty(t *testing.T) {
	as := New()
	f := func(off uint32, val uint64) bool {
		addr := GlobalsBase + uint64(off)%(GlobalsSize-8)
		addr &^= 7
		if fault := as.StoreWord(addr, val); fault != nil {
			return false
		}
		got, fault := as.LoadWord(addr)
		if fault != nil || got != val {
			return false
		}
		var assembled uint64
		for i := uint64(0); i < 8; i++ {
			b, fault := as.LoadByte(addr + i)
			if fault != nil {
				return false
			}
			assembled |= uint64(b) << (8 * i)
		}
		return assembled == val
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: Memmove behaves like Go's copy for arbitrary overlapping ranges.
func TestMemmoveProperty(t *testing.T) {
	as := New()
	rng := rand.New(rand.NewSource(1))
	for iter := 0; iter < 100; iter++ {
		n := uint64(rng.Intn(200) + 1)
		region := uint64(GlobalsBase + 1<<20)
		srcOff := uint64(rng.Intn(256))
		dstOff := uint64(rng.Intn(256))
		buf := make([]byte, 512)
		rng.Read(buf)
		if f := storeBytes(as, region, buf); f != nil {
			t.Fatal(f)
		}
		want := make([]byte, 512)
		copy(want, buf)
		copy(want[dstOff:dstOff+n], want[srcOff:srcOff+n])
		if f := as.Memmove(region+dstOff, region+srcOff, n); f != nil {
			t.Fatal(f)
		}
		got := make([]byte, 512)
		if f := loadBytes(as, region, got); f != nil {
			t.Fatal(f)
		}
		if string(got) != string(want) {
			t.Fatalf("iter %d: memmove mismatch (src=%d dst=%d n=%d)", iter, srcOff, dstOff, n)
		}
	}
}
