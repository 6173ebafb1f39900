package pointerlog

import (
	"math/rand"
	"sort"
	"sync"
	"testing"
	"testing/quick"

	"dangsan/internal/vmem"
)

// collect gathers all recorded locations for meta, sorted.
func collect(lg *Logger, meta *ObjectMeta) []uint64 {
	var locs []uint64
	lg.forEachLocation(meta, func(loc uint64) { locs = append(locs, loc) })
	sort.Slice(locs, func(i, j int) bool { return locs[i] < locs[j] })
	return locs
}

// countLogs returns the number of per-thread logs attached to meta.
func countLogs(meta *ObjectMeta) int {
	n := 0
	for tl := meta.logs.Load(); tl != nil; tl = tl.next.Load() {
		n++
	}
	return n
}

func TestEntryEncoding(t *testing.T) {
	base := uint64(vmem.GlobalsBase + 0x1000)
	// Raw entries decode to themselves.
	got := decodeEntry(base, nil)
	if len(got) != 1 || got[0] != base {
		t.Fatalf("raw decode = %v", got)
	}
	// Compress three locations in one 256-byte region.
	e := compressOne(base) // LSB 0 in slot 0
	e, ok := tryCompressAdd(e, base+8)
	if !ok {
		t.Fatal("add second failed")
	}
	e, ok = tryCompressAdd(e, base+16)
	if !ok {
		t.Fatal("add third failed")
	}
	if !isCompressed(e) {
		t.Fatal("entry not marked compressed")
	}
	got = decodeEntry(e, nil)
	sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
	want := []uint64{base, base + 8, base + 16}
	if len(got) != 3 || got[0] != want[0] || got[1] != want[1] || got[2] != want[2] {
		t.Fatalf("decode = %x, want %x", got, want)
	}
	// Full entry rejects a fourth.
	if _, ok := tryCompressAdd(e, base+24); ok {
		t.Fatal("fourth add accepted")
	}
	// Different common part rejected.
	if _, ok := tryCompressAdd(compressOne(base), base+256); ok {
		t.Fatal("cross-region add accepted")
	}
	// Zero LSB can't fill slot 2/3.
	if _, ok := tryCompressAdd(compressOne(base+8), base); ok {
		t.Fatal("zero-LSB added to non-first slot")
	}
	// Containment checks.
	for _, loc := range want {
		if !entryContains(e, loc) {
			t.Errorf("entryContains(0x%x) = false", loc)
		}
	}
	if entryContains(e, base+24) {
		t.Error("entryContains(+24) = true")
	}
}

// Property: raw entries are never mistaken for compressed ones and
// vice versa, for any simulated address.
func TestEntryDiscriminationProperty(t *testing.T) {
	f := func(off uint32) bool {
		loc := (vmem.HeapBase + uint64(off)) &^ 7
		if isCompressed(loc) {
			return false
		}
		return isCompressed(compressOne(loc))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRegisterAndCollect(t *testing.T) {
	lg := NewLogger(DefaultConfig())
	meta, handle := lg.MustCreateMeta(vmem.HeapBase, 64)
	if handle == 0 {
		t.Fatal("zero handle")
	}
	if lg.MetaAt(handle) != meta {
		t.Fatal("MetaAt mismatch")
	}
	locs := []uint64{
		vmem.GlobalsBase + 0x100,
		vmem.GlobalsBase + 0x2000,
		vmem.StacksBase + 0x40,
	}
	for _, loc := range locs {
		lg.Register(meta, loc, 1)
	}
	got := collect(lg, meta)
	if len(got) != 3 {
		t.Fatalf("collected %d locations: %x", len(got), got)
	}
	s := lg.Stats().Snapshot()
	if s.Registered != 3 || s.Logged != 3 || s.Duplicates != 0 {
		t.Fatalf("stats: %+v", s)
	}
}

func TestLookbackSuppressesDuplicates(t *testing.T) {
	lg := NewLogger(DefaultConfig())
	meta, _ := lg.MustCreateMeta(vmem.HeapBase, 64)
	loc := uint64(vmem.GlobalsBase + 0x100)
	for i := 0; i < 100; i++ {
		lg.Register(meta, loc, 1)
	}
	s := lg.Stats().Snapshot()
	if s.Duplicates != 99 {
		t.Fatalf("duplicates = %d, want 99", s.Duplicates)
	}
	if got := collect(lg, meta); len(got) != 1 {
		t.Fatalf("log holds %d entries", len(got))
	}
}

func TestLookbackWindowCycles(t *testing.T) {
	// A cycle longer than the lookback defeats it (the case the hash table
	// exists for).
	cfg := DefaultConfig()
	cfg.Lookback = 2
	cfg.Compression = false
	lg := NewLogger(cfg)
	meta, _ := lg.MustCreateMeta(vmem.HeapBase, 64)
	locs := []uint64{
		vmem.GlobalsBase + 0x1000,
		vmem.GlobalsBase + 0x3000,
		vmem.GlobalsBase + 0x5000,
	}
	for round := 0; round < 4; round++ {
		for _, loc := range locs {
			lg.Register(meta, loc, 1)
		}
	}
	if dup := lg.Stats().Snapshot().Duplicates; dup != 0 {
		t.Fatalf("lookback 2 caught cycle of 3: dup=%d", dup)
	}
}

func TestZeroLookback(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Lookback = 0
	cfg.Compression = false
	lg := NewLogger(cfg)
	meta, _ := lg.MustCreateMeta(vmem.HeapBase, 64)
	loc := uint64(vmem.GlobalsBase + 0x100)
	lg.Register(meta, loc, 1)
	lg.Register(meta, loc, 1)
	if s := lg.Stats().Snapshot(); s.Logged != 2 {
		t.Fatalf("logged = %d, want 2 with lookback disabled", s.Logged)
	}
}

func TestCompressionPacksNeighbors(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Lookback = 0 // isolate compression
	lg := NewLogger(cfg)
	meta, _ := lg.MustCreateMeta(vmem.HeapBase, 64)
	base := uint64(vmem.GlobalsBase + 0x300)
	lg.Register(meta, base, 1)
	lg.Register(meta, base+8, 1)
	lg.Register(meta, base+16, 1)
	s := lg.Stats().Snapshot()
	if s.Compressed != 2 {
		t.Fatalf("compressed = %d, want 2", s.Compressed)
	}
	got := collect(lg, meta)
	if len(got) != 3 || got[0] != base || got[1] != base+8 || got[2] != base+16 {
		t.Fatalf("collected %x", got)
	}
	// All three share one entry: the embedded log used only one slot.
	tl := meta.logs.Load()
	if tl.count != 1 {
		t.Fatalf("entry count = %d, want 1", tl.count)
	}
}

func TestCompressionDisabled(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Lookback = 0
	cfg.Compression = false
	lg := NewLogger(cfg)
	meta, _ := lg.MustCreateMeta(vmem.HeapBase, 64)
	base := uint64(vmem.GlobalsBase + 0x300)
	lg.Register(meta, base, 1)
	lg.Register(meta, base+8, 1)
	if tl := meta.logs.Load(); tl.count != 2 {
		t.Fatalf("count = %d, want 2 without compression", tl.count)
	}
}

func TestIndirectBlocksAndHashFallback(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Lookback = 0
	cfg.Compression = false
	cfg.MaxLogEntries = 40 // embed (12) + part of one block
	lg := NewLogger(cfg)
	meta, _ := lg.MustCreateMeta(vmem.HeapBase, 64)
	// Spread locations so neither lookback nor compression could apply.
	n := 200
	for i := 0; i < n; i++ {
		lg.Register(meta, vmem.GlobalsBase+uint64(i)*0x1000, 1)
	}
	s := lg.Stats().Snapshot()
	if s.HashTables != 1 {
		t.Fatalf("hash tables = %d, want 1", s.HashTables)
	}
	if got := collect(lg, meta); len(got) != n {
		t.Fatalf("collected %d, want %d", len(got), n)
	}
	// Duplicates are caught by the hash table too.
	lg.Register(meta, vmem.GlobalsBase+0x1000*100, 1)
	if s := lg.Stats().Snapshot(); s.Duplicates != 1 {
		t.Fatalf("hash duplicate not detected: %+v", s)
	}
}

func TestPerThreadLogs(t *testing.T) {
	lg := NewLogger(DefaultConfig())
	meta, _ := lg.MustCreateMeta(vmem.HeapBase, 64)
	lg.Register(meta, vmem.GlobalsBase+0x100, 1)
	lg.Register(meta, vmem.GlobalsBase+0x1100, 2)
	lg.Register(meta, vmem.GlobalsBase+0x2100, 3)
	if n := countLogs(meta); n != 3 {
		t.Fatalf("thread logs = %d, want 3", n)
	}
	if got := collect(lg, meta); len(got) != 3 {
		t.Fatalf("locations = %d", len(got))
	}
}

func TestConcurrentRegister(t *testing.T) {
	lg := NewLogger(DefaultConfig())
	meta, _ := lg.MustCreateMeta(vmem.HeapBase, 64)
	const threads = 8
	const perThread = 500
	var wg sync.WaitGroup
	for tid := int32(0); tid < threads; tid++ {
		wg.Add(1)
		go func(tid int32) {
			defer wg.Done()
			for i := 0; i < perThread; i++ {
				loc := vmem.GlobalsBase + uint64(tid)*0x40000 + uint64(i)*0x200
				lg.Register(meta, loc, tid)
			}
		}(tid)
	}
	wg.Wait()
	if n := countLogs(meta); n != threads {
		t.Fatalf("thread logs = %d, want %d", n, threads)
	}
	if got := collect(lg, meta); len(got) != threads*perThread {
		t.Fatalf("locations = %d, want %d", len(got), threads*perThread)
	}
}

func newSpace(t testing.TB) *vmem.AddressSpace {
	t.Helper()
	return vmem.New()
}

func TestInvalidate(t *testing.T) {
	as := newSpace(t)
	lg := NewLogger(DefaultConfig())
	as.Heap().MapPages(vmem.HeapBase, 1)
	objBase := uint64(vmem.HeapBase)
	meta, _ := lg.MustCreateMeta(objBase, 64)

	ptrLoc := uint64(vmem.GlobalsBase + 0x100)
	staleLoc := uint64(vmem.GlobalsBase + 0x200)
	interiorLoc := uint64(vmem.GlobalsBase + 0x300)

	// A live pointer to the object's base.
	as.StoreWord(ptrLoc, objBase)
	lg.Register(meta, ptrLoc, 1)
	// A pointer that was overwritten with an unrelated value.
	as.StoreWord(staleLoc, objBase)
	lg.Register(meta, staleLoc, 1)
	as.StoreWord(staleLoc, 12345)
	// An interior pointer.
	as.StoreWord(interiorLoc, objBase+48)
	lg.Register(meta, interiorLoc, 1)

	lg.Invalidate(meta, as)

	if v, _ := as.LoadWord(ptrLoc); v != objBase|InvalidBit {
		t.Fatalf("base pointer = 0x%x", v)
	}
	if v, _ := as.LoadWord(staleLoc); v != 12345 {
		t.Fatalf("stale location clobbered: 0x%x", v)
	}
	if v, _ := as.LoadWord(interiorLoc); v != (objBase+48)|InvalidBit {
		t.Fatalf("interior pointer = 0x%x", v)
	}
	s := lg.Stats().Snapshot()
	if s.Invalidated != 2 || s.Stale != 1 {
		t.Fatalf("stats: %+v", s)
	}
	// The invalidated pointer's low bits still identify the original
	// address (the debugging property).
	v, _ := as.LoadWord(ptrLoc)
	if v&^InvalidBit != objBase {
		t.Fatal("invalidation destroyed the address bits")
	}
	// Dereferencing the invalidated pointer faults as non-canonical.
	if _, f := as.LoadWord(v); f == nil || f.Kind != vmem.FaultNonCanonical {
		t.Fatalf("deref of invalidated pointer: %v", f)
	}
}

func TestInvalidateOnePastEnd(t *testing.T) {
	// With the +1 allocation pad, a pointer one past the logical end stays
	// inside [Base, Base+Size) and must be invalidated.
	as := newSpace(t)
	lg := NewLogger(DefaultConfig())
	as.Heap().MapPages(vmem.HeapBase, 1)
	logical := uint64(64)
	meta, _ := lg.MustCreateMeta(vmem.HeapBase, logical+8) // padded usable size
	loc := uint64(vmem.GlobalsBase + 0x100)
	as.StoreWord(loc, vmem.HeapBase+logical) // one past the end
	lg.Register(meta, loc, 1)
	lg.Invalidate(meta, as)
	if v, _ := as.LoadWord(loc); v&InvalidBit == 0 {
		t.Fatal("one-past-end pointer not invalidated")
	}
}

func TestInvalidateSkipsUnmappedLocation(t *testing.T) {
	as := newSpace(t)
	lg := NewLogger(DefaultConfig())
	as.Heap().MapPages(vmem.HeapBase, 2)
	meta, _ := lg.MustCreateMeta(vmem.HeapBase, 64)
	// The pointer lives in a heap page that later gets unmapped.
	loc := uint64(vmem.HeapBase + vmem.PageSize)
	as.StoreWord(loc, vmem.HeapBase)
	lg.Register(meta, loc, 1)
	as.Heap().UnmapPages(loc, 1)
	lg.Invalidate(meta, as) // must not panic
	if s := lg.Stats().Snapshot(); s.Faulted != 1 || s.Invalidated != 0 {
		t.Fatalf("stats: %+v", s)
	}
}

func TestInvalidateRace(t *testing.T) {
	// A store racing with invalidation must never be clobbered: either the
	// old value is invalidated before the store (store wins the slot), or
	// the new value is observed. The new value points elsewhere, so it must
	// survive.
	as := newSpace(t)
	lg := NewLogger(DefaultConfig())
	as.Heap().MapPages(vmem.HeapBase, 1)
	for iter := 0; iter < 200; iter++ {
		meta, _ := lg.MustCreateMeta(vmem.HeapBase, 64)
		loc := uint64(vmem.GlobalsBase + 0x100)
		as.StoreWord(loc, vmem.HeapBase)
		lg.Register(meta, loc, 1)
		done := make(chan struct{})
		go func() {
			as.StoreWord(loc, 777) // unrelated value
			close(done)
		}()
		lg.Invalidate(meta, as)
		<-done
		v, _ := as.LoadWord(loc)
		if v != 777 && v != 777|InvalidBit {
			// 777 must survive; it can never carry the invalid bit since it
			// is out of the object's range.
			if v != 777 {
				t.Fatalf("iter %d: racing store lost: 0x%x", iter, v)
			}
		}
		if v == 777|InvalidBit {
			t.Fatalf("iter %d: unrelated value invalidated", iter)
		}
	}
}

func TestMetaRecycling(t *testing.T) {
	lg := NewLogger(DefaultConfig())
	_, h1 := lg.MustCreateMeta(vmem.HeapBase, 64)
	lg.ReleaseMeta(h1)
	m2, h2 := lg.MustCreateMeta(vmem.HeapBase+128, 32)
	if h2 != h1 {
		t.Fatalf("handle not recycled: %d vs %d", h1, h2)
	}
	if m2.Base() != vmem.HeapBase+128 || m2.Size() != 32 {
		t.Fatalf("recycled meta not reset: %+v", m2)
	}
	if got := collect(lg, m2); len(got) != 0 {
		t.Fatalf("recycled meta kept logs: %x", got)
	}
	// MetaAt of an out-of-range handle is nil.
	if lg.MetaAt(10_000) != nil {
		t.Fatal("MetaAt accepted bogus handle")
	}
	if lg.MetaAt(0) != nil {
		t.Fatal("MetaAt(0) != nil")
	}
}

// Property: for any set of distinct aligned locations, registering then
// collecting yields exactly that set (no loss, no phantom entries),
// regardless of compression.
func TestRegisterCollectProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for iter := 0; iter < 50; iter++ {
		lg := NewLogger(DefaultConfig())
		meta, _ := lg.MustCreateMeta(vmem.HeapBase, 64)
		n := rng.Intn(300) + 1
		set := make(map[uint64]bool, n)
		for len(set) < n {
			loc := vmem.GlobalsBase + uint64(rng.Intn(1<<16))*8
			set[loc] = true
		}
		for loc := range set {
			lg.Register(meta, loc, 1)
		}
		got := collect(lg, meta)
		seen := make(map[uint64]bool)
		for _, loc := range got {
			seen[loc] = true
		}
		if len(seen) != n {
			t.Fatalf("iter %d: got %d distinct, want %d", iter, len(seen), n)
		}
		for loc := range set {
			if !seen[loc] {
				t.Fatalf("iter %d: lost location 0x%x", iter, loc)
			}
		}
	}
}

func TestLocSet(t *testing.T) {
	var s locSet
	s.reset()
	locs := make([]uint64, 500)
	for i := range locs {
		locs[i] = vmem.GlobalsBase + uint64(i)*8
		if added, _, _ := s.insert(locs[i], nil); !added {
			t.Fatalf("insert %d reported duplicate", i)
		}
	}
	if s.len() != 500 {
		t.Fatalf("len = %d", s.len())
	}
	for _, loc := range locs {
		if !s.contains(loc) {
			t.Fatalf("missing 0x%x", loc)
		}
		if added, _, _ := s.insert(loc, nil); added {
			t.Fatalf("re-insert of 0x%x not detected", loc)
		}
	}
	if s.contains(vmem.GlobalsBase + 500*8) {
		t.Fatal("phantom member")
	}
	count := 0
	s.forEach(func(uint64) { count++ })
	if count != 500 {
		t.Fatalf("forEach visited %d", count)
	}
}

func BenchmarkRegisterUnique(b *testing.B) {
	lg := NewLogger(DefaultConfig())
	meta, _ := lg.MustCreateMeta(vmem.HeapBase, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lg.Register(meta, vmem.GlobalsBase+uint64(i%(1<<20))*8, 1)
	}
}

func BenchmarkRegisterDuplicate(b *testing.B) {
	lg := NewLogger(DefaultConfig())
	meta, _ := lg.MustCreateMeta(vmem.HeapBase, 64)
	loc := uint64(vmem.GlobalsBase + 0x100)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lg.Register(meta, loc, 1)
	}
}

func BenchmarkInvalidate(b *testing.B) {
	as := vmem.New()
	lg := NewLogger(DefaultConfig())
	as.Heap().MapPages(vmem.HeapBase, 1)
	meta, _ := lg.MustCreateMeta(vmem.HeapBase, 64)
	for i := 0; i < 64; i++ {
		loc := vmem.GlobalsBase + uint64(i)*0x100
		as.StoreWord(loc, vmem.HeapBase)
		lg.Register(meta, loc, 1)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lg.Invalidate(meta, as)
	}
}
