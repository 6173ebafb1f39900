package pointerlog

import (
	"sync"
	"testing"

	"dangsan/internal/vmem"
)

// fillObject registers nLocs distinct live locations spread over nTids
// thread logs and returns them.
func fillObject(lg *Logger, as *vmem.AddressSpace, meta *ObjectMeta, nLocs, nTids int) []uint64 {
	locs := make([]uint64, nLocs)
	for i := range locs {
		loc := vmem.GlobalsBase + uint64(i)*8
		locs[i] = loc
		as.StoreWord(loc, meta.Base()+uint64(i)%meta.Size()&^7)
		lg.Register(meta, loc, int32(i%nTids))
	}
	return locs
}

// Racing program stores must never be clobbered by an invalidation: a
// location overwritten mid-walk, on another goroutine running in parallel
// with the free, keeps its new value. Run with -race to check the walk is
// data-race-free against concurrent owner appends and program stores.
func TestParallelInvalidateConcurrentStores(t *testing.T) {
	as := vmem.New()
	as.Heap().MapPages(vmem.HeapBase, 4)
	lg := NewLogger(DefaultConfig())
	meta, _ := lg.MustCreateMeta(vmem.HeapBase, 4096)
	locs := fillObject(lg, as, meta, 20000, 2)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	// One goroutine keeps overwriting logged slots with a non-pointer;
	// another keeps appending fresh registrations to its own thread log.
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; ; i = (i + 7) % len(locs) {
			select {
			case <-stop:
				return
			default:
				as.StoreWord(locs[i], 7)
			}
		}
	}()
	go func() {
		defer wg.Done()
		next := uint64(vmem.GlobalsBase + 1<<20)
		for {
			select {
			case <-stop:
				return
			default:
				lg.Register(meta, next, 3)
				next += 8
			}
		}
	}()
	for i := 0; i < 4; i++ {
		lg.Invalidate(meta, as)
	}
	close(stop)
	wg.Wait()

	for i, loc := range locs {
		w, _ := as.LoadWord(loc)
		// Every slot now holds the overwritten marker, an invalidated
		// pointer, or a still-live pointer registered after the last walk
		// — never a clobbered marker.
		if w != 7 && w&InvalidBit == 0 && (w < meta.Base() || w >= meta.Base()+meta.Size()) {
			t.Fatalf("loc %d corrupted: 0x%x", i, w)
		}
	}
}

// The free-time walk allocates nothing, however large the log: a hash-mode
// object past 8,192 slots is walked in place on the freeing thread.
func TestInvalidateLargeLogAllocatesNothing(t *testing.T) {
	as := vmem.New()
	as.Heap().MapPages(vmem.HeapBase, 1)
	lg := NewLogger(DefaultConfig())
	meta, _ := lg.MustCreateMeta(vmem.HeapBase, 4096)
	fillObject(lg, as, meta, 8192, 1)
	if tb := meta.logs.Load().hash.table.Load(); tb == nil || len(tb.entries) < 8192 {
		t.Fatal("fixture did not reach a hash table of 8,192 slots")
	}
	if n := testing.AllocsPerRun(10, func() { lg.Invalidate(meta, as) }); n != 0 {
		t.Fatalf("Invalidate allocated %.1f times per call", n)
	}
	if s := lg.Stats().Snapshot(); s.Invalidated != 8192 {
		t.Fatalf("Invalidated = %d, want 8192", s.Invalidated)
	}
}

// The threadLogFor CAS race must not leak LogBytes: when many threads
// race to create their logs for one object, the accounting must equal
// exactly one log's bytes per thread that won a slot (seed bug: the
// loser's speculative bytes were never subtracted).
func TestThreadLogBytesExactUnderContention(t *testing.T) {
	cfg := DefaultConfig()
	for iter := 0; iter < 50; iter++ {
		lg := NewLogger(cfg)
		meta, _ := lg.MustCreateMeta(vmem.HeapBase, 4096)
		const nThreads = 8
		var start, done sync.WaitGroup
		start.Add(1)
		done.Add(nThreads)
		for tid := int32(0); tid < nThreads; tid++ {
			go func(tid int32) {
				defer done.Done()
				start.Wait()
				lg.Register(meta, vmem.GlobalsBase+uint64(tid)*8, tid)
			}(tid)
		}
		start.Done()
		done.Wait()
		if got := lg.Stats().Snapshot().LogBytes; got != nThreads*threadLogBytes {
			t.Fatalf("iter %d: LogBytes = %d, want exactly %d", iter, got, nThreads*threadLogBytes)
		}
	}
}

// Gen must advance on every Invalidate so fast-path caches drop.
func TestGenBumpsOnInvalidate(t *testing.T) {
	as := vmem.New()
	as.Heap().MapPages(vmem.HeapBase, 1)
	lg := NewLogger(DefaultConfig())
	meta, _ := lg.MustCreateMeta(vmem.HeapBase, 64)
	g0 := lg.Gen()
	lg.Invalidate(meta, as)
	if lg.Gen() == g0 {
		t.Fatal("Invalidate did not bump generation")
	}
	lg.BumpGen()
	if lg.Gen() != g0+2 {
		t.Fatalf("BumpGen: gen = %d, want %d", lg.Gen(), g0+2)
	}
}
