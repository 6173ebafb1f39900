package pointerlog

import (
	"sync"
	"testing"

	"dangsan/internal/vmem"
)

// withWalkers forces lg's free-time walks onto exactly workers goroutines
// (1: the serial walk), whatever an object's log size.
func withWalkers(lg *Logger, workers int) *Logger {
	lg.walkers, lg.parallelMin = workers, 1
	return lg
}

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

// Parallel invalidation must produce exactly the memory effects and
// counter totals of the serial walk, in both large-log regimes (hash
// fallback and many thread logs).
func TestParallelInvalidateMatchesSerial(t *testing.T) {
	for _, tc := range []struct {
		name  string
		nTids int
	}{
		{"hash-fallback-single-log", 1},
		{"many-thread-logs", 16},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const nLocs = 20000
			run := func(workers int) (Snapshot, []uint64) {
				as := vmem.New()
				as.Heap().MapPages(vmem.HeapBase, 4)
				lg := withWalkers(NewLogger(DefaultConfig()), workers)
				meta, _ := lg.MustCreateMeta(vmem.HeapBase, 4096)
				locs := fillObject(lg, as, meta, nLocs, tc.nTids)
				// Overwrite a deterministic subset so the stale path runs.
				for i := 0; i < len(locs); i += 3 {
					as.StoreWord(locs[i], 7)
				}
				lg.Invalidate(meta, as)
				words := make([]uint64, len(locs))
				for i, loc := range locs {
					words[i], _ = as.LoadWord(loc)
				}
				return lg.Stats().Snapshot(), words
			}
			serialSnap, serialWords := run(1)
			parSnap, parWords := run(4)
			if serialSnap != parSnap {
				t.Errorf("counters diverge:\nserial   %+v\nparallel %+v", serialSnap, parSnap)
			}
			for i := range serialWords {
				if serialWords[i] != parWords[i] {
					t.Fatalf("memory diverges at loc %d: serial 0x%x parallel 0x%x", i, serialWords[i], parWords[i])
				}
			}
			if serialSnap.Invalidated == 0 || serialSnap.Stale == 0 {
				t.Fatalf("fixture did not exercise both paths: %+v", serialSnap)
			}
		})
	}
}

// Racing program stores must never be clobbered by a parallel
// invalidation: a location overwritten mid-walk keeps its new value.
// Run with -race to check the walk is data-race-free against concurrent
// owner appends and program stores.
func TestParallelInvalidateConcurrentStores(t *testing.T) {
	as := vmem.New()
	as.Heap().MapPages(vmem.HeapBase, 4)
	lg := withWalkers(NewLogger(DefaultConfig()), 4)
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
		perLog := uint64(embedEntries*8 + 64 + cfg.Lookback*8)
		if got := lg.Stats().Snapshot().LogBytes; got != nThreads*perLog {
			t.Fatalf("iter %d: LogBytes = %d, want exactly %d", iter, got, nThreads*perLog)
		}
	}
}

// A forced-parallel walk over an object with a single tiny log (fewer
// units than workers) degrades gracefully.
func TestParallelInvalidateFewUnits(t *testing.T) {
	as := vmem.New()
	as.Heap().MapPages(vmem.HeapBase, 1)
	lg := withWalkers(NewLogger(DefaultConfig()), 8)
	meta, _ := lg.MustCreateMeta(vmem.HeapBase, 64)
	loc := uint64(vmem.GlobalsBase + 8)
	as.StoreWord(loc, vmem.HeapBase+8)
	lg.Register(meta, loc, 0)
	lg.Invalidate(meta, as)
	if w, _ := as.LoadWord(loc); w != (vmem.HeapBase+8)|InvalidBit {
		t.Fatalf("loc = 0x%x", w)
	}
	if s := lg.Stats().Snapshot(); s.Invalidated != 1 {
		t.Fatalf("stats: %+v", s)
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
