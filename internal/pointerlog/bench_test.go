package pointerlog

import (
	"sync/atomic"
	"testing"

	"dangsan/internal/obs"
	"dangsan/internal/vmem"
)

// BenchmarkRegisterParallel drives the register hot path from many
// goroutines storing into one shared object, the shape of the paper's
// Fig. 10 scalability experiment. Each goroutine owns a distinct tid (so
// it appends to its own thread log, per the lock-free design) and a
// distinct location range; any slowdown versus the single-threaded rate
// is contention our implementation added, not the algorithm's.
func BenchmarkRegisterParallel(b *testing.B) {
	lg := NewLogger(DefaultConfig())
	meta, _ := lg.MustCreateMeta(vmem.HeapBase, 1<<20)
	var tids atomic.Int32
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		tid := tids.Add(1) - 1
		base := vmem.GlobalsBase + uint64(tid)<<14
		i := uint64(0)
		for pb.Next() {
			lg.Register(meta, base+(i&1023)*8, tid)
			i++
		}
	})
}

// BenchmarkRegisterParallelFastPath is the same workload through the
// memoized store path used by detectors.ThreadAware: each goroutine
// holds its cached thread log and revalidates it against the logger
// generation before every append, exactly as dangsan.OnPtrStoreCtx does
// on a cache hit.
func BenchmarkRegisterParallelFastPath(b *testing.B) {
	lg := NewLogger(DefaultConfig())
	meta, _ := lg.MustCreateMeta(vmem.HeapBase, 1<<20)
	var tids atomic.Int32
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		tid := tids.Add(1) - 1
		base := vmem.GlobalsBase + uint64(tid)<<14
		tl := lg.Register(meta, base, tid)
		gen := lg.Gen()
		i := uint64(0)
		for pb.Next() {
			if gen != lg.Gen() {
				gen = lg.Gen()
				tl = lg.Register(meta, base+(i&1023)*8, tid)
			} else {
				lg.RegisterWith(tl, base+(i&1023)*8, tid)
			}
			i++
		}
	})
}

// BenchmarkRegisterSingle is the 1-thread anchor for RegisterParallel.
func BenchmarkRegisterSingle(b *testing.B) {
	lg := NewLogger(DefaultConfig())
	meta, _ := lg.MustCreateMeta(vmem.HeapBase, 1<<20)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		lg.Register(meta, vmem.GlobalsBase+(uint64(i)&1023)*8, 0)
	}
}

// BenchmarkRegisterSingleMetricsOn is RegisterSingle with an observability
// registry attached: the delta against RegisterSingle is the cost of the
// two time.Now() calls bracketing each register for the latency histogram.
func BenchmarkRegisterSingleMetricsOn(b *testing.B) {
	lg := NewLogger(DefaultConfig())
	lg.AttachMetrics(obs.NewRegistry())
	meta, _ := lg.MustCreateMeta(vmem.HeapBase, 1<<20)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		lg.Register(meta, vmem.GlobalsBase+(uint64(i)&1023)*8, 0)
	}
}

// BenchmarkRegisterBlocks times appends to the indirect log blocks, the
// path RegisterSingle and RegisterUnique (hash mode past 128 locations)
// and RegisterDuplicate (embedded entries only) never reach. Each object
// takes the 12 embedded entries and seven 15-entry blocks, short of the
// 128 that switch it to hash mode, and is then released for a fresh one.
// Its locations are 256 B apart, so compression never folds two into one
// entry: every register is a lookback miss and an append, and at three
// fill positions in each block the default window of 4 reads into the
// previous block. The thread log and block allocations show in B/op.
func BenchmarkRegisterBlocks(b *testing.B) {
	const perObject = embedEntries + 7*blockEntries
	lg := NewLogger(DefaultConfig())
	meta, handle := lg.MustCreateMeta(vmem.HeapBase, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := i % perObject
		if n == 0 && i > 0 {
			lg.ReleaseMeta(handle)
			meta, handle = lg.MustCreateMeta(vmem.HeapBase, 64)
		}
		lg.Register(meta, vmem.GlobalsBase+uint64(n)<<8, 0)
	}
	b.StopTimer()
	if s := lg.Stats().Snapshot(); s.HashTables != 0 || s.Compressed != 0 || s.Duplicates != 0 {
		b.Fatalf("left the linear append path: %d hash tables, %d compressed, %d duplicates",
			s.HashTables, s.Compressed, s.Duplicates)
	}
}

// BenchmarkRegisterCycle is omnetpp's hot-object shape, one object per op:
// a cycle of 192 distinct locations stored twice — longer than the
// lookback, so the log switches to its table part-way through the first
// pass, and the table's second grow folds the linear log in — then the
// free's walk and the release. stale/op is the walk's visits that found no
// pointer to invalidate: each location the table holds a second time.
func BenchmarkRegisterCycle(b *testing.B) {
	as := foldSpace()
	lg := NewLogger(DefaultConfig())
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		meta, handle := lg.MustCreateMeta(vmem.HeapBase, 64)
		foldCycle(lg, meta, as, 0, 2*cycleLocs)
		lg.Invalidate(meta, as)
		lg.ReleaseMeta(handle)
	}
	b.ReportMetric(float64(lg.Stats().Snapshot().Stale)/float64(b.N), "stale/op")
}

// invalidateFixture builds an object with nLocs distinct registered
// locations (driving the log into the hash-table fallback) all still
// pointing into the object, so Invalidate takes the CAS path for each.
func invalidateFixture(b *testing.B, nLocs int, tids int) (*Logger, *ObjectMeta, *vmem.AddressSpace, []uint64) {
	b.Helper()
	as := vmem.New()
	as.Heap().MapPages(vmem.HeapBase, 16)
	lg := NewLogger(DefaultConfig())
	meta, _ := lg.MustCreateMeta(vmem.HeapBase, 4096)
	locs := make([]uint64, nLocs)
	for i := range locs {
		loc := vmem.GlobalsBase + uint64(i)*8
		locs[i] = loc
		as.StoreWord(loc, vmem.HeapBase+uint64(i)%4096&^7)
		lg.Register(meta, loc, int32(i%tids))
	}
	return lg, meta, as, locs
}

// BenchmarkInvalidateLargeLog measures free-time invalidation of an
// object with 64Ki live pointer locations in a single thread's log (the
// hash-table-fallback regime).
func BenchmarkInvalidateLargeLog(b *testing.B) {
	lg, meta, as, locs := invalidateFixture(b, 1<<16, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lg.Invalidate(meta, as)
		b.StopTimer()
		for j, loc := range locs {
			as.StoreWord(loc, vmem.HeapBase+uint64(j)%4096&^7)
		}
		b.StartTimer()
	}
}

// BenchmarkInvalidateManyThreadLogs is the other large-log regime: the
// object's locations are spread over 16 per-thread logs.
func BenchmarkInvalidateManyThreadLogs(b *testing.B) {
	lg, meta, as, locs := invalidateFixture(b, 1<<16, 16)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lg.Invalidate(meta, as)
		b.StopTimer()
		for j, loc := range locs {
			as.StoreWord(loc, vmem.HeapBase+uint64(j)%4096&^7)
		}
		b.StartTimer()
	}
}
