package pointerlog

import (
	"sync"
	"testing"

	"dangsan/internal/vmem"
)

// hashModeLogger builds a logger whose first thread log for meta has
// switched to hash-table mode: MaxLogEntries is forced to the minimum
// (the embedded log) and 13 distinct locations are registered, the last
// of which triggers the fallback.
func hashModeLogger(t testing.TB, cfg Config) (*Logger, *ObjectMeta, *ThreadLog) {
	t.Helper()
	cfg.MaxLogEntries = embedEntries
	cfg.Compression = false
	lg := NewLogger(cfg)
	meta, _ := lg.MustCreateMeta(vmem.HeapBase, 64)
	for i := 0; i <= embedEntries; i++ {
		lg.Register(meta, vmem.GlobalsBase+uint64(i)*0x1000, 1)
	}
	tl := meta.logs.Load()
	if tl.hash.table.Load() == nil {
		t.Fatal("log did not switch to hash mode")
	}
	return lg, meta, tl
}

// growAt is the number of distinct entries at which a table of the given
// size reports full, so the tests follow the load bound, whatever it is.
func growAt(slots int) int {
	t := &locTable{entries: make([]uint64, slots)}
	for !t.full() {
		t.used++
	}
	return t.used
}

// A duplicate insert at the load threshold still grows the table (the
// load check runs before probing), and the growth must be reported so the
// caller can charge it.
func TestLocSetGrowOnDuplicateInsert(t *testing.T) {
	var s locSet
	s.reset()
	n := growAt(locSetInitial)
	for i := 0; i < n; i++ {
		if added, _, _ := s.insert(vmem.GlobalsBase+uint64(i)*8, nil); !added {
			t.Fatalf("insert %d reported duplicate", i)
		}
	}
	if got := s.bytes(); got != locSetInitial*8 {
		t.Fatalf("table grew early: %d bytes", got)
	}
	added, grown, _ := s.insert(vmem.GlobalsBase, nil) // duplicate of the first
	if added {
		t.Fatal("duplicate reported as added")
	}
	if grown != locSetInitial*8 {
		t.Fatalf("duplicate-triggered grow reported %d bytes, want %d", grown, locSetInitial*8)
	}
	if got := s.bytes(); got != 2*locSetInitial*8 {
		t.Fatalf("table = %d bytes after grow", got)
	}
	if s.len() != n {
		t.Fatalf("len = %d after duplicate", s.len())
	}
}

// Regression for the accounting drop: when a duplicate Register triggers
// a hash-table grow, the grown bytes must land in LogBytes — the seed
// returned before charging them, so the audit identity (incremental
// charges == measured footprint) broke on exactly this path.
func TestRegisterChargesGrowOnDuplicate(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Lookback = 0
	cfg.Audit = true
	lg, meta, tl := hashModeLogger(t, cfg)
	h := &tl.hash

	// Fill the table to the load threshold with distinct locations.
	i := uint64(0)
	for h.len() < growAt(locSetInitial) {
		lg.Register(meta, vmem.StacksBase+i*8, 1)
		i++
	}
	if h.bytes() != locSetInitial*8 {
		t.Fatalf("table grew during fill: %d bytes", h.bytes())
	}
	before := lg.Stats().Snapshot()

	// A location already in the table: classified duplicate, but the
	// insert doubles the table first.
	lg.Register(meta, vmem.StacksBase, 1)

	after := lg.Stats().Snapshot()
	if after.Duplicates != before.Duplicates+1 {
		t.Fatalf("duplicate not classified: %+v -> %+v", before, after)
	}
	if h.bytes() != 2*locSetInitial*8 {
		t.Fatalf("table = %d bytes, expected doubled", h.bytes())
	}
	if charged := after.LogBytes - before.LogBytes; charged != locSetInitial*8 {
		t.Fatalf("duplicate-triggered grow charged %d bytes, want %d", charged, locSetInitial*8)
	}
	if err := lg.AuditCheck(); err != nil {
		t.Fatalf("accounting drifted: %v", err)
	}
}

// Once a thread log is in hash-table mode the lookback is skipped: the
// table deduplicates only what was logged since the switch, and the frozen
// linear log's newest entries hold locations the table does not.
func TestHashModeSkipsLookback(t *testing.T) {
	lg, meta, tl := hashModeLogger(t, DefaultConfig())

	// The most recent pre-overflow location is the linear log's newest
	// entry but not in the hash table (only post-overflow locations are
	// inserted). Were the lookback consulted it would be misclassified as
	// a duplicate and never reach the table; skipping it logs it.
	recent := vmem.GlobalsBase + uint64(embedEntries-1)*0x1000
	if got := *tl.newest(); got != recent {
		t.Fatalf("test setup: newest linear entry 0x%x, want 0x%x", got, recent)
	}
	before := lg.Stats().Snapshot()
	lg.Register(meta, recent, 1)
	after := lg.Stats().Snapshot()
	if after.Logged != before.Logged+1 {
		t.Fatalf("hash-mode register consulted the lookback: %+v -> %+v", before, after)
	}
	if !tl.hash.contains(recent) {
		t.Fatal("location missing from hash table")
	}

	// Duplicates are still caught — by the table.
	lg.Register(meta, recent, 1)
	if s := lg.Stats().Snapshot(); s.Duplicates != after.Duplicates+1 {
		t.Fatalf("hash-mode duplicate not detected: %+v", s)
	}
}

// The stale-handle race: a thread holding a recycled handle reads the
// meta's extent while CreateMeta re-initializes it for a new object. The
// reads and writes must be free of data races (run with -race); any value
// observed is reconciled by free-time verification.
func TestStaleHandleRaceRecycle(t *testing.T) {
	as := vmem.New()
	as.Heap().MapPages(vmem.HeapBase, 4)
	lg := NewLogger(DefaultConfig())

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		// The stale-handle reader: what OnPtrStore does with a memoized or
		// recycled handle.
		for {
			select {
			case <-stop:
				return
			default:
			}
			if m := lg.MetaAt(1); m != nil {
				base, size := m.Base(), m.Size()
				if base != 0 && (base < vmem.HeapBase || base+size > vmem.HeapBase+1<<20) {
					t.Error("extent torn") // can't happen with atomic reads
					return
				}
			}
		}
	}()

	for i := 0; i < 2000; i++ {
		base := vmem.HeapBase + uint64(i%4)*4096
		meta, h := lg.MustCreateMeta(base, 128+uint64(i%7)*8)
		lg.Register(meta, vmem.GlobalsBase+uint64(i%64)*8, 0)
		lg.Invalidate(meta, as)
		lg.ReleaseMeta(h)
	}
	close(stop)
	wg.Wait()
}

// BenchmarkRegisterHashMode measures the hash-mode register path — where
// skipping the lookback over the frozen linear log shortens every call.
func BenchmarkRegisterHashMode(b *testing.B) {
	lg, meta, tl := hashModeLogger(b, DefaultConfig())
	// Populate the table past the lookback window so hits rotate over it.
	locs := make([]uint64, 64)
	for i := range locs {
		locs[i] = vmem.StacksBase + uint64(i)*8
		lg.Register(meta, locs[i], 1)
	}
	if tl.hash.table.Load() == nil {
		b.Fatal("not in hash mode")
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lg.Register(meta, locs[i&63], 1)
	}
}
