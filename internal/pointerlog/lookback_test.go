package pointerlog

import (
	"testing"
	"unsafe"

	"dangsan/internal/faultinject"
	"dangsan/internal/vmem"
)

// farLoc is the i-th of a row of locations far enough apart that no two
// compress into one entry.
func farLoc(i int) uint64 { return vmem.GlobalsBase + uint64(i)*0x1000 }

// TestDroppedRegistrationIsRetried: a registration a denied allocation
// drops leaves nothing behind, so storing the same pointer there again is
// not a duplicate. It is logged, and free reaches it. (A lookback that
// remembered the location before the drop suppressed the retry and lost
// the location for good.)
func TestDroppedRegistrationIsRetried(t *testing.T) {
	for _, tc := range []struct {
		name   string
		site   faultinject.Site
		maxLog int
	}{
		{"log block", faultinject.LogBlockAlloc, DefaultMaxLogEntries},
		{"hash switch", faultinject.HashGrowAlloc, embedEntries},
	} {
		t.Run(tc.name, func(t *testing.T) {
			plane := faultinject.New(1)
			cfg := DefaultConfig()
			cfg.MaxLogEntries = tc.maxLog
			cfg.Audit = true
			lg := NewLogger(cfg)
			lg.InjectFaults(plane)
			as := vmem.New()
			as.Heap().MapPages(vmem.HeapBase, 1)
			meta, _ := lg.MustCreateMeta(vmem.HeapBase, 64)
			for i := 0; i < embedEntries; i++ {
				lg.Register(meta, farLoc(i), 0)
			}

			plane.Enable(tc.site, 1.0, 1) // exactly one denial
			x := farLoc(embedEntries)
			as.StoreWord(x, meta.Base())
			lg.Register(meta, x, 0)
			lg.Register(meta, x, 0)

			s := lg.Stats().Snapshot()
			if s.DroppedRegistrations != 1 || s.Duplicates != 0 || s.Logged != embedEntries+1 {
				t.Fatalf("want one drop, then X logged: %+v", s)
			}
			found := false
			lg.forEachLocation(meta, func(loc uint64) { found = found || loc == x })
			if !found {
				t.Fatal("X is not in the log")
			}
			lg.Invalidate(meta, as)
			if w, _ := as.LoadWord(x); w&InvalidBit == 0 {
				t.Fatalf("free did not reach X: 0x%x", w)
			}
			if err := lg.AuditCheck(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// isDuplicateAfter fills a fresh log with the far-apart locations
// 0..entries-1 under the given lookback, then reports whether registering
// location probe again counts as a duplicate.
func isDuplicateAfter(t *testing.T, lookback, entries, probe int) bool {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Lookback = lookback
	lg := NewLogger(cfg)
	meta, _ := lg.MustCreateMeta(vmem.HeapBase, 64)
	for i := 0; i < entries; i++ {
		lg.Register(meta, farLoc(i), 0)
	}
	before := lg.Stats().Snapshot()
	if before.Logged != uint64(entries) || before.HashTables != 0 {
		t.Fatalf("fixture: %d entries did not land in the linear log: %+v", entries, before)
	}
	lg.Register(meta, farLoc(probe), 0)
	return lg.Stats().Snapshot().Duplicates > before.Duplicates
}

// TestLookbackWindowEdges: the window is the Lookback newest entries
// wherever they sit — in the embedded entries, across the embedded
// entries and the first block, across two blocks, filling one block, and
// reaching back to the first entry. The oldest location inside the window
// is a duplicate; the one before it is not.
func TestLookbackWindowEdges(t *testing.T) {
	for _, tc := range []struct {
		name              string
		lookback, entries int
		oldest            int // oldest location inside the window
	}{
		{"embedded", 4, embedEntries, embedEntries - 4},
		{"embedded to first block", 4, embedEntries + 1, embedEntries - 3},
		{"block to block", 4, embedEntries + blockEntries + 1, embedEntries + blockEntries - 3},
		{"one", 1, embedEntries + blockEntries + 1, embedEntries + blockEntries},
		{"max within one block", MaxLookback, embedEntries + blockEntries, embedEntries},
		{"max across two blocks", MaxLookback, embedEntries + 2*blockEntries - 1, embedEntries + blockEntries - 1},
		{"max across embedded and block", MaxLookback, embedEntries + blockEntries - 7, 5},
		{"max back to the first entry", MaxLookback, embedEntries + 3, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if !isDuplicateAfter(t, tc.lookback, tc.entries, tc.oldest) {
				t.Errorf("location %d of %d is inside a window of %d but was logged", tc.oldest, tc.entries, tc.lookback)
			}
			if tc.oldest > 0 && isDuplicateAfter(t, tc.lookback, tc.entries, tc.oldest-1) {
				t.Errorf("location %d of %d is outside a window of %d but was dropped", tc.oldest-1, tc.entries, tc.lookback)
			}
		})
	}
	if got := NewLogger(Config{Lookback: 2 * MaxLookback}).Config().Lookback; got != MaxLookback {
		t.Errorf("Lookback %d validated to %d, want %d", 2*MaxLookback, got, MaxLookback)
	}
}

// TestLookbackSeesCompressedEntry: a compressed entry inside the window
// covers every location folded into it, as the newest entry and further
// back; once pushed out of the window, its locations are logged again.
func TestLookbackSeesCompressedEntry(t *testing.T) {
	lg := NewLogger(DefaultConfig()) // lookback 4, compression on
	meta, _ := lg.MustCreateMeta(vmem.HeapBase, 64)
	a := uint64(vmem.GlobalsBase + 0x108)
	lg.Register(meta, a, 0)
	lg.Register(meta, a+8, 0)
	if s := lg.Stats().Snapshot(); s.Compressed != 1 {
		t.Fatalf("fixture: a and a+8 did not fold: %+v", s)
	}
	dup := func(loc uint64) bool {
		before := lg.Stats().Snapshot().Duplicates
		lg.Register(meta, loc, 0)
		return lg.Stats().Snapshot().Duplicates > before
	}
	for step, c := range []struct {
		push int // far locations appended before the probe
		loc  uint64
		want bool
	}{
		{0, a + 8, true}, // the newest entry
		{3, a, true},     // the oldest entry of the window
		{0, a + 8, true},
		{1, a + 8, false}, // pushed out of the window
	} {
		for i := 0; i < c.push; i++ {
			lg.Register(meta, farLoc(1+step*4+i), 0)
		}
		if got := dup(c.loc); got != c.want {
			t.Fatalf("step %d: duplicate(0x%x) = %v, want %v", step, c.loc, got, c.want)
		}
	}
}

// TestThreadLogFitsItsCharge: the fixed per-log charge covers the struct
// it accounts for.
func TestThreadLogFitsItsCharge(t *testing.T) {
	if size := unsafe.Sizeof(ThreadLog{}); size > threadLogBytes {
		t.Fatalf("ThreadLog is %d B, charged %d B", size, threadLogBytes)
	}
}

// TestLogBlockFitsItsCharge: an indirect log block is charged exactly its
// size, and that size is a Go size class (128 B), so no rounding slack is
// allocated beyond the charge.
func TestLogBlockFitsItsCharge(t *testing.T) {
	if size := unsafe.Sizeof(logBlock{}); size != logBlockBytes || logBlockBytes != 128 {
		t.Fatalf("logBlock is %d B, charged %d B, want both 128 B", size, logBlockBytes)
	}
}
