package pointerlog

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"

	"dangsan/internal/faultinject"
	"dangsan/internal/vmem"
)

// cycleLocs is the distinct-location count of foldCycle: more than the
// 128-entry linear log, so the cycle is longer than the lookback and the
// log switches to its hash table part-way through the first pass.
const cycleLocs = 192

// cycleLoc is foldCycle's i-th location. They lie 264 B apart: no two share
// a 256-B region, so compression never packs two into one entry, and an odd
// number of words apart, so their hashes spread over a table.
func cycleLoc(i int) uint64 { return vmem.GlobalsBase + uint64(i)*264 }

// foldCycle registers the first n stores of a cycle over cycleLocs
// locations into meta on thread 0, each store pointing into the object.
func foldCycle(lg *Logger, meta *ObjectMeta, as *vmem.AddressSpace, from, to int) *ThreadLog {
	var tl *ThreadLog
	for i := from; i < to; i++ {
		loc := cycleLoc(i % cycleLocs)
		as.StoreWord(loc, meta.Base()+8)
		tl = lg.Register(meta, loc, 0)
	}
	return tl
}

func foldSpace() *vmem.AddressSpace {
	as := vmem.New()
	as.Heap().MapPages(vmem.HeapBase, 1)
	return as
}

// linearHeld reports whether tl still holds any of its linear log: blocks
// or a nonzero embedded entry.
func linearHeld(tl *ThreadLog) bool {
	held := tl.blocks.Load() != nil
	for i := range tl.embed {
		held = held || atomic.LoadUint64(&tl.embed[i]) != 0
	}
	return held
}

// TestFoldCycleLongerThanLookback: omnetpp's shape. A cycle of 192
// locations registered twice fills the linear log with the first 128, the
// table with the last 64, and then the table with the first 128 again;
// the grow at 112 entries takes in the linear log. From then on a free
// walks each location once, the blocks are gone from the resident bytes,
// and the cumulative charge is what it was without the fold.
func TestFoldCycleLongerThanLookback(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Audit = true
	lg := NewLogger(cfg)
	as := foldSpace()
	meta, handle := lg.MustCreateMeta(vmem.HeapBase, 64)
	tl := foldCycle(lg, meta, as, 0, 2*cycleLocs)

	if linearHeld(tl) || tl.tail != nil || tl.prev != nil {
		t.Fatalf("linear log kept after the grow: %d entries", tl.count)
	}
	visits := map[uint64]int{}
	lg.forEachLocation(meta, func(loc uint64) { visits[loc]++ })
	for i := 0; i < cycleLocs; i++ {
		if n := visits[cycleLoc(i)]; n != 1 {
			t.Errorf("location %d visited %d times, want once", i, n)
		}
	}
	if len(visits) != cycleLocs {
		t.Errorf("walk visited %d distinct locations, want %d", len(visits), cycleLocs)
	}

	// 12 embedded + 116 block entries: eight blocks, all dropped. The
	// table grew 64 → 128 → 256 slots either way, each grow charging the
	// bytes it added.
	blocks := uint64(8 * logBlockBytes)
	tables := uint64(256 * 8)
	s := lg.Stats().Snapshot()
	if s.LogBytes != threadLogBytes+blocks+tables {
		t.Errorf("LogBytes %d, want the unfolded charge %d", s.LogBytes, threadLogBytes+blocks+tables)
	}
	if s.LogBytesReleased != blocks || s.LogBytesLive != threadLogBytes+tables {
		t.Errorf("released %d B, live %d B; want the %d B of blocks released", s.LogBytesReleased, s.LogBytesLive, blocks)
	}
	// The second pass logs its first 49 locations into the table again, the
	// 49th growing it; the fold makes the other 143 duplicates.
	if s.Logged != cycleLocs+49 || s.Duplicates != cycleLocs-49 {
		t.Errorf("logged %d, duplicates %d; want %d and %d", s.Logged, s.Duplicates, cycleLocs+49, cycleLocs-49)
	}

	lg.Invalidate(meta, as)
	lg.ReleaseMeta(handle)
	if s := lg.Stats().Snapshot(); s.Invalidated != cycleLocs || s.Stale != 0 {
		t.Errorf("free: %d invalidated, %d stale; want %d and none", s.Invalidated, s.Stale, cycleLocs)
	}
	if v := lg.AuditViolations(); len(v) != 0 {
		t.Fatalf("audit at free: %v", v)
	}
	if err := lg.AuditCheck(); err != nil {
		t.Fatal(err)
	}
}

// TestFoldSkipsLinearLogThatDoesNotFit: barnes' shape. Locations that
// never repeat leave the table lacking the whole linear log at each grow,
// more than the doubled table holds, so the blocks stay and the table
// ends the size the new locations alone need.
func TestFoldSkipsLinearLogThatDoesNotFit(t *testing.T) {
	lg := NewLogger(DefaultConfig())
	as := foldSpace()
	meta, _ := lg.MustCreateMeta(vmem.HeapBase, 64)
	const distinct = DefaultMaxLogEntries + 200
	var tl *ThreadLog
	for i := 0; i < distinct; i++ {
		loc := vmem.GlobalsBase + uint64(i)<<8
		as.StoreWord(loc, meta.Base())
		tl = lg.Register(meta, loc, 0)
	}
	if !linearHeld(tl) || tl.count != DefaultMaxLogEntries {
		t.Fatalf("linear log folded: %d entries left", tl.count)
	}
	if got := tl.hash.bytes(); got != 256*8 {
		t.Errorf("table %d B, want 256 slots", got)
	}
	if s := lg.Stats().Snapshot(); s.LogBytesReleased != 0 || s.Logged != distinct {
		t.Errorf("released %d B, logged %d; want nothing released, every location logged", s.LogBytesReleased, s.Logged)
	}
	n := 0
	lg.forEachLocation(meta, func(uint64) { n++ })
	if n != distinct {
		t.Errorf("walk visited %d locations, want %d", n, distinct)
	}
}

// TestFoldWaitsForAGrantedGrow: a denied grow leaves the full table and
// the linear log as they are; the next grow that is granted folds.
func TestFoldWaitsForAGrantedGrow(t *testing.T) {
	lg := NewLogger(DefaultConfig())
	as := foldSpace()
	meta, _ := lg.MustCreateMeta(vmem.HeapBase, 64)
	// 64 table entries from the first pass, 48 from the second: full at
	// 112 of 128 slots, so the next new location wants a grow.
	const edge = cycleLocs + 48
	tl := foldCycle(lg, meta, as, 0, edge)
	if tb := tl.hash.table.Load(); !tb.full() || len(tb.entries) != 128 {
		t.Fatalf("test setup: table %d/%d, want full at 128 slots", tb.used, len(tb.entries))
	}

	plane := faultinject.New(1)
	plane.Enable(faultinject.HashGrowAlloc, 1, -1)
	lg.InjectFaults(plane)
	foldCycle(lg, meta, as, edge, edge+1)
	if !linearHeld(tl) || len(tl.hash.table.Load().entries) != 128 {
		t.Fatalf("a denied grow folded: %d linear entries, %d slots", tl.count, len(tl.hash.table.Load().entries))
	}
	if s := lg.Stats().Snapshot(); s.LogBytesReleased != 0 || s.DroppedRegistrations != 0 {
		t.Fatalf("denied grow: released %d B, dropped %d", s.LogBytesReleased, s.DroppedRegistrations)
	}

	lg.InjectFaults(nil)
	foldCycle(lg, meta, as, edge+1, edge+2)
	if linearHeld(tl) || len(tl.hash.table.Load().entries) != 256 {
		t.Fatalf("the granted grow did not fold: %d linear entries, %d slots", tl.count, len(tl.hash.table.Load().entries))
	}
}

// TestFoldRacesWalk: walks on another goroutine run while the owner's
// grow folds the linear log into the table; every walk finds every
// location registered before it began. Run under -race.
func TestFoldRacesWalk(t *testing.T) {
	const edge = cycleLocs + 48 // the next register grows and folds
	for trial := 0; trial < 20; trial++ {
		as := foldSpace()
		lg := NewLogger(DefaultConfig())
		meta, _ := lg.MustCreateMeta(vmem.HeapBase, 4096)
		tl := foldCycle(lg, meta, as, 0, edge)

		var passes atomic.Int64
		stop := make(chan struct{})
		done := make(chan error)
		go func() {
			// A miss is reported at the stop: the walks go on until then, so
			// the owner's waits for them always end.
			var missed error
			mem := &visitMemory{as: as, seen: make([]bool, cycleLocs*264/8)}
			for pass := 0; ; pass++ {
				clear(mem.seen)
				lg.Invalidate(meta, mem)
				for i := 0; i < cycleLocs && missed == nil; i++ {
					if !mem.seen[(cycleLoc(i)-vmem.GlobalsBase)/8] {
						missed = fmt.Errorf("pass %d missed location %d", pass, i)
					}
				}
				passes.Add(1)
				select {
				case <-stop:
					done <- missed
					return
				default:
				}
			}
		}()
		waitPass := func() {
			for p := passes.Load(); passes.Load() == p; {
				runtime.Gosched()
			}
		}
		waitPass()
		foldCycle(lg, meta, as, edge, edge+1)
		waitPass()
		close(stop)
		if err := <-done; err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if linearHeld(tl) {
			t.Fatalf("trial %d: the grow did not fold", trial)
		}
	}
}
