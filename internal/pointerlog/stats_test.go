package pointerlog

import (
	"testing"

	"dangsan/internal/vmem"
)

// goldenWorkload drives a deterministic single-threaded mix of
// registrations (duplicates, compressible neighbors, hash-table
// overflows) and invalidations through lg, returning the final snapshot.
func goldenWorkload(lg *Logger, as *vmem.AddressSpace) Snapshot {
	x := uint64(12345)
	next := func(n uint64) uint64 {
		x = x*6364136223846793005 + 1442695040888963407
		return (x >> 33) % n
	}
	var metas []*ObjectMeta
	for i := 0; i < 8; i++ {
		m, _ := lg.MustCreateMeta(vmem.HeapBase+uint64(i)*8192, 4096)
		metas = append(metas, m)
	}
	for i := 0; i < 50000; i++ {
		m := metas[next(8)]
		// Small location universe so the lookback, compression, and
		// hash-table duplicate paths all fire.
		loc := vmem.GlobalsBase + next(1<<12)*8
		as.StoreWord(loc, m.Base()+next(512)*8)
		lg.Register(m, loc, 0)
	}
	for _, m := range metas {
		lg.Invalidate(m, as)
	}
	return lg.Stats().Snapshot()
}

// goldenLogBytes is goldenWorkload's log footprint: the eight objects'
// thread logs at their fixed charge, plus the indirect blocks and hash
// tables behind them.
const goldenLogBytes = 8*threadLogBytes + 270336

// goldenFoldedBytes is the part of goldenLogBytes released before any free:
// each object's table folds in its linear log at a grow and drops its eight
// indirect blocks.
const goldenFoldedBytes = 8 * 8 * logBlockBytes

// goldenSnapshot holds the counter values for goldenWorkload. The
// classification counters (Registered through Faulted) reproduce the seed
// (pre-sharding) implementation bit-for-bit, except where a fold makes a
// location logged before the switch and registered again a duplicate
// rather than a second table entry. TestAuditGoldenWorkload verifies
// LogBytesLive against a walk of the actual structures.
var goldenSnapshot = Snapshot{
	ObjectsTracked:   8,
	Registered:       50000,
	Logged:           25781,
	Duplicates:       24219,
	Compressed:       4,
	HashTables:       8,
	Invalidated:      4096,
	Stale:            21616,
	Faulted:          0,
	LogBytes:         goldenLogBytes,
	LogBytesReleased: goldenFoldedBytes,
	LogBytesLive:     goldenLogBytes - goldenFoldedBytes,
}

func TestSnapshotMatchesSeedGolden(t *testing.T) {
	as := vmem.New()
	as.Heap().MapPages(vmem.HeapBase, 64)
	got := goldenWorkload(NewLogger(DefaultConfig()), as)
	if got != goldenSnapshot {
		t.Fatalf("sharded stats diverge from seed implementation:\n got  %+v\nwant %+v", got, goldenSnapshot)
	}
}

// The aggregate identity the paper's Table 1 relies on: every Register
// call is classified as exactly one of logged or duplicate, and every
// visited location at free time as invalidated, stale, or faulted.
func TestSnapshotIdentities(t *testing.T) {
	s := goldenSnapshot
	if s.Registered != s.Logged+s.Duplicates {
		t.Errorf("Registered %d != Logged %d + Duplicates %d", s.Registered, s.Logged, s.Duplicates)
	}
}

// The audit acceptance: on the golden workload, the incremental LogBytes
// accounting must equal an independent re-measurement of the live log
// structures — exactly, not approximately.
func TestAuditGoldenWorkload(t *testing.T) {
	as := vmem.New()
	as.Heap().MapPages(vmem.HeapBase, 64)
	cfg := DefaultConfig()
	cfg.Audit = true
	lg := NewLogger(cfg)
	got := goldenWorkload(lg, as)
	if got != goldenSnapshot {
		t.Fatalf("audit mode changed counters:\n got  %+v\nwant %+v", got, goldenSnapshot)
	}
	if measured := lg.MeasureLiveLogBytes(); measured != got.LogBytesLive {
		t.Fatalf("LogBytesLive=%d but measured live footprint=%d", got.LogBytesLive, measured)
	}
	if err := lg.AuditCheck(); err != nil {
		t.Fatalf("audit check failed: %v", err)
	}
	if v := lg.AuditViolations(); len(v) != 0 {
		t.Fatalf("audit violations: %v", v)
	}
}

// Releasing the golden workload's objects must move every accounted byte
// from live to released, with the audit identity intact at every step.
func TestAuditAcrossRelease(t *testing.T) {
	as := vmem.New()
	as.Heap().MapPages(vmem.HeapBase, 64)
	cfg := DefaultConfig()
	cfg.Audit = true
	lg := NewLogger(cfg)

	var handles []uint64
	var metas []*ObjectMeta
	for i := 0; i < 4; i++ {
		m, h := lg.MustCreateMeta(vmem.HeapBase+uint64(i)*8192, 4096)
		metas = append(metas, m)
		handles = append(handles, h)
	}
	x := uint64(99)
	for i := 0; i < 20000; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		m := metas[(x>>33)%4]
		loc := vmem.GlobalsBase + ((x>>21)%(1<<10))*8
		lg.Register(m, loc, 0)
	}
	for i, m := range metas {
		lg.Invalidate(m, as)
		lg.ReleaseMeta(handles[i]) // runs the auto audit check
	}
	if v := lg.AuditViolations(); len(v) != 0 {
		t.Fatalf("audit violations: %v", v)
	}
	s := lg.Stats().Snapshot()
	if s.LogBytesLive != 0 {
		t.Fatalf("all objects released but LogBytesLive=%d", s.LogBytesLive)
	}
	if s.LogBytesReleased != s.LogBytes {
		t.Fatalf("LogBytesReleased=%d != LogBytes=%d after releasing everything", s.LogBytesReleased, s.LogBytes)
	}
	if lg.MeasureLiveLogBytes() != 0 {
		t.Fatal("live footprint nonzero after releasing everything")
	}
}
