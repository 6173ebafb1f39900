package pointerlog

import (
	"errors"
	"fmt"
	"os"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"testing"

	"dangsan/internal/faultinject"
	"dangsan/internal/frame"
	"dangsan/internal/vmem"
)

// tieredConfig arms the cold tier at the minimum threshold with an early
// hash switch, so a few dozen unique registrations force spills. Lookback
// and compression are off to keep entry counts exact.
func tieredConfig(t *testing.T) Config {
	cfg := DefaultConfig()
	cfg.Lookback = 0
	cfg.Compression = false
	cfg.MaxLogEntries = embedEntries
	cfg.ColdSpillBytes = MinColdSpillBytes
	cfg.ColdDir = t.TempDir()
	cfg.Audit = true
	return cfg
}

// fillTiered maps a page of heap, creates one object, and registers nLocs
// distinct global slots each holding a live pointer into it.
func fillTiered(t *testing.T, cfg Config, nLocs int) (*Logger, *vmem.AddressSpace, *ObjectMeta, uint64, []uint64) {
	t.Helper()
	as := vmem.New()
	as.Heap().MapPages(vmem.HeapBase, 4)
	lg := NewLogger(cfg)
	meta, handle := lg.MustCreateMeta(vmem.HeapBase, 4096)
	locs := make([]uint64, nLocs)
	for i := range locs {
		loc := vmem.GlobalsBase + uint64(i)*8
		locs[i] = loc
		as.StoreWord(loc, meta.Base()+uint64(i%512)*8)
		lg.Register(meta, loc, 0)
	}
	return lg, as, meta, handle, locs
}

// decodeSegment decodes the segment at the start of b the way free-time
// invalidation reads it (forEachSegmentLocation), appending its locations
// to out.
func decodeSegment(b []byte, out []uint64) ([]uint64, error) {
	err := forEachSegmentLocation(b, func(loc uint64) { out = append(out, loc) })
	return out, err
}

func sortedU64(s []uint64) []uint64 {
	out := append([]uint64(nil), s...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// TestSegmentRoundTrip: encode → decode is identity on the location set,
// adjacent locations actually compress on disk, and log entries passed
// through as they are decode to their locations.
func TestSegmentRoundTrip(t *testing.T) {
	var locs []uint64
	for i := 0; i < 300; i++ {
		locs = append(locs, vmem.GlobalsBase+uint64(i)*8) // adjacent: compressible
	}
	for i := 0; i < 100; i++ {
		locs = append(locs, vmem.StacksBase+uint64(i)*4096) // spread: raw
	}
	// A compressed trio and a raw entry, as a linear log holds them.
	trio, _ := tryCompressAdd(compressOne(vmem.HeapBase+8), vmem.HeapBase+16)
	trio, _ = tryCompressAdd(trio, vmem.HeapBase+24)
	entries := []uint64{trio, vmem.HeapBase + 4096}
	buf := appendSegment(nil, append([]uint64(nil), locs...), entries)
	if n := (len(buf) - frame.HeaderBytes) / 8; n >= len(locs) {
		t.Fatalf("no compression: %d entries for %d locations", n, len(locs))
	}
	got, err := decodeSegment(buf, nil)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	want := sortedU64(append(locs, vmem.HeapBase+8, vmem.HeapBase+16, vmem.HeapBase+24, vmem.HeapBase+4096))
	got = sortedU64(got)
	if len(got) != len(want) {
		t.Fatalf("decoded %d locations, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("location %d: got 0x%x want 0x%x", i, got[i], want[i])
		}
	}
}

// TestSegmentTruncatedTail: a segment whose bytes are cut short — torn in
// its header, in its payload, or one byte from its end — or whose checksum
// fails is a *frame.Error that yields no locations, and the segments before
// it still decode at their offsets.
func TestSegmentTruncatedTail(t *testing.T) {
	seg1 := appendSegment(nil, []uint64{vmem.GlobalsBase, vmem.GlobalsBase + 16}, nil)
	seg2 := appendSegment(nil, []uint64{vmem.StacksBase, vmem.StacksBase + 4096}, nil)
	seg3 := appendSegment(nil, []uint64{vmem.HeapBase + 8}, nil)
	badSum := slices.Clone(seg3)
	badSum[len(badSum)-1] ^= 0xff
	for _, tail := range [][]byte{
		seg3[:1],                   // torn magic
		seg3[:frame.HeaderBytes-1], // torn header
		seg3[:frame.HeaderBytes+3], // torn payload
		seg3[:len(seg3)-1],         // one byte short
		badSum,                     // checksum fails
	} {
		blob := slices.Concat(seg1, seg2, tail)
		n := 0
		for i, seg := range [][]byte{seg1, seg2} {
			locs, err := decodeSegment(blob[n:], nil)
			if err != nil || len(locs) != 2 {
				t.Fatalf("tail %x: segment %d: %d locations, err %v; want 2, nil", tail, i, len(locs), err)
			}
			n += len(seg)
		}
		var fe *frame.Error
		if locs, err := decodeSegment(blob[n:], nil); !errors.As(err, &fe) || len(locs) != 0 {
			t.Fatalf("tail %x: %d locations, err %v; want none, *frame.Error", tail, len(locs), err)
		}
	}
}

// TestSegmentMidFileCorruption: a segment with a wrong magic word fails
// its checks and costs only its own locations: the segment after it still
// decodes at its offset.
func TestSegmentMidFileCorruption(t *testing.T) {
	seg1 := appendSegment(nil, []uint64{vmem.GlobalsBase}, nil)
	seg2 := appendSegment(nil, []uint64{vmem.StacksBase}, nil)
	blob := slices.Concat(seg1, seg2)
	blob[0] ^= 0xff // first segment's magic
	var fe *frame.Error
	if locs, err := decodeSegment(blob, nil); !errors.As(err, &fe) || len(locs) != 0 {
		t.Fatalf("corrupt magic: %d locations, err=%v; want none, *frame.Error", len(locs), err)
	}
	if locs, err := decodeSegment(blob[len(seg1):], nil); err != nil || len(locs) != 1 || locs[0] != vmem.StacksBase {
		t.Fatalf("segment after the corrupt one: %#x %v", locs, err)
	}
}

// TestColdSpillInvalidateExact: spilling moves resident bytes to the cold
// tier without losing a single location — free-time invalidation streams
// the segments back and lands exactly the counts the untiered walk would.
func TestColdSpillInvalidateExact(t *testing.T) {
	const nLocs = 2000
	cfg := tieredConfig(t)
	lg, as, meta, handle, locs := fillTiered(t, cfg, nLocs)

	snap := lg.Stats().Snapshot()
	if snap.Spills == 0 || snap.LogBytesSpilled == 0 {
		t.Fatalf("fixture never spilled: %+v", snap)
	}
	if cs := lg.ColdLogStats(); cs.Segments == 0 || cs.DiskBytes == 0 {
		t.Fatalf("no cold segments on disk: %+v", cs)
	}
	if ents, err := os.ReadDir(cfg.ColdDir); err != nil || len(ents) != 0 {
		t.Fatalf("spill file visible in ColdDir: %v %v", ents, err)
	}
	// The point of the tier: residency is bounded by the spill threshold
	// (per log) while cumulative charges keep growing.
	if snap.LogBytesLive >= snap.LogBytes {
		t.Fatalf("spill did not reduce resident bytes: %+v", snap)
	}
	if err := lg.AuditCheck(); err != nil {
		t.Fatalf("audit after spills: %v", err)
	}
	// The untiered control — same stores, tier off — never spills, and the
	// tiered logger's resident bytes sit below its.
	off := cfg
	off.ColdSpillBytes = 0
	offLg, _, _, _, _ := fillTiered(t, off, nLocs)
	defer offLg.Close()
	if o := offLg.Stats().Snapshot(); o.Spills != 0 || o.LogBytesSpilled != 0 || snap.LogBytesLive >= o.LogBytesLive {
		t.Fatalf("tier off: %+v\ntier on:  %+v", o, snap)
	}

	// Overwrite a deterministic third so the stale path runs across tiers.
	overwritten := 0
	for i := 0; i < len(locs); i += 3 {
		as.StoreWord(locs[i], 7)
		overwritten++
	}
	lg.Invalidate(meta, as)
	snap = lg.Stats().Snapshot()
	if want := uint64(nLocs - overwritten); snap.Invalidated != want {
		t.Fatalf("Invalidated=%d want %d (stale=%d faulted=%d coldReadErrs=%d)",
			snap.Invalidated, want, snap.Stale, snap.Faulted, snap.ColdReadErrors)
	}
	if snap.Stale != uint64(overwritten) {
		t.Fatalf("Stale=%d want %d", snap.Stale, overwritten)
	}
	for i, loc := range locs {
		w, _ := as.LoadWord(loc)
		if i%3 == 0 {
			if w != 7 {
				t.Fatalf("overwritten slot %d clobbered: 0x%x", i, w)
			}
		} else if w&InvalidBit == 0 {
			t.Fatalf("slot %d not invalidated: 0x%x", i, w)
		}
	}

	lg.ReleaseMeta(handle)
	if v := lg.AuditViolations(); len(v) != 0 {
		t.Fatalf("audit violations: %v", v)
	}
	lg.Close()
}

// TestSpillWriteFaultFailOpen: a denied segment write must leave the
// table resident — full coverage, counted failure, clean audit.
func TestSpillWriteFaultFailOpen(t *testing.T) {
	const nLocs = 800
	plane := faultinject.New(11)
	plane.Enable(faultinject.ColdIO, 1.0, -1)
	cfg := tieredConfig(t)
	as := vmem.New()
	as.Heap().MapPages(vmem.HeapBase, 4)
	lg := NewLogger(cfg)
	lg.InjectFaults(plane)
	defer lg.Close()
	meta, _ := lg.MustCreateMeta(vmem.HeapBase, 4096)
	locs := make([]uint64, nLocs)
	for i := range locs {
		locs[i] = vmem.GlobalsBase + uint64(i)*8
		as.StoreWord(locs[i], meta.Base()+8)
		lg.Register(meta, locs[i], 0)
	}
	snap := lg.Stats().Snapshot()
	if snap.Spills != 0 || snap.SpillFailures == 0 {
		t.Fatalf("want only failed spills, got %+v", snap)
	}
	if cs := lg.ColdLogStats(); cs.Segments != 0 {
		t.Fatalf("segments written despite injected write failures: %+v", cs)
	}
	lg.Invalidate(meta, as)
	snap = lg.Stats().Snapshot()
	if snap.Invalidated != nLocs {
		t.Fatalf("Invalidated=%d want %d: fail-open spill lost coverage", snap.Invalidated, nLocs)
	}
	if err := lg.AuditCheck(); err != nil {
		t.Fatalf("audit under spill failures: %v", err)
	}
}

// TestColdReadFaultFailOpen: unreadable segments cost exactly their own
// coverage — the hot tiers still invalidate, errors are counted, and no
// false report can arise (a skipped location is simply never touched).
func TestColdReadFaultFailOpen(t *testing.T) {
	const nLocs = 1200
	cfg := tieredConfig(t)
	lg, as, meta, _, _ := fillTiered(t, cfg, nLocs)
	defer lg.Close()
	segs := lg.ColdLogStats().Segments
	if segs == 0 {
		t.Fatal("fixture never spilled")
	}
	plane := faultinject.New(13)
	plane.Enable(faultinject.ColdIO, 1.0, -1)
	lg.InjectFaults(plane)

	lg.Invalidate(meta, as)
	snap := lg.Stats().Snapshot()
	if snap.ColdReadErrors != uint64(segs) {
		t.Fatalf("ColdReadErrors=%d want %d", snap.ColdReadErrors, segs)
	}
	if snap.Invalidated == 0 || snap.Invalidated >= nLocs {
		t.Fatalf("Invalidated=%d: hot tier should invalidate, cold should be skipped", snap.Invalidated)
	}
	if err := lg.AuditCheck(); err != nil {
		t.Fatalf("audit under cold read failures: %v", err)
	}
}

// TestColdCompactionReclaimsGarbage: releasing a spilled object turns its
// segments into garbage; once garbage dominates, the file is rewritten
// with only the live segments — which must still decode for the surviving
// object.
func TestColdCompactionReclaimsGarbage(t *testing.T) {
	cfg := tieredConfig(t)
	as := vmem.New()
	as.Heap().MapPages(vmem.HeapBase, 8)
	lg := NewLogger(cfg)
	defer lg.Close()

	// big spills a lot; keeper spills a little. Distinct tids keep the
	// logs separate; distinct slot ranges keep the locations disjoint.
	big, bigHandle := lg.MustCreateMeta(vmem.HeapBase, 4096)
	keeper, _ := lg.MustCreateMeta(vmem.HeapBase+2*4096, 4096)
	const nBig, nKeep = 3000, 200
	keepLocs := make([]uint64, nKeep)
	for i := 0; i < nBig; i++ {
		loc := vmem.GlobalsBase + uint64(i)*8
		as.StoreWord(loc, big.Base()+8)
		lg.Register(big, loc, 0)
	}
	for i := range keepLocs {
		loc := vmem.GlobalsBase + uint64(nBig+i)*8
		keepLocs[i] = loc
		as.StoreWord(loc, keeper.Base()+8)
		lg.Register(keeper, loc, 1)
	}
	before := lg.ColdLogStats()
	if before.Segments < 2 {
		t.Fatalf("fixture too small to exercise compaction: %+v", before)
	}

	lg.Invalidate(big, as)
	lg.ReleaseMeta(bigHandle)
	after := lg.ColdLogStats()
	if after.Compactions == 0 {
		t.Fatalf("releasing the dominant object did not compact: before=%+v after=%+v", before, after)
	}
	if after.DiskBytes >= before.DiskBytes {
		t.Fatalf("compaction did not shrink the file: before=%d after=%d", before.DiskBytes, after.DiskBytes)
	}
	if after.GarbageBytes != 0 {
		t.Fatalf("garbage survives compaction: %+v", after)
	}

	// The survivor's segments moved; they must still stream back exactly.
	lg.Invalidate(keeper, as)
	snap := lg.Stats().Snapshot()
	if snap.ColdReadErrors != 0 {
		t.Fatalf("cold read errors after compaction: %+v", snap)
	}
	for i, loc := range keepLocs {
		if w, _ := as.LoadWord(loc); w&InvalidBit == 0 {
			t.Fatalf("keeper slot %d not invalidated after compaction: 0x%x", i, w)
		}
	}
	if v := lg.AuditViolations(); len(v) != 0 {
		t.Fatalf("audit violations: %v", v)
	}
}

// TestColdSpillManyInvalidate: invalidating several spilled objects in a
// row streams each one's cold segments and lands exact counts.
func TestColdSpillManyInvalidate(t *testing.T) {
	cfg := tieredConfig(t)
	as := vmem.New()
	as.Heap().MapPages(vmem.HeapBase, 8)
	lg := NewLogger(cfg)
	defer lg.Close()
	const nObjs, per = 3, 700
	metas := make([]*ObjectMeta, nObjs)
	handles := make([]uint64, nObjs)
	total := 0
	for o := range metas {
		m, h := lg.MustCreateMeta(vmem.HeapBase+uint64(o)*2*4096, 4096)
		metas[o], handles[o] = m, h
		for i := 0; i < per; i++ {
			loc := vmem.GlobalsBase + uint64(o*per+i)*8
			as.StoreWord(loc, m.Base()+8)
			lg.Register(m, loc, int32(o))
			total++
		}
	}
	if lg.Stats().Snapshot().Spills == 0 {
		t.Fatal("fixture never spilled")
	}
	for _, m := range metas {
		lg.Invalidate(m, as)
	}
	snap := lg.Stats().Snapshot()
	if snap.Invalidated != uint64(total) {
		t.Fatalf("Invalidated=%d want %d (stale=%d)", snap.Invalidated, total, snap.Stale)
	}
	for _, h := range handles {
		lg.ReleaseMeta(h)
	}
	if v := lg.AuditViolations(); len(v) != 0 {
		t.Fatalf("audit violations: %v", v)
	}
}

// TestColdMapFaultFailOpen: the spill file truncated under a live logger
// turns every store to and load from the mapping into a fault. The next
// spill, the next cold read and a compaction that has to move a segment
// are counted failures — the process lives, the hot tier still
// invalidates, and no location that was not logged or no longer points
// into the object is touched.
func TestColdMapFaultFailOpen(t *testing.T) {
	const nLocs = 1200
	cfg := tieredConfig(t)
	lg, as, meta, _, locs := fillTiered(t, cfg, nLocs)
	defer lg.Close()
	cs := lg.ColdLogStats()
	if cs.Segments == 0 {
		t.Fatal("fixture never spilled")
	}
	if err := lg.cold.f.Truncate(0); err != nil {
		t.Fatal(err)
	}

	// Every spill from here on faults; the tables stay resident.
	before := lg.Stats().Snapshot()
	more := make([]uint64, 400)
	for i := range more {
		more[i] = vmem.GlobalsBase + uint64(nLocs+i)*8
		as.StoreWord(more[i], meta.Base()+8)
		lg.Register(meta, more[i], 0)
	}
	snap := lg.Stats().Snapshot()
	if snap.SpillFailures == before.SpillFailures || snap.Spills != before.Spills {
		t.Fatalf("spills onto a truncated file: before %+v after %+v", before, snap)
	}
	// With the oldest segment dead, the one after it must slide down.
	c := lg.cold
	c.retire(c.segs[0])
	if err := c.compact(); err == nil {
		t.Fatal("compaction out of a truncated file reported success")
	}

	for i := 0; i < len(locs); i += 4 {
		as.StoreWord(locs[i], 7)
	}
	lg.Invalidate(meta, as)
	snap = lg.Stats().Snapshot()
	if snap.ColdReadErrors != uint64(cs.Segments) {
		t.Fatalf("ColdReadErrors=%d want %d (every segment faults)", snap.ColdReadErrors, cs.Segments)
	}
	for i, loc := range locs {
		if w, _ := as.LoadWord(loc); i%4 == 0 && w != 7 {
			t.Fatalf("overwritten slot %d clobbered: 0x%x", i, w)
		}
	}
	for i, loc := range more {
		if w, _ := as.LoadWord(loc); w&InvalidBit == 0 {
			t.Fatalf("resident slot %d not invalidated: 0x%x", i, w)
		}
	}
	if err := lg.AuditCheck(); err != nil {
		t.Fatalf("audit under mapping faults: %v", err)
	}
}

// TestColdGrowthAndCompactionUnderReaders: the keepers' segments slide
// down over the garbage below them at a compaction, and the mapping is
// replaced at growth past coldMapBytes, while walks on other goroutines
// decode the keepers' segments out of it. Run under -race; no read may
// fail, every keeper location must end up invalidated, and the logger
// keeps one spill file throughout.
func TestColdGrowthAndCompactionUnderReaders(t *testing.T) {
	cfg := tieredConfig(t)
	cfg.Audit = false // the identity is exact only single-threaded
	as := vmem.New()
	as.Heap().MapPages(vmem.HeapBase, 16)
	lg := NewLogger(cfg)
	defer lg.Close()

	next := uint64(0) // slot allocator: every object logs its own slots
	fill := func(meta *ObjectMeta, tid int32, n int) []uint64 {
		locs := make([]uint64, n)
		for i := range locs {
			locs[i] = vmem.GlobalsBase + (next+uint64(i))*8
			as.StoreWord(locs[i], meta.Base()+8)
			lg.Register(meta, locs[i], tid)
		}
		return locs
	}
	// Garbage that will dominate the file, first in it.
	const nKeepers, perKeeper, nGarbage = 3, 600, 30000
	garbage, gh := lg.MustCreateMeta(vmem.HeapBase+8*4096, 4096)
	fill(garbage, nKeepers, nGarbage)
	next += nGarbage
	f := lg.cold.f

	keepers := make([]*ObjectMeta, nKeepers)
	keepLocs := make([][]uint64, nKeepers)
	for k := range keepers {
		keepers[k], _ = lg.MustCreateMeta(vmem.HeapBase+uint64(k)*4096, 4096)
		keepLocs[k] = fill(keepers[k], int32(k), perKeeper)
		next += perKeeper
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for k := range keepers {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					lg.Invalidate(keepers[k], as)
				}
			}
		}(k)
	}

	// The garbage's release: a compaction that moves every keeper segment.
	seg := keepers[0].logs.Load().segs.Load()
	before := seg.off
	lg.Invalidate(garbage, as)
	lg.ReleaseMeta(gh)
	if cs := lg.ColdLogStats(); cs.Compactions == 0 || seg.off >= before {
		t.Fatalf("releasing the dominant object did not compact (a keeper segment at %d, was %d): %+v", seg.off, before, cs)
	}
	// More than one mapping's worth of segments: growth and a remap. Spread
	// slots do not fold, so a segment is 16 + 45×8 bytes.
	writer, _ := lg.MustCreateMeta(vmem.HeapBase+10*4096, 4096)
	var writerLocs []uint64
	for i := 0; lg.ColdLogStats().DiskBytes <= coldMapBytes; i++ {
		loc := vmem.GlobalsBase + (next+uint64(i%4096)*32)%(vmem.GlobalsSize/8)*8
		as.StoreWord(loc, writer.Base()+8)
		lg.Register(writer, loc, nKeepers+1)
		writerLocs = append(writerLocs, loc)
	}
	close(stop)
	wg.Wait()
	if lg.cold.f != f {
		t.Fatal("the spill file was replaced: compaction must move segments in place")
	}

	lg.Invalidate(writer, as)
	snap := lg.Stats().Snapshot()
	if snap.ColdReadErrors != 0 || snap.SpillFailures != 0 {
		t.Fatalf("cold tier failed under concurrent readers: %+v", snap)
	}
	for k := range keepers {
		for i, loc := range keepLocs[k] {
			if w, _ := as.LoadWord(loc); w&InvalidBit == 0 {
				t.Fatalf("keeper %d slot %d not invalidated: 0x%x", k, i, w)
			}
		}
	}
	for i, loc := range writerLocs {
		if w, _ := as.LoadWord(loc); w&InvalidBit == 0 {
			t.Fatalf("writer slot %d (0x%x) not invalidated across the remap: 0x%x", i, loc, w)
		}
	}
}

// residentConfig is the service's tier setting: the paper's log (lookback,
// compression, a 128-entry linear log before the hash switch) with the
// cold tier at its minimum threshold, audited.
func residentConfig(t *testing.T) Config {
	cfg := DefaultConfig()
	cfg.ColdSpillBytes = MinColdSpillBytes
	cfg.ColdDir = t.TempDir()
	cfg.Audit = true
	return cfg
}

// TestTieredResidentBound: once a log has spilled, its resident bytes are
// exactly its fixed per-log charge plus one 64-slot table, 160 + 512 =
// 672 B — the frozen linear log's blocks left RAM with the first spill and
// are carried by the spilled term, and the segment list costs nothing
// beyond the ThreadLog — and free-time invalidation still reaches every
// location.
func TestTieredResidentBound(t *testing.T) {
	const nLocs = 1200
	cfg := residentConfig(t)
	lg, as, meta, handle, locs := fillTiered(t, cfg, nLocs)
	defer lg.Close()

	tl := meta.logs.Load()
	if tl.blocks.Load() != nil || tl.tail != nil || tl.prev != nil {
		t.Fatal("the linear log's blocks are still reachable after a spill")
	}
	snap := lg.Stats().Snapshot()
	const want = 672
	if hot := tl.hash.bytes(); threadLogBytes+hot != want || snap.LogBytesLive != want || lg.MeasureLiveLogBytes() != want {
		t.Fatalf("resident %d (measured %d), want %d + %d = %d",
			snap.LogBytesLive, lg.MeasureLiveLogBytes(), threadLogBytes, hot, want)
	}
	// Every spill at the minimum threshold flushes one 64-slot table; the
	// first also carries the linear log's blocks.
	blocks := uint64((cfg.MaxLogEntries-embedEntries+blockEntries-1)/blockEntries) * logBlockBytes
	if blocks != 1024 || snap.Spills == 0 || snap.LogBytesSpilled != snap.Spills*locSetInitial*8+blocks {
		t.Fatalf("LogBytesSpilled=%d after %d spills, want %d per spill + %d for the blocks",
			snap.LogBytesSpilled, snap.Spills, locSetInitial*8, blocks)
	}

	lg.Invalidate(meta, as)
	if snap = lg.Stats().Snapshot(); snap.Invalidated != nLocs || snap.ColdReadErrors != 0 {
		t.Fatalf("Invalidated=%d want %d (stale=%d coldReadErrs=%d)", snap.Invalidated, nLocs, snap.Stale, snap.ColdReadErrors)
	}
	for i, loc := range locs {
		if w, _ := as.LoadWord(loc); w&InvalidBit == 0 {
			t.Fatalf("slot %d not invalidated: 0x%x", i, w)
		}
	}
	lg.ReleaseMeta(handle)
	if v := lg.AuditViolations(); len(v) != 0 {
		t.Fatalf("audit violations: %v", v)
	}
}

// visitMemory is an invalidator's view of as that records each location a
// walk would invalidate instead of writing it.
type visitMemory struct {
	as   *vmem.AddressSpace
	seen []bool // by global slot
}

func (m *visitMemory) LoadWord(addr uint64) (uint64, *vmem.Fault) { return m.as.LoadWord(addr) }

func (m *visitMemory) CASWord(addr, _, _ uint64) (bool, *vmem.Fault) {
	m.seen[(addr-vmem.GlobalsBase)/8] = true
	return true, nil
}

// TestTieredResidentBoundRacesFirstSpill: walks on another goroutine run
// while the owner's first spill carries the table and the linear log to
// the file, and on through a second spill that resets the table in place;
// every walk finds every location registered before it began in at least
// one tier. Run under -race.
func TestTieredResidentBoundRacesFirstSpill(t *testing.T) {
	cfg := residentConfig(t)
	const slots = 1024 // far more than two spills' worth
	for trial := 0; trial < 20; trial++ {
		as := vmem.New()
		as.Heap().MapPages(vmem.HeapBase, 1)
		lg := NewLogger(cfg)
		meta, _ := lg.MustCreateMeta(vmem.HeapBase, 4096)
		var registered, passes atomic.Int64
		register := func() *ThreadLog {
			i := registered.Load()
			loc := vmem.GlobalsBase + uint64(i)*8
			as.StoreWord(loc, meta.Base()+8)
			tl := lg.Register(meta, loc, 0)
			registered.Store(i + 1)
			return tl
		}
		// fillToEdge registers until the table is full: the next new
		// location spills.
		fillToEdge := func() {
			for {
				if tb := register().hash.table.Load(); tb != nil && tb.full() {
					return
				}
			}
		}
		// spillRaced lets a walk finish, then spills while the next ones run.
		spillRaced := func() {
			for p := passes.Load(); passes.Load() == p; {
				runtime.Gosched()
			}
			register()
		}

		fillToEdge()
		stop := make(chan struct{})
		done := make(chan error)
		go func() {
			// A miss is reported at the stop: the walks go on until then, so
			// the owner's waits for them always end.
			var missed error
			mem := &visitMemory{as: as, seen: make([]bool, slots)}
			for pass := 0; ; pass++ {
				n := int(registered.Load())
				clear(mem.seen)
				lg.Invalidate(meta, mem)
				for i := 0; i < n && missed == nil; i++ {
					if !mem.seen[i] {
						missed = fmt.Errorf("pass %d missed slot %d of %d", pass, i, n)
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
		spillRaced()
		fillToEdge()
		spillRaced()
		for p := passes.Load(); passes.Load() == p; {
			runtime.Gosched()
		}
		close(stop)
		if err := <-done; err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if snap := lg.Stats().Snapshot(); snap.Spills != 2 || meta.logs.Load().blocks.Load() != nil {
			t.Fatalf("trial %d: want two spills, the first taking the blocks: %+v", trial, snap)
		}
		if err := lg.AuditCheck(); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		lg.Close()
	}
}
