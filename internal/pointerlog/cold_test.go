package pointerlog

import (
	"errors"
	"os"
	"slices"
	"sort"
	"sync"
	"testing"

	"dangsan/internal/faultinject"
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
// to out, and checks them against the header's count. It returns the
// extended slice and the segment's framed length.
func decodeSegment(b []byte, out []uint64) ([]uint64, int, error) {
	count, payload, err := segmentPayload(b)
	if err != nil {
		return out, 0, err
	}
	start := len(out)
	forEachSegmentLocation(b, func(loc uint64) { out = append(out, loc) })
	if len(out)-start != count {
		return out[:start], 0, errSegCorrupt
	}
	return out, segHeaderBytes + len(payload), nil
}

func sortedU64(s []uint64) []uint64 {
	out := append([]uint64(nil), s...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// TestSegmentRoundTrip: encode → decode is identity on the location set,
// and adjacent locations actually compress on disk.
func TestSegmentRoundTrip(t *testing.T) {
	var locs []uint64
	for i := 0; i < 300; i++ {
		locs = append(locs, vmem.GlobalsBase+uint64(i)*8) // adjacent: compressible
	}
	for i := 0; i < 100; i++ {
		locs = append(locs, vmem.StacksBase+uint64(i)*4096) // spread: raw
	}
	buf := appendSegment(nil, append([]uint64(nil), locs...))
	if entries := (len(buf) - segHeaderBytes) / 8; entries >= len(locs) {
		t.Fatalf("no compression: %d entries for %d locations", entries, len(locs))
	}
	got, n, err := decodeSegment(buf, nil)
	if err != nil || n != len(buf) {
		t.Fatalf("decode: n=%d err=%v", n, err)
	}
	want := sortedU64(locs)
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
// fails reads as truncated, and the segments before it still decode.
func TestSegmentTruncatedTail(t *testing.T) {
	seg1 := appendSegment(nil, []uint64{vmem.GlobalsBase, vmem.GlobalsBase + 16})
	seg2 := appendSegment(nil, []uint64{vmem.StacksBase, vmem.StacksBase + 4096})
	seg3 := appendSegment(nil, []uint64{vmem.HeapBase + 8})
	badSum := slices.Clone(seg3)
	badSum[len(badSum)-1] ^= 0xff
	for _, tail := range [][]byte{
		seg3[:1],                // torn magic
		seg3[:segHeaderBytes-1], // torn header
		seg3[:segHeaderBytes+3], // torn payload
		seg3[:len(seg3)-1],      // one byte short
		badSum,                  // checksum fails
	} {
		blob := slices.Concat(seg1, seg2, tail)
		n := 0
		for i, want := range []int{2, 2} {
			locs, m, err := decodeSegment(blob[n:], nil)
			if err != nil || len(locs) != want {
				t.Fatalf("tail %x: segment %d: %d locations, err %v; want %d, nil", tail, i, len(locs), err, want)
			}
			n += m
		}
		if locs, _, err := decodeSegment(blob[n:], nil); !errors.Is(err, errSegTruncated) || len(locs) != 0 {
			t.Fatalf("tail %x: %d locations, err %v; want none, errSegTruncated", tail, len(locs), err)
		}
	}
}

// TestSegmentMidFileCorruption: a segment with a wrong magic word is
// corrupt, not truncated, and costs only its own locations: the segment
// after it still decodes at its offset.
func TestSegmentMidFileCorruption(t *testing.T) {
	seg1 := appendSegment(nil, []uint64{vmem.GlobalsBase})
	seg2 := appendSegment(nil, []uint64{vmem.StacksBase})
	blob := slices.Concat(seg1, seg2)
	blob[0] ^= 0xff // first segment's magic
	if _, _, err := decodeSegment(blob, nil); !errors.Is(err, errSegCorrupt) {
		t.Fatalf("corrupt magic: err=%v, want errSegCorrupt", err)
	}
	if locs, _, err := decodeSegment(blob[len(seg1):], nil); err != nil || len(locs) != 1 || locs[0] != vmem.StacksBase {
		t.Fatalf("segment after the corrupt one: %#x %v", locs, err)
	}
}

// TestSegmentZeroHeaderEndsLog: a spill file is preallocated, so what was
// never written reads as a zero magic word. That — the space after the last
// segment, or a segment whose writer has not put its header in — is
// truncation, not corruption; anything but zero or the magic there is
// corruption.
func TestSegmentZeroHeaderEndsLog(t *testing.T) {
	seg := appendSegment(nil, []uint64{vmem.StacksBase, vmem.StacksBase + 4096, vmem.StacksBase + 8192})
	zeros := make([]byte, 4096)
	headerless := slices.Clone(seg)
	copy(headerless, zeros[:segHeaderBytes])
	for name, b := range map[string][]byte{
		"zeros":            zeros,
		"headerless":       headerless,
		"headerless+zeros": slices.Concat(headerless, zeros),
		"torn+zeros":       slices.Concat(seg[:len(seg)-8], zeros),
	} {
		if locs, _, err := decodeSegment(b, nil); !errors.Is(err, errSegTruncated) || len(locs) != 0 {
			t.Errorf("%s: locs=%d err=%v, want 0 errSegTruncated", name, len(locs), err)
		}
	}
	if locs, n, err := decodeSegment(slices.Concat(seg, zeros), nil); err != nil || n != len(seg) || len(locs) != 3 {
		t.Errorf("segment+zeros: locs=%d n=%d err=%v, want 3 %d nil", len(locs), n, err, len(seg))
	}
	if _, _, err := decodeSegment(slices.Concat([]byte{1, 0, 0, 0}, zeros), nil); !errors.Is(err, errSegCorrupt) {
		t.Errorf("nonzero non-magic header: err=%v, want errSegCorrupt", err)
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
// spill, the next cold read and a compaction are counted failures — the
// process lives, the hot tier still invalidates, and no location that was
// not logged or no longer points into the object is touched.
func TestColdMapFaultFailOpen(t *testing.T) {
	const nLocs = 1200
	cfg := tieredConfig(t)
	lg, as, meta, _, locs := fillTiered(t, cfg, nLocs)
	defer lg.Close()
	cs := lg.ColdLogStats()
	if cs.Segments == 0 {
		t.Fatal("fixture never spilled")
	}
	if err := lg.cold.Load().f.Truncate(0); err != nil {
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
	if err := lg.cold.Load().compact(); err == nil {
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

// TestColdGrowthAndCompactionUnderReaders: the mapping is replaced twice —
// by a compaction and by growth past coldMapBytes — while walks on other
// goroutines decode the keepers' segments out of it. Run under -race; no
// read may fail and every keeper location must end up invalidated.
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
	const nKeepers, perKeeper = 3, 600
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

	// Garbage that dominates the file, then its release: a compaction.
	const nGarbage = 30000
	garbage, gh := lg.MustCreateMeta(vmem.HeapBase+8*4096, 4096)
	fill(garbage, nKeepers, nGarbage)
	next += nGarbage
	lg.Invalidate(garbage, as)
	lg.ReleaseMeta(gh)
	if cs := lg.ColdLogStats(); cs.Compactions == 0 {
		t.Fatalf("releasing the dominant object did not compact: %+v", cs)
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
