package pointerlog

import (
	"sync"
	"sync/atomic"
	"time"

	"dangsan/internal/vmem"
)

// InvalidBit is OR-ed into a pointer value to invalidate it. Setting the
// most significant bit makes the address non-canonical on x86-64 — any
// dereference faults — while keeping the low bits intact so the fault
// address can be related back to the original pointer, pointer differences
// still work, and partial type-unsafe reuse only sees its top byte change
// (paper §4.4's argument for bit-setting over nullification).
const InvalidBit = uint64(1) << 63

// DecodeFault inspects a faulting address: if it is an invalidated pointer
// (InvalidBit set over an otherwise-canonical address), it returns the
// original pointer and true — the debugging affordance the paper's §4.4
// chooses bit-setting for, letting a crash report name the freed object.
func DecodeFault(addr uint64) (orig uint64, invalidated bool) {
	orig = addr &^ InvalidBit
	if addr&InvalidBit != 0 && vmem.Canonical(orig) {
		return orig, true
	}
	return addr, false
}

// Memory is the slice of the simulated address space the invalidator needs:
// checked word reads (which report the simulated SIGSEGV instead of
// crashing) and compare-and-swap.
type Memory interface {
	LoadWord(addr uint64) (uint64, *vmem.Fault)
	CASWord(addr, old, new uint64) (bool, *vmem.Fault)
}

// invalCounts accumulates per-walk counters locally so the walk touches
// shared (sharded) counters O(1) times per free, not once per location.
type invalCounts struct {
	invalidated, stale, faulted, coldReadErrs uint64
}

func (c *invalCounts) flush(sh *statShard) {
	if c.invalidated != 0 {
		sh.invalidated.Add(c.invalidated)
	}
	if c.stale != 0 {
		sh.stale.Add(c.stale)
	}
	if c.faulted != 0 {
		sh.faulted.Add(c.faulted)
	}
	if c.coldReadErrs != 0 {
		sh.coldReadErrs.Add(c.coldReadErrs)
	}
}

// invalUnit is one independently walkable chunk of an object's logs:
// a whole thread log's inline storage (embed array plus indirect
// blocks — bounded by MaxLogEntries), a slot range of a hash-table
// fallback, or one cold segment streamed back from the spill file.
type invalUnit struct {
	tl     *ThreadLog
	table  *locTable
	lo, hi int
	seg    *coldSeg
}

// hashSlotsPerUnit is the hash-table slot range covered by one parallel
// work unit.
const hashSlotsPerUnit = 1 << 13

// Invalidate implements the paper's invalptrs: walk every location recorded
// for meta's object and overwrite, with compare-and-swap, every value that
// still points into [Base, Base+Size). Stale locations — overwritten since
// being logged, or in memory since returned to the OS — are skipped; that
// deferred reconciliation is what lets Register run without locks.
//
// Objects whose logs are large (the hash-table-fallback regime, or wide
// fan-in across many thread logs) are walked by a bounded pool of worker
// goroutines (see Logger.walkers).
// Parallel walks preserve the CAS contract: two workers hitting the same
// location (recorded by two threads) interleave exactly like two serial
// visits — the loser of the CAS re-reads and classifies the value as
// stale, so racing program stores are never clobbered and counter totals
// match the serial walk.
func (lg *Logger) Invalidate(meta *ObjectMeta, mem Memory) {
	// Any cached {meta, ThreadLog} fast-path pair is stale from here on.
	lg.gen.Add(1)

	var start time.Time
	met := lg.met
	if met != nil {
		start = time.Now()
	}

	base := meta.Base()
	end := base + meta.Size()
	sh := lg.stats.shard(int32(base >> 12))
	tid := int32(base >> 12)

	est := meta.walkEstimate()

	workers := lg.walkers
	if workers <= 1 || est < lg.parallelMin {
		var c invalCounts
		visit := func(loc uint64) {
			lg.invalidateLocation(loc, base, end, mem, &c)
		}
		meta.ForEachLocation(visit)
		lg.forEachColdLocation(meta, sh, visit)
		c.flush(sh)
		if met != nil {
			met.invalidateSerial.Inc(tid)
			met.invalidateUnits.Observe(tid, 1)
			met.invalidateNs.Since(tid, start)
		}
		return
	}

	// Parallel walk: split into units, fan out over a bounded pool.
	units := meta.appendUnits(nil)
	if workers > len(units) {
		workers = len(units)
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var c invalCounts
			visit := func(loc uint64) {
				lg.invalidateLocation(loc, base, end, mem, &c)
			}
			for {
				i := int(next.Add(1)) - 1
				if i >= len(units) {
					break
				}
				lg.walkUnit(&units[i], &c, visit)
			}
			// Each worker flushes to its own shard to keep the flush
			// contention-free; totals are unaffected by which shard
			// holds them.
			c.flush(lg.stats.shard(int32(w)))
		}(w)
	}
	wg.Wait()
	if met != nil {
		met.invalidateParallel.Inc(tid)
		met.invalidateUnits.Observe(tid, uint64(len(units)))
		met.invalidateNs.Since(tid, start)
	}
}

// walkEstimate sizes the walk over meta's logs in entries. Thread-log
// inline storage is bounded by MaxLogEntries; only hash fallbacks, spilled
// segments and many-threaded objects can push the estimate past the
// parallel threshold.
func (meta *ObjectMeta) walkEstimate() int {
	est := 0
	for tl := meta.logs.Load(); tl != nil; tl = tl.next.Load() {
		est += embedEntries
		for b := tl.blocks.Load(); b != nil; b = b.next.Load() {
			est += blockEntries
		}
		if h := tl.hash.Load(); h != nil {
			est += len(h.table.Load().entries)
		}
		if cs := tl.cold.Load(); cs != nil {
			est += int(cs.locs.Load())
		}
	}
	return est
}

// appendUnits splits meta's logs into independently walkable units.
func (meta *ObjectMeta) appendUnits(units []invalUnit) []invalUnit {
	for tl := meta.logs.Load(); tl != nil; tl = tl.next.Load() {
		units = append(units, invalUnit{tl: tl})
		if h := tl.hash.Load(); h != nil {
			t := h.table.Load()
			for lo := 0; lo < len(t.entries); lo += hashSlotsPerUnit {
				units = append(units, invalUnit{table: t, lo: lo, hi: min(lo+hashSlotsPerUnit, len(t.entries))})
			}
		}
		if cs := tl.cold.Load(); cs != nil {
			for seg := cs.segs.Load(); seg != nil; seg = seg.next {
				units = append(units, invalUnit{seg: seg})
			}
		}
	}
	return units
}

// walkUnit streams one unit's locations to fn. The hash-range walk reads
// the table published at unit-build time; entries a racing owner adds
// afterwards may be missed, the same benign race the serial walk
// tolerates. A segment unit decodes its locations out of the mapped spill
// file; a read failure skips the segment (counted in c, fail-open).
func (lg *Logger) walkUnit(u *invalUnit, c *invalCounts, fn func(loc uint64)) {
	var scratch [3]uint64
	visit := func(e uint64) {
		for _, loc := range decodeEntry(e, scratch[:0]) {
			fn(loc)
		}
	}
	switch {
	case u.seg != nil:
		if lg.cold.Load().forEach(u.seg, lg.faults.Load(), fn) != nil {
			c.coldReadErrs++
		}
	case u.tl != nil:
		for i := 0; i < embedEntries; i++ {
			visit(atomic.LoadUint64(&u.tl.embed[i]))
		}
		for b := u.tl.blocks.Load(); b != nil; b = b.next.Load() {
			for i := 0; i < blockEntries; i++ {
				visit(atomic.LoadUint64(&b.entries[i]))
			}
		}
	default:
		for i := u.lo; i < u.hi; i++ {
			if e := atomic.LoadUint64(&u.table.entries[i]); e != 0 {
				visit(e)
			}
		}
	}
}

func (lg *Logger) invalidateLocation(loc, base, end uint64, mem Memory, c *invalCounts) {
	for {
		w, fault := mem.LoadWord(loc)
		if fault != nil {
			// The memory holding the pointer was itself freed and returned
			// to the OS; DangSan catches the SIGSEGV and skips the entry.
			c.faulted++
			return
		}
		if w < base || w >= end {
			c.stale++
			return
		}
		ok, fault := mem.CASWord(loc, w, w|InvalidBit)
		if fault != nil {
			c.faulted++
			return
		}
		if ok {
			c.invalidated++
			return
		}
		// Lost a race with a concurrent store; re-check the fresh value.
	}
}
